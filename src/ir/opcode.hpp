// The nine-instruction benchmark instruction set of the paper (§2.1,
// Table 1), with execution-frequency data used by the synthetic generator.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

namespace bm {

enum class Opcode : std::uint8_t {
  kLoad = 0,
  kStore,
  kAdd,
  kSub,
  kAnd,
  kOr,
  kMul,
  kDiv,
  kMod,
};

inline constexpr std::size_t kNumOpcodes = 9;

/// All opcodes, in enum order.
constexpr std::array<Opcode, kNumOpcodes> all_opcodes() {
  return {Opcode::kLoad, Opcode::kStore, Opcode::kAdd,
          Opcode::kSub,  Opcode::kAnd,   Opcode::kOr,
          Opcode::kMul,  Opcode::kDiv,   Opcode::kMod};
}

std::string_view opcode_name(Opcode op);

/// True for Add/Sub/And/Or/Mul/Div/Mod — the operations the generator draws
/// for assignment statements. Load/Store are synthesized on demand (§2.2).
inline bool is_binary_op(Opcode op) {
  return op != Opcode::kLoad && op != Opcode::kStore;
}

/// Table 1 execution frequencies for the binary operations, in percent
/// (Add 45.8, Sub 33.9, And 8.8, Or 5.2, Mul 2.9, Div 2.2, Mod 1.2).
/// Returns 0 for Load/Store.
double opcode_frequency_percent(Opcode op);

/// Applies `op` to constant operands (constant folding). Division/modulo by
/// zero folds to 0, mirroring a compiler that traps to a defined value; the
/// generator never emits a constant zero divisor anyway.
std::int64_t fold_binary(Opcode op, std::int64_t lhs, std::int64_t rhs);

/// True if the operation is commutative (used by CSE canonicalization).
bool is_commutative(Opcode op);

}  // namespace bm
