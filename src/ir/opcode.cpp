#include "ir/opcode.hpp"

#include <limits>

#include "support/assert.hpp"

namespace bm {

std::string_view opcode_name(Opcode op) {
  switch (op) {
    case Opcode::kLoad: return "Load";
    case Opcode::kStore: return "Store";
    case Opcode::kAdd: return "Add";
    case Opcode::kSub: return "Sub";
    case Opcode::kAnd: return "And";
    case Opcode::kOr: return "Or";
    case Opcode::kMul: return "Mul";
    case Opcode::kDiv: return "Div";
    case Opcode::kMod: return "Mod";
  }
  return "?";
}

double opcode_frequency_percent(Opcode op) {
  switch (op) {
    case Opcode::kAdd: return 45.8;
    case Opcode::kSub: return 33.9;
    case Opcode::kAnd: return 8.8;
    case Opcode::kOr: return 5.2;
    case Opcode::kMul: return 2.9;
    case Opcode::kDiv: return 2.2;
    case Opcode::kMod: return 1.2;
    case Opcode::kLoad:
    case Opcode::kStore: return 0.0;
  }
  return 0.0;
}

std::int64_t fold_binary(Opcode op, std::int64_t lhs, std::int64_t rhs) {
  // Synthesized blocks fold arbitrary constants, so Add/Sub/Mul must wrap
  // (two's complement) rather than hit signed-overflow UB; C++20 guarantees
  // the unsigned round-trip is exactly that wrap. Div/Mod additionally
  // guard INT64_MIN / -1, whose quotient is unrepresentable.
  const auto ul = static_cast<std::uint64_t>(lhs);
  const auto ur = static_cast<std::uint64_t>(rhs);
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  switch (op) {
    case Opcode::kAdd: return static_cast<std::int64_t>(ul + ur);
    case Opcode::kSub: return static_cast<std::int64_t>(ul - ur);
    case Opcode::kAnd: return lhs & rhs;
    case Opcode::kOr: return lhs | rhs;
    case Opcode::kMul: return static_cast<std::int64_t>(ul * ur);
    case Opcode::kDiv:
      if (rhs == 0) return 0;
      return lhs == kMin && rhs == -1 ? kMin : lhs / rhs;
    case Opcode::kMod:
      if (rhs == 0) return 0;
      return lhs == kMin && rhs == -1 ? 0 : lhs % rhs;
    case Opcode::kLoad:
    case Opcode::kStore: break;
  }
  throw Error("fold_binary on non-binary opcode");
}

bool is_commutative(Opcode op) {
  switch (op) {
    case Opcode::kAdd:
    case Opcode::kAnd:
    case Opcode::kOr:
    case Opcode::kMul: return true;
    default: return false;
  }
}

}  // namespace bm
