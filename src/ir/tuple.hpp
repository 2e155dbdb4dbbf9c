// Tuple IR: the three-address form the synthetic compiler emits (Fig. 1).
//
// A tuple is one instruction. Loads name a variable; stores name a variable
// and a value operand; binary operations take two value operands. Value
// operands reference earlier tuples or immediate constants.
#pragma once

#include <cstdint>
#include <string>

#include "ir/opcode.hpp"
#include "support/assert.hpp"

namespace bm {

using TupleId = std::uint32_t;  ///< dense index into Program
using VarId = std::uint32_t;

inline constexpr TupleId kInvalidTuple = ~TupleId{0};

/// A value operand: either the result of a prior tuple or an immediate.
struct Operand {
  enum class Kind : std::uint8_t { kTuple, kConst };

  Kind kind = Kind::kConst;
  std::int64_t value = 0;  ///< TupleId when kTuple, constant value otherwise

  static Operand tuple(TupleId id) {
    return {Kind::kTuple, static_cast<std::int64_t>(id)};
  }
  static Operand constant(std::int64_t v) { return {Kind::kConst, v}; }

  bool is_tuple() const { return kind == Kind::kTuple; }
  bool is_const() const { return kind == Kind::kConst; }
  TupleId tuple_id() const {
    BM_REQUIRE(is_tuple(), "operand is not a tuple reference");
    return static_cast<TupleId>(value);
  }
  std::int64_t const_value() const {
    BM_REQUIRE(is_const(), "operand is not a constant");
    return value;
  }

  bool operator==(const Operand& o) const = default;
};

struct Tuple {
  /// Stable identifier assigned at creation; survives optimization (the paper
  /// prints these, with gaps where the optimizer removed tuples).
  std::uint32_t uid = 0;
  Opcode op = Opcode::kAdd;
  VarId var = 0;       ///< Load/Store only: the variable accessed
  Operand lhs;         ///< binary ops: first operand; Store: value stored
  Operand rhs;         ///< binary ops only: second operand

  static Tuple load(std::uint32_t uid, VarId var);
  static Tuple store(std::uint32_t uid, VarId var, Operand value);
  static Tuple binary(std::uint32_t uid, Opcode op, Operand lhs, Operand rhs);

  bool is_load() const { return op == Opcode::kLoad; }
  bool is_store() const { return op == Opcode::kStore; }
  bool is_binary() const { return is_binary_op(op); }

  /// Number of value operands (0 for Load, 1 for Store, 2 for binary).
  int operand_count() const { return is_load() ? 0 : is_store() ? 1 : 2; }
  /// The i-th value operand; i < operand_count().
  const Operand& operand(int i) const {
    BM_REQUIRE(i >= 0 && i < operand_count(), "operand index out of range");
    return i == 0 ? lhs : rhs;
  }
  Operand& operand(int i) {
    BM_REQUIRE(i >= 0 && i < operand_count(), "operand index out of range");
    return i == 0 ? lhs : rhs;
  }
};

/// Human-readable variable name: a, b, ..., z, v26, v27, ...
std::string var_name(VarId v);

/// Renders a tuple like "Store g,38" / "Add 12,30" / "Load d" / "Add 4,#3".
std::string tuple_to_string(const Tuple& t);

}  // namespace bm
