#include "ir/tuple.hpp"

#include <sstream>

#include "support/assert.hpp"

namespace bm {

Tuple Tuple::load(std::uint32_t uid, VarId var) {
  Tuple t;
  t.uid = uid;
  t.op = Opcode::kLoad;
  t.var = var;
  return t;
}

Tuple Tuple::store(std::uint32_t uid, VarId var, Operand value) {
  Tuple t;
  t.uid = uid;
  t.op = Opcode::kStore;
  t.var = var;
  t.lhs = value;
  return t;
}

Tuple Tuple::binary(std::uint32_t uid, Opcode op, Operand lhs, Operand rhs) {
  BM_REQUIRE(is_binary_op(op), "binary() requires a binary opcode");
  Tuple t;
  t.uid = uid;
  t.op = op;
  t.lhs = lhs;
  t.rhs = rhs;
  return t;
}

std::string var_name(VarId v) {
  if (v < 26) return std::string(1, static_cast<char>('a' + v));
  std::ostringstream os;
  os << 'v' << v;
  return os.str();
}

namespace {
std::string operand_str(const Operand& o) {
  if (o.is_const()) return "#" + std::to_string(o.const_value());
  return std::to_string(o.tuple_id());
}
}  // namespace

std::string tuple_to_string(const Tuple& t) {
  std::ostringstream os;
  os << opcode_name(t.op) << ' ';
  if (t.is_load()) {
    os << var_name(t.var);
  } else if (t.is_store()) {
    os << var_name(t.var) << ',' << operand_str(t.lhs);
  } else {
    os << operand_str(t.lhs) << ',' << operand_str(t.rhs);
  }
  return os.str();
}

}  // namespace bm
