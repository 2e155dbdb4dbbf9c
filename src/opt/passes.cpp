#include "opt/passes.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <utility>

#include "support/assert.hpp"
#include "support/scratch.hpp"

namespace bm {

namespace {

std::uint64_t mix64(std::uint64_t x) {  // splitmix64 finalizer
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t operand_bits(const Operand& o) {
  return (static_cast<std::uint64_t>(o.value) << 1) | (o.is_const() ? 1 : 0);
}

/// Value-numbering hash: opcode + operands (a Load: its variable). A
/// commutative operation hashes its operands as an unordered pair.
std::uint64_t value_hash(const Tuple& t) {
  const auto op = static_cast<std::uint64_t>(t.op);
  if (t.is_load()) return mix64((op << 56) ^ t.var);
  std::uint64_t a = operand_bits(t.lhs);
  std::uint64_t b = operand_bits(t.rhs);
  if (is_commutative(t.op) && b < a) std::swap(a, b);
  return mix64(a ^ mix64(b ^ (op << 56)));
}

/// True if the (non-store) tuples compute the same value: same opcode and
/// operands (in either order for a commutative operation), or Loads of the
/// same variable.
bool same_value(const Tuple& x, const Tuple& y) {
  if (x.op != y.op) return false;
  if (x.is_load()) return x.var == y.var;
  if (x.lhs == y.lhs && x.rhs == y.rhs) return true;
  return is_commutative(x.op) && x.lhs == y.rhs && x.rhs == y.lhs;
}

bool is_const_val(const Operand& o, std::int64_t v) {
  return o.is_const() && o.const_value() == v;
}

/// Algebraic identities (value propagation). Returns the operand the tuple
/// simplifies to, if any.
std::optional<Operand> simplify(const Tuple& t) {
  if (!t.is_binary()) return std::nullopt;
  const Operand& a = t.lhs;
  const Operand& b = t.rhs;
  const bool same = a == b;
  switch (t.op) {
    case Opcode::kAdd:
      if (is_const_val(a, 0)) return b;
      if (is_const_val(b, 0)) return a;
      break;
    case Opcode::kSub:
      if (is_const_val(b, 0)) return a;
      if (same) return Operand::constant(0);
      break;
    case Opcode::kMul:
      if (is_const_val(a, 1)) return b;
      if (is_const_val(b, 1)) return a;
      if (is_const_val(a, 0) || is_const_val(b, 0)) return Operand::constant(0);
      break;
    case Opcode::kDiv:
      if (is_const_val(b, 1)) return a;
      if (is_const_val(a, 0)) return Operand::constant(0);
      break;
    case Opcode::kMod:
      if (is_const_val(b, 1)) return Operand::constant(0);
      if (is_const_val(a, 0)) return Operand::constant(0);
      break;
    case Opcode::kAnd:
      if (same) return a;
      if (is_const_val(a, 0) || is_const_val(b, 0)) return Operand::constant(0);
      break;
    case Opcode::kOr:
      if (same) return a;
      if (is_const_val(a, 0)) return b;
      if (is_const_val(b, 0)) return a;
      break;
    default:
      break;
  }
  return std::nullopt;
}

}  // namespace

OptStats forward_rewrite(Program& prog, const OptOptions& options) {
  OptStats stats;
  const std::size_t n = prog.size();
  // For each old tuple id: its replacement operand (a new-id tuple ref or a
  // constant).
  ScratchVec<Operand> result;
  result->resize(n);
  // Per variable: the new id of its latest Store, for store→load forwarding.
  ScratchVec<TupleId> last_store;
  last_store->assign(prog.num_vars(), kInvalidTuple);
  // Value numbering over kept tuples: open addressing, linear probing, load
  // factor ≤ 1/2. Slots hold new ids; kInvalidTuple marks an empty slot.
  ScratchVec<TupleId> table;
  const std::size_t mask = std::bit_ceil(std::max<std::size_t>(2 * n, 16)) - 1;
  table->assign(mask + 1, kInvalidTuple);

  // Kept tuples are compacted in place: the write index never passes the
  // read index, and new ids below it already hold rewritten tuples.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < n; ++i) {
    Tuple t = prog[i];
    for (int k = 0; k < t.operand_count(); ++k) {
      Operand& o = t.operand(k);
      if (o.is_tuple()) o = (*result)[static_cast<TupleId>(o.value)];
    }

    if (t.is_binary() && t.lhs.is_const() && t.rhs.is_const()) {
      (*result)[i] = Operand::constant(
          fold_binary(t.op, t.lhs.const_value(), t.rhs.const_value()));
      ++stats.folded;
      continue;
    }
    if (options.algebraic) {
      if (auto simplified = simplify(t)) {
        (*result)[i] = *simplified;
        ++stats.simplified;
        continue;
      }
    }
    if (t.is_store()) {
      (*last_store)[t.var] = static_cast<TupleId>(kept);
      (*result)[i] = Operand::constant(0);  // no value; never referenced
      prog[kept++] = t;
      continue;
    }
    if (t.is_load() && (*last_store)[t.var] != kInvalidTuple) {
      // A reload after a store reads the stored value.
      (*result)[i] = prog[(*last_store)[t.var]].lhs;
      ++stats.cse;
      continue;
    }
    std::size_t slot = value_hash(t) & mask;
    while ((*table)[slot] != kInvalidTuple &&
           !same_value(prog[(*table)[slot]], t))
      slot = (slot + 1) & mask;
    if ((*table)[slot] != kInvalidTuple) {
      (*result)[i] = Operand::tuple((*table)[slot]);
      ++stats.cse;
      continue;
    }
    (*table)[slot] = static_cast<TupleId>(kept);
    (*result)[i] = Operand::tuple(static_cast<TupleId>(kept));
    prog[kept++] = t;
  }
  prog.truncate(kept);
  return stats;
}

std::size_t dead_code_eliminate(Program& prog) {
  const std::size_t n = prog.size();
  // remap[i]: kInvalidTuple while tuple i is dead; 0 once it is found live;
  // its new id after compaction.
  ScratchVec<TupleId> remap;
  remap->assign(n, kInvalidTuple);

  // Roots: the last store of each variable is the block's observable output.
  {
    ScratchVec<TupleId> last_store;
    last_store->assign(prog.num_vars(), kInvalidTuple);
    for (std::size_t i = 0; i < n; ++i)
      if (prog[i].is_store())
        (*last_store)[prog[i].var] = static_cast<TupleId>(i);
    for (const TupleId idx : *last_store)
      if (idx != kInvalidTuple) (*remap)[idx] = 0;
  }

  // Backward propagation through operand edges.
  for (std::size_t i = n; i-- > 0;) {
    if ((*remap)[i] == kInvalidTuple) continue;
    const Tuple& t = prog[i];
    for (int k = 0; k < t.operand_count(); ++k)
      if (t.operand(k).is_tuple()) (*remap)[t.operand(k).tuple_id()] = 0;
  }

  // Compact in place; operands reference earlier (already renumbered) ids.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if ((*remap)[i] == kInvalidTuple) continue;
    Tuple t = prog[i];
    for (int k = 0; k < t.operand_count(); ++k) {
      Operand& o = t.operand(k);
      if (o.is_tuple()) {
        const TupleId to = (*remap)[static_cast<TupleId>(o.value)];
        BM_ASSERT_INTERNAL(to != kInvalidTuple,
                           "live tuple references dead tuple");
        o = Operand::tuple(to);
      }
    }
    (*remap)[i] = static_cast<TupleId>(kept);
    prog[kept++] = t;
  }
  prog.truncate(kept);
  return n - kept;
}

// One round reaches the fixpoint. DCE only deletes tuples and renumbers the
// rest monotonically, which preserves every property forward_rewrite leaves
// behind: no binary tuple has two constant operands, none matches an
// identity, kept values are pairwise distinct, and no Load follows a Store
// to its variable. A second forward_rewrite therefore maps every tuple to
// itself, and a second DCE finds the same roots with everything reachable.
// tests/opt_test.cpp checks this against a loop-to-fixpoint oracle.
OptStats optimize(Program& prog, const OptOptions& options) {
  OptStats stats = forward_rewrite(prog, options);
  stats.dead = dead_code_eliminate(prog);
  prog.validate();
  return stats;
}

}  // namespace bm
