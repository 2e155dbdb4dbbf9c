#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

#include "codegen/emitter.hpp"
#include "codegen/generator.hpp"
#include "harness/experiment.hpp"
#include "opt/passes.hpp"
#include "test_util.hpp"

namespace bm {
namespace {

Operand C(std::int64_t v) { return Operand::constant(v); }
Operand T(TupleId id) { return Operand::tuple(id); }

constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();

// -------------------------------------------------------- Constant fold ----

TEST(ConstFold, FoldsAndPropagates) {
  Program p(1);
  p.append(Tuple::binary(0, Opcode::kAdd, C(3), C(4)));   // -> 7
  p.append(Tuple::binary(1, Opcode::kMul, T(0), C(2)));   // -> 14
  p.append(Tuple::store(2, 0, T(1)));
  const OptStats s = optimize(p);
  EXPECT_EQ(s.folded, 2u);
  ASSERT_EQ(p.size(), 1u);
  EXPECT_TRUE(p[0].is_store());
  EXPECT_EQ(p[0].lhs.const_value(), 14);
}

TEST(ConstFold, DivModByZeroFoldToZero) {
  Program p(2);
  p.append(Tuple::binary(0, Opcode::kDiv, C(5), C(0)));
  p.append(Tuple::store(1, 0, T(0)));
  p.append(Tuple::binary(2, Opcode::kMod, C(5), C(0)));
  p.append(Tuple::store(3, 1, T(2)));
  optimize(p);
  ASSERT_EQ(p.size(), 2u);
  EXPECT_EQ(p[0].lhs.const_value(), 0);
  EXPECT_EQ(p[1].lhs.const_value(), 0);
}

// ----------------------------------------------------------- Algebraic -----

struct IdentityCase {
  Opcode op;
  Operand lhs, rhs;
  // Expected replacement: either the load's value (kLoad marker) or a const.
  bool expect_load;
  std::int64_t expect_const;
};

class AlgebraicTest : public ::testing::TestWithParam<IdentityCase> {};

TEST_P(AlgebraicTest, SimplifiesToOperandOrConstant) {
  const IdentityCase& c = GetParam();
  Program p(2);
  p.append(Tuple::load(0, 0));                       // t0 = Load a
  p.append(Tuple::binary(1, c.op, c.lhs, c.rhs));    // t1 = op
  p.append(Tuple::store(2, 1, T(1)));                // b = t1
  optimize(p, {.algebraic = true});
  // The binary op must be gone; the store receives the simplified value.
  for (const Tuple& t : p.tuples()) EXPECT_FALSE(t.is_binary());
  const Tuple& store = p[p.size() - 1];
  ASSERT_TRUE(store.is_store());
  if (c.expect_load) {
    ASSERT_TRUE(store.lhs.is_tuple());
    EXPECT_TRUE(p[store.lhs.tuple_id()].is_load());
  } else {
    ASSERT_TRUE(store.lhs.is_const());
    EXPECT_EQ(store.lhs.const_value(), c.expect_const);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Identities, AlgebraicTest,
    ::testing::Values(
        IdentityCase{Opcode::kAdd, T(0), C(0), true, 0},   // x+0 -> x
        IdentityCase{Opcode::kAdd, C(0), T(0), true, 0},   // 0+x -> x
        IdentityCase{Opcode::kSub, T(0), C(0), true, 0},   // x-0 -> x
        IdentityCase{Opcode::kSub, T(0), T(0), false, 0},  // x-x -> 0
        IdentityCase{Opcode::kMul, T(0), C(1), true, 0},   // x*1 -> x
        IdentityCase{Opcode::kMul, C(1), T(0), true, 0},   // 1*x -> x
        IdentityCase{Opcode::kMul, T(0), C(0), false, 0},  // x*0 -> 0
        IdentityCase{Opcode::kMul, C(0), T(0), false, 0},  // 0*x -> 0
        IdentityCase{Opcode::kDiv, T(0), C(1), true, 0},   // x/1 -> x
        IdentityCase{Opcode::kDiv, C(0), T(0), false, 0},  // 0/x -> 0
        IdentityCase{Opcode::kMod, T(0), C(1), false, 0},  // x%1 -> 0
        IdentityCase{Opcode::kMod, C(0), T(0), false, 0},  // 0%x -> 0
        IdentityCase{Opcode::kAnd, T(0), T(0), true, 0},   // x&x -> x
        IdentityCase{Opcode::kAnd, T(0), C(0), false, 0},  // x&0 -> 0
        IdentityCase{Opcode::kAnd, C(0), T(0), false, 0},  // 0&x -> 0
        IdentityCase{Opcode::kOr, T(0), T(0), true, 0},    // x|x -> x
        IdentityCase{Opcode::kOr, T(0), C(0), true, 0},    // x|0 -> x
        IdentityCase{Opcode::kOr, C(0), T(0), true, 0}));  // 0|x -> x

// ----------------------------------------------------------------- CSE -----

TEST(Cse, RemovesDuplicateExpression) {
  Program p(3);
  p.append(Tuple::load(0, 0));
  p.append(Tuple::load(1, 1));
  p.append(Tuple::binary(2, Opcode::kAdd, T(0), T(1)));
  p.append(Tuple::binary(3, Opcode::kAdd, T(0), T(1)));  // duplicate
  p.append(Tuple::store(4, 2, T(3)));
  const OptStats s = optimize(p);
  EXPECT_EQ(s.cse, 1u);
  std::size_t adds = 0;
  for (const Tuple& t : p.tuples()) adds += (t.op == Opcode::kAdd);
  EXPECT_EQ(adds, 1u);
}

TEST(Cse, CanonicalizesCommutativeOperands) {
  Program p(3);
  p.append(Tuple::load(0, 0));
  p.append(Tuple::load(1, 1));
  p.append(Tuple::binary(2, Opcode::kAdd, T(0), T(1)));
  p.append(Tuple::binary(3, Opcode::kAdd, T(1), T(0)));  // swapped operands
  p.append(Tuple::store(4, 2, T(3)));
  EXPECT_EQ(optimize(p).cse, 1u);
}

TEST(Cse, DoesNotMergeNonCommutativeSwap) {
  Program p(3);
  p.append(Tuple::load(0, 0));
  p.append(Tuple::load(1, 1));
  p.append(Tuple::binary(2, Opcode::kSub, T(0), T(1)));
  p.append(Tuple::binary(3, Opcode::kSub, T(1), T(0)));
  p.append(Tuple::store(4, 2, T(2)));
  p.append(Tuple::store(5, 1, T(3)));
  EXPECT_EQ(optimize(p).cse, 0u);
}

TEST(Cse, ForwardsStoredValueToReload) {
  // Load a; Add t0,#5; Store a,t1; Load a; Mul t3,#3; Store a,t4. The
  // reload must read the stored t1, not the first load: a=1 gives 18.
  Program p(1);
  p.append(Tuple::load(0, 0));
  p.append(Tuple::binary(1, Opcode::kAdd, T(0), C(5)));
  p.append(Tuple::store(2, 0, T(1)));
  p.append(Tuple::load(3, 0));
  p.append(Tuple::binary(4, Opcode::kMul, T(3), C(3)));
  p.append(Tuple::store(5, 0, T(4)));
  const Program original = p;
  const OptStats s = optimize(p);
  EXPECT_EQ(test::eval_program(original, {1}), std::vector<std::int64_t>{18});
  EXPECT_EQ(test::eval_program(p, {1}), std::vector<std::int64_t>{18});
  EXPECT_EQ(s.cse, 1u);   // the reload
  EXPECT_EQ(s.dead, 1u);  // the superseded store
  std::size_t loads = 0;
  for (const Tuple& t : p.tuples()) loads += t.is_load();
  EXPECT_EQ(loads, 1u);
}

TEST(Cse, ForwardsStoredConstantIntoFolding) {
  Program p(2);
  p.append(Tuple::store(0, 0, C(6)));
  p.append(Tuple::load(1, 0));                            // -> 6
  p.append(Tuple::binary(2, Opcode::kMul, T(1), C(7)));   // -> 42
  p.append(Tuple::store(3, 1, T(2)));
  const OptStats s = optimize(p);
  EXPECT_EQ(s.cse, 1u);
  EXPECT_EQ(s.folded, 1u);
  ASSERT_EQ(p.size(), 2u);
  EXPECT_EQ(p[1].lhs.const_value(), 42);
}

TEST(Cse, MergesDuplicateLoads) {
  Program p(2);
  p.append(Tuple::load(0, 0));
  p.append(Tuple::load(1, 0));  // same variable, no intervening store
  p.append(Tuple::binary(2, Opcode::kAdd, T(0), T(1)));
  p.append(Tuple::store(3, 1, T(2)));
  optimize(p);
  std::size_t loads = 0;
  for (const Tuple& t : p.tuples()) loads += t.is_load();
  EXPECT_EQ(loads, 1u);
}

// ----------------------------------------------------------------- DCE -----

TEST(Dce, RemovesSupersededStore) {
  Program p(1);
  p.append(Tuple::binary(0, Opcode::kAdd, C(1), C(2)));
  p.append(Tuple::store(1, 0, T(0)));   // dead: overwritten below
  p.append(Tuple::binary(2, Opcode::kAdd, C(5), C(6)));
  p.append(Tuple::store(3, 0, T(2)));
  optimize(p);
  std::size_t stores = 0;
  for (const Tuple& t : p.tuples()) stores += t.is_store();
  EXPECT_EQ(stores, 1u);
  EXPECT_EQ(p[p.size() - 1].lhs.const_value(), 11);
}

TEST(Dce, RemovesUnusedLoadChain) {
  Program p(3);
  p.append(Tuple::load(0, 0));
  p.append(Tuple::binary(1, Opcode::kMul, T(0), T(0)));  // result unused
  p.append(Tuple::binary(2, Opcode::kAdd, C(1), C(1)));
  p.append(Tuple::store(3, 1, T(2)));
  optimize(p);
  ASSERT_EQ(p.size(), 1u);  // only the store of the folded constant remains
  EXPECT_TRUE(p[0].is_store());
}

TEST(Dce, KeepsLastStorePerVariable) {
  Program p(2);
  p.append(Tuple::load(0, 0));
  p.append(Tuple::store(1, 1, T(0)));
  const std::size_t removed = dead_code_eliminate(p);
  EXPECT_EQ(removed, 0u);
  EXPECT_EQ(p.size(), 2u);
}

// ------------------------------------------------------------ Pipeline -----

TEST(Optimize, IsIdempotent) {
  const GeneratorConfig cfg{.num_statements = 40, .num_variables = 8,
                            .num_constants = 4, .const_max = 64};
  const StatementGenerator gen(cfg);
  Rng rng(2024);
  for (int trial = 0; trial < 10; ++trial) {
    Program p = emit_tuples(gen.generate(rng), cfg.num_variables);
    optimize(p);
    const std::size_t size_after_first = p.size();
    const OptStats second = optimize(p);
    EXPECT_EQ(second.total_removed(), 0u);
    EXPECT_EQ(p.size(), size_after_first);
  }
}

TEST(Optimize, NeverGrowsProgram) {
  const GeneratorConfig cfg{.num_statements = 50, .num_variables = 10,
                            .num_constants = 5, .const_max = 64};
  const StatementGenerator gen(cfg);
  Rng rng(55);
  for (int trial = 0; trial < 10; ++trial) {
    Program p = emit_tuples(gen.generate(rng), cfg.num_variables);
    const std::size_t before = p.size();
    optimize(p);
    EXPECT_LE(p.size(), before);
  }
}

TEST(Optimize, PreservesSemanticsOnRandomBlocks) {
  const GeneratorConfig cfg{.num_statements = 35, .num_variables = 7,
                            .num_constants = 4, .const_max = 32};
  const StatementGenerator gen(cfg);
  Rng rng(404);
  for (int trial = 0; trial < 40; ++trial) {
    const StatementList stmts = gen.generate(rng);
    Program unoptimized = emit_tuples(stmts, cfg.num_variables);
    Program optimized = unoptimized;
    optimize(optimized);
    std::vector<std::int64_t> memory(cfg.num_variables);
    for (auto& m : memory) m = rng.uniform(-50, 50);
    EXPECT_EQ(test::eval_program(unoptimized, memory),
              test::eval_program(optimized, memory));
  }
}

// --------------------------------------------------- Reference oracle -----
//
// The optimizer in its first form: std::map value numbering over canonical
// keys, and forward rewrite + DCE looped until a round removes nothing
// (plus store→load forwarding). optimize() must reproduce it exactly.

namespace oracle {

using ValueKey =
    std::tuple<Opcode, bool, std::int64_t, bool, std::int64_t, VarId>;

ValueKey make_key(const Tuple& t) {
  if (t.is_load()) return {t.op, false, 0, false, 0, t.var};
  std::pair<bool, std::int64_t> a{t.lhs.is_const(), t.lhs.value};
  std::pair<bool, std::int64_t> b{t.rhs.is_const(), t.rhs.value};
  if (is_commutative(t.op) && b < a) std::swap(a, b);
  return {t.op, a.first, a.second, b.first, b.second, 0};
}

std::optional<Operand> simplify(const Tuple& t) {
  if (!t.is_binary()) return std::nullopt;
  const Operand& a = t.lhs;
  const Operand& b = t.rhs;
  auto is = [](const Operand& o, std::int64_t v) {
    return o.is_const() && o.const_value() == v;
  };
  switch (t.op) {
    case Opcode::kAdd:
      if (is(a, 0)) return b;
      if (is(b, 0)) return a;
      break;
    case Opcode::kSub:
      if (is(b, 0)) return a;
      if (a == b) return C(0);
      break;
    case Opcode::kMul:
      if (is(a, 1)) return b;
      if (is(b, 1)) return a;
      if (is(a, 0) || is(b, 0)) return C(0);
      break;
    case Opcode::kDiv:
      if (is(b, 1)) return a;
      if (is(a, 0)) return C(0);
      break;
    case Opcode::kMod:
      if (is(b, 1) || is(a, 0)) return C(0);
      break;
    case Opcode::kAnd:
      if (a == b) return a;
      if (is(a, 0) || is(b, 0)) return C(0);
      break;
    case Opcode::kOr:
      if (a == b) return a;
      if (is(a, 0)) return b;
      if (is(b, 0)) return a;
      break;
    default:
      break;
  }
  return std::nullopt;
}

OptStats forward_rewrite(Program& prog, const OptOptions& options) {
  OptStats stats;
  std::vector<Tuple> out;
  std::vector<Operand> result(prog.size());
  std::vector<std::optional<Operand>> stored(prog.num_vars());
  std::map<ValueKey, TupleId> seen;
  for (std::size_t i = 0; i < prog.size(); ++i) {
    Tuple t = prog[i];
    for (int k = 0; k < t.operand_count(); ++k)
      if (t.operand(k).is_tuple())
        t.operand(k) = result[t.operand(k).tuple_id()];
    if (t.is_binary() && t.lhs.is_const() && t.rhs.is_const()) {
      result[i] = C(fold_binary(t.op, t.lhs.const_value(),
                                t.rhs.const_value()));
      ++stats.folded;
      continue;
    }
    if (options.algebraic) {
      if (auto simplified = simplify(t)) {
        result[i] = *simplified;
        ++stats.simplified;
        continue;
      }
    }
    if (t.is_store()) {
      stored[t.var] = t.lhs;
      result[i] = C(0);
      out.push_back(t);
      continue;
    }
    if (t.is_load() && stored[t.var]) {
      result[i] = *stored[t.var];
      ++stats.cse;
      continue;
    }
    const auto [it, inserted] =
        seen.emplace(make_key(t), static_cast<TupleId>(out.size()));
    result[i] = T(it->second);
    if (inserted)
      out.push_back(t);
    else
      ++stats.cse;
  }
  prog.replace_all(std::move(out));
  return stats;
}

std::size_t dead_code_eliminate(Program& prog) {
  const std::size_t n = prog.size();
  std::vector<bool> live(n, false);
  std::vector<std::optional<std::size_t>> last_store(prog.num_vars());
  for (std::size_t i = 0; i < n; ++i)
    if (prog[i].is_store()) last_store[prog[i].var] = i;
  for (const auto& idx : last_store)
    if (idx) live[*idx] = true;
  for (std::size_t i = n; i-- > 0;) {
    if (!live[i]) continue;
    for (int k = 0; k < prog[i].operand_count(); ++k)
      if (prog[i].operand(k).is_tuple())
        live[prog[i].operand(k).tuple_id()] = true;
  }
  std::vector<Tuple> out;
  std::vector<TupleId> remap(n, kInvalidTuple);
  for (std::size_t i = 0; i < n; ++i) {
    if (!live[i]) continue;
    Tuple t = prog[i];
    for (int k = 0; k < t.operand_count(); ++k)
      if (t.operand(k).is_tuple())
        t.operand(k) = T(remap[t.operand(k).tuple_id()]);
    remap[i] = static_cast<TupleId>(out.size());
    out.push_back(t);
  }
  prog.replace_all(std::move(out));
  return n - prog.size();
}

OptStats optimize(Program& prog, const OptOptions& options) {
  OptStats total;
  for (;;) {
    const OptStats s = oracle::forward_rewrite(prog, options);
    const std::size_t dead = oracle::dead_code_eliminate(prog);
    total.folded += s.folded;
    total.simplified += s.simplified;
    total.cse += s.cse;
    total.dead += dead;
    if (s.total_removed() + dead == 0) return total;
  }
}

}  // namespace oracle

// ------------------------------------------------------ Program helpers ----

/// Tuple-for-tuple equality; returns the first difference, or "".
std::string first_difference(const Program& a, const Program& b) {
  if (a.size() != b.size())
    return "size " + std::to_string(a.size()) + " vs " +
           std::to_string(b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const Tuple& x = a[i];
    const Tuple& y = b[i];
    if (x.uid != y.uid || x.op != y.op || x.lhs != y.lhs || x.rhs != y.rhs ||
        ((x.is_load() || x.is_store()) && x.var != y.var))
      return "tuple " + std::to_string(i) + ": " + tuple_to_string(x) +
             " vs " + tuple_to_string(y);
  }
  return "";
}

bool same_stats(const OptStats& a, const OptStats& b) {
  return a.folded == b.folded && a.simplified == b.simplified &&
         a.cse == b.cse && a.dead == b.dead;
}

/// A raw tuple stream in the style of stress_megadag's builder: operands
/// from a recency window, a small recycled variable set, reloads after
/// stores, repeated and commutatively swapped expressions, and constants
/// that hit the folding edge cases (INT64_MIN / -1 among them).
Program raw_stream(std::size_t len, std::uint32_t vars, Rng& rng) {
  static constexpr std::int64_t kConsts[] = {0, 1, -1, 2, 7, kMin, kMax};
  static constexpr Opcode kOps[] = {Opcode::kAdd, Opcode::kSub, Opcode::kAnd,
                                    Opcode::kOr,  Opcode::kMul, Opcode::kDiv,
                                    Opcode::kMod};
  auto draw = [&rng](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(n) - 1));
  };
  Program p(vars);
  std::vector<TupleId> values;    // loads and binaries
  std::vector<TupleId> binaries;
  auto recent = [&](const std::vector<TupleId>& ids) {
    const std::size_t window = std::min<std::size_t>(ids.size(), 16);
    return ids[ids.size() - 1 - draw(window)];
  };
  auto operand = [&]() -> Operand {
    if (values.empty() || draw(4) == 0) return C(kConsts[draw(7)]);
    return T(recent(values));
  };
  for (std::uint32_t uid = 0; uid < len; ++uid) {
    const auto var = static_cast<VarId>(draw(vars));
    const std::size_t roll = draw(16);
    if (roll < 3) {
      values.push_back(p.append(Tuple::load(uid, var)));
    } else if (roll < 6) {
      p.append(Tuple::store(uid, var, operand()));
    } else if (roll < 8 && !binaries.empty()) {
      Tuple dup = p[recent(binaries)];
      dup.uid = uid;
      if (draw(2) == 0) std::swap(dup.lhs, dup.rhs);
      values.push_back(p.append(dup));
      binaries.push_back(values.back());
    } else {
      const Opcode op = kOps[draw(7)];
      const Tuple t = roll == 8 ? Tuple::binary(uid, op, C(kMin), C(-1))
                                : Tuple::binary(uid, op, operand(), operand());
      values.push_back(p.append(t));
      binaries.push_back(values.back());
    }
  }
  return p;
}

std::vector<std::int64_t> random_memory(std::uint32_t vars, Rng& rng) {
  std::vector<std::int64_t> m(vars);
  for (auto& v : m) {
    const std::int64_t roll = rng.uniform(0, 7);
    v = roll == 0 ? kMin : roll == 1 ? -1 : rng.uniform(-50, 50);
  }
  return m;
}

/// The emitted golden-corpus programs (tests/golden: 25 seeds of the
/// headline block shape from base seed 1990), then a grid of synthesized
/// shapes, the last of more than 2^16 tuples.
std::vector<Program> emitted_corpus() {
  std::vector<Program> out;
  const GeneratorConfig headline;
  for (std::size_t i = 0; i < 25; ++i) {
    Rng rng = benchmark_rng(1990, i);
    out.push_back(emit_tuples(StatementGenerator(headline).generate(rng),
                              headline.num_variables));
  }
  Rng rng(29);
  for (const std::uint32_t stmts : {1u, 5u, 20u, 60u, 120u, 400u})
    for (const std::uint32_t vars : {1u, 3u, 8u, 26u})
      for (const double p_const : {0.0, 0.15, 0.6}) {
        const GeneratorConfig cfg{.num_statements = stmts,
                                  .num_variables = vars,
                                  .num_constants = 4,
                                  .const_operand_prob = p_const,
                                  .const_max = 8};
        out.push_back(emit_tuples(StatementGenerator(cfg).generate(rng), vars));
      }
  const GeneratorConfig big{.num_statements = 33000, .num_variables = 64};
  out.push_back(emit_tuples(StatementGenerator(big).generate(rng),
                            big.num_variables));
  return out;
}

// --------------------------------------------- One pass vs the oracle -----

TEST(OptimizeOracle, MatchesMapValueNumberingOnEmittedPrograms) {
  const std::vector<Program> corpus = emitted_corpus();
  ASSERT_GE(corpus.back().size(), std::size_t{1} << 16);
  for (const bool algebraic : {false, true}) {
    for (std::size_t c = 0; c < corpus.size(); ++c) {
      Program got = corpus[c];
      Program want = corpus[c];
      const OptStats got_stats = optimize(got, {.algebraic = algebraic});
      const OptStats want_stats =
          oracle::optimize(want, {.algebraic = algebraic});
      ASSERT_EQ(first_difference(got, want), "")
          << "program " << c << " algebraic=" << algebraic;
      ASSERT_TRUE(same_stats(got_stats, want_stats))
          << "program " << c << " algebraic=" << algebraic;
    }
  }
}

TEST(OptimizeOracle, MatchesMapValueNumberingOnRawStreams) {
  Rng rng(1029);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t len = trial == 0 ? 70000 : 1 + rng.uniform(0, 200);
    const auto vars = static_cast<std::uint32_t>(rng.uniform(1, 6));
    const Program raw = raw_stream(len, vars, rng);
    for (const bool algebraic : {false, true}) {
      Program got = raw;
      Program want = raw;
      const OptStats got_stats = optimize(got, {.algebraic = algebraic});
      const OptStats want_stats =
          oracle::optimize(want, {.algebraic = algebraic});
      ASSERT_EQ(first_difference(got, want), "")
          << "trial " << trial << " algebraic=" << algebraic;
      ASSERT_TRUE(same_stats(got_stats, want_stats))
          << "trial " << trial << " algebraic=" << algebraic;
    }
  }
}

// ---------------------------------------------------- Fixpoint + meaning ---

TEST(Optimize, OneRoundIsAFixpoint) {
  std::vector<Program> programs = emitted_corpus();
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial)
    programs.push_back(raw_stream(1 + rng.uniform(0, 150),
                                  static_cast<std::uint32_t>(rng.uniform(1, 5)),
                                  rng));
  for (const bool algebraic : {false, true}) {
    for (std::size_t c = 0; c < programs.size(); ++c) {
      Program p = programs[c];
      optimize(p, {.algebraic = algebraic});
      Program again = p;
      const OptStats s = forward_rewrite(again, {.algebraic = algebraic});
      const std::size_t dead = dead_code_eliminate(again);
      EXPECT_EQ(s.total_removed() + dead, 0u)
          << "program " << c << " algebraic=" << algebraic;
      ASSERT_EQ(first_difference(again, p), "") << "program " << c;
    }
  }
}

TEST(Optimize, PreservesSemanticsOnRawStreams) {
  Rng rng(2718);
  for (int trial = 0; trial < 400; ++trial) {
    const auto vars = static_cast<std::uint32_t>(rng.uniform(1, 6));
    const Program raw = raw_stream(1 + rng.uniform(0, 120), vars, rng);
    for (const bool algebraic : {false, true}) {
      Program optimized = raw;
      optimize(optimized, {.algebraic = algebraic});
      EXPECT_LE(optimized.size(), raw.size());
      for (int draw = 0; draw < 4; ++draw) {
        const std::vector<std::int64_t> memory = random_memory(vars, rng);
        ASSERT_EQ(test::eval_program(raw, memory),
                  test::eval_program(optimized, memory))
            << "trial " << trial << " algebraic=" << algebraic << "\n"
            << raw.to_string();
      }
    }
  }
}

}  // namespace
}  // namespace bm
