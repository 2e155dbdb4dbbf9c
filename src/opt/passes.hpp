// Standard local optimizations applied to generated blocks (§2.2): constant
// folding, algebraic simplification (value propagation), common
// subexpression elimination, and dead code elimination. These remove the
// "redundant parallelism that might skew the results".
#pragma once

#include <cstddef>

#include "ir/program.hpp"

namespace bm {

struct OptStats {
  std::size_t folded = 0;      ///< tuples replaced by constants
  std::size_t simplified = 0;  ///< algebraic identities applied
  std::size_t cse = 0;         ///< common subexpressions and reloads removed
  std::size_t dead = 0;        ///< tuples removed as dead code

  std::size_t total_removed() const { return folded + simplified + cse + dead; }
};

struct OptOptions {
  /// Also apply algebraic identities (x+0, x−x, x*1, x&x, ...). Off by
  /// default: §2.2 lists only CSE, constant folding, value propagation, and
  /// dead code elimination, and with few variables the identities collapse
  /// whole blocks (Sub a,a → 0 cascades through constant folding), which
  /// would starve the scheduling experiments of work.
  bool algebraic = false;
};

/// One forward rewriting pass: folding + CSE + store→load forwarding (+
/// algebraic identities when enabled). A Load of a variable after a Store to
/// it resolves to the stored operand; other Loads are numbered by variable.
/// Removed tuples' uses are rewritten to their replacement operand. The
/// program remains valid (validate() passes) afterwards.
OptStats forward_rewrite(Program& prog, const OptOptions& options = {});

/// Removes tuples whose results are unobservable. The roots are the last
/// Store of each variable (block memory outputs); everything not reachable
/// from a root through operand edges is dropped, including superseded stores
/// and unused loads.
std::size_t dead_code_eliminate(Program& prog);

/// Full pipeline: one forward_rewrite, then one dead_code_eliminate — which
/// already is the fixpoint (passes.cpp). Returns the combined stats.
OptStats optimize(Program& prog, const OptOptions& options = {});

}  // namespace bm
