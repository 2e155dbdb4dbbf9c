// Timing models of the two barrier-MIMD hardware designs (§3.2):
//
//  SBM — barrier bit-masks in a FIFO queue (Fig. 11). The queue is loaded
//        with a compile-time linear extension of the barrier dag; the top
//        barrier fires once all its participants have raised WAIT, and all
//        participants resume simultaneously. A barrier can therefore be
//        *delayed* (never deadlocked) when the runtime order differs.
//
//  DBM — associative matching: each barrier fires as soon as all its
//        participants are waiting at it, independent of other barriers.
//
// Durations are drawn per instruction from its [min,max] range before the
// run starts, so a barrier's fire time depends only on its predecessors in
// the barrier dag (plus, on the SBM, its queue predecessor): one pass over
// the SBM queue order times both machines.
#pragma once

#include "sched/policies.hpp"
#include "sched/schedule.hpp"
#include "sim/sampler.hpp"
#include "sim/trace.hpp"

namespace bm {

struct SimConfig {
  MachineKind machine = MachineKind::kSBM;
  SamplingMode sampling = SamplingMode::kUniform;
};

/// Executes a schedule once; draws consume `rng`.
ExecTrace simulate(const Schedule& sched, const SimConfig& config, Rng& rng);

/// Same, reusing a caller-owned trace (its arrays are resized in place, so
/// a trace reused across the seed loop allocates only on the first run).
void simulate_into(const Schedule& sched, const SimConfig& config, Rng& rng,
                   ExecTrace& trace);

/// Completion-time summary over `runs` independent uniform draws plus the
/// deterministic all-min / all-max envelope. The uniform draws run several
/// lanes per schedule walk, each lane drawing after the previous one, so
/// `rng` is consumed in the exact order of `runs` serial simulate() calls.
struct CompletionSummary {
  Time min_draw = 0;   ///< all-min deterministic draw
  Time max_draw = 0;   ///< all-max deterministic draw
  double mean = 0.0;   ///< mean over the random runs
};
CompletionSummary summarize_completion(const Schedule& sched,
                                       MachineKind machine, std::size_t runs,
                                       Rng& rng);

}  // namespace bm
