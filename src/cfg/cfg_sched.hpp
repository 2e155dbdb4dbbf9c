// Scheduling a control-flow program for a barrier MIMD: every basic block
// is scheduled with the §4 algorithms; the final rejoin barrier at each
// block boundary resets timing fuzziness to zero, so the next block starts
// statically synchronized no matter which path reached it.
#pragma once

#include <memory>
#include <vector>

#include "cfg/cfg_ir.hpp"
#include "graph/instr_dag.hpp"
#include "sched/scheduler.hpp"

namespace bm {

struct CfgBlockSchedule {
  std::unique_ptr<InstrDag> dag;
  ScheduleResult result;
};

struct CfgScheduleResult {
  const CfgProgram* cfg = nullptr;
  std::vector<CfgBlockSchedule> blocks;  ///< parallel to cfg blocks

  // Aggregated §3.1 accounting over all blocks (each counted once,
  // regardless of execution count).
  std::size_t implied_syncs = 0;
  std::size_t serialized_edges = 0;
  std::size_t barriers = 0;

  double barrier_fraction() const;
  double serialized_fraction() const;
};

/// Schedules every block. A final rejoin barrier is always added (block
/// boundaries are machine-wide synchronization points).
CfgScheduleResult schedule_cfg(const CfgProgram& cfg,
                               const SchedulerConfig& config,
                               const TimingModel& timing, Rng& rng);

/// The lockstep bound (§6 extended to control flow): a VLIW cannot run
/// data-dependent control asynchronously, so it must provision every block
/// for its static worst-case execution count at maximum instruction times.
/// Returns Σ_blocks vliw_makespan(block) × max_executions, plus
/// `control_overhead` per worst-case transfer.
Time vliw_cfg_worst_case(const CfgProgram& cfg, std::size_t procs,
                         const TimingModel& timing, Time control_overhead);

/// The same bound over the DAGs `schedule_cfg` already built (at the timing
/// model it was given), so no block's DAG is built twice. Equal to the
/// CfgProgram form at that timing model.
Time vliw_cfg_worst_case(const CfgScheduleResult& sched, std::size_t procs,
                         Time control_overhead);

}  // namespace bm
