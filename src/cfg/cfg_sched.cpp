#include "cfg/cfg_sched.hpp"

#include "support/assert.hpp"
#include "vliw/vliw.hpp"

namespace bm {

double CfgScheduleResult::barrier_fraction() const {
  if (implied_syncs == 0) return 0.0;
  return static_cast<double>(barriers) / static_cast<double>(implied_syncs);
}

double CfgScheduleResult::serialized_fraction() const {
  if (implied_syncs == 0) return 0.0;
  return static_cast<double>(serialized_edges) /
         static_cast<double>(implied_syncs);
}

CfgScheduleResult schedule_cfg(const CfgProgram& cfg,
                               const SchedulerConfig& config,
                               const TimingModel& timing, Rng& rng) {
  cfg.validate();
  CfgScheduleResult out;
  out.cfg = &cfg;
  out.blocks.reserve(cfg.size());
  SchedulerConfig block_config = config;
  block_config.add_final_barrier = true;  // block boundary = machine rejoin
  for (BlockId id = 0; id < cfg.size(); ++id) {
    CfgBlockSchedule bs;
    bs.dag = std::make_unique<InstrDag>(
        InstrDag::build(cfg.block(id).body, timing));
    bs.result = schedule_program(*bs.dag, block_config, rng);
    out.implied_syncs += bs.result.stats.implied_syncs;
    out.serialized_edges += bs.result.stats.serialized_edges;
    out.barriers += bs.result.stats.barriers_final;
    out.blocks.push_back(std::move(bs));
  }
  return out;
}

namespace {

/// Running lockstep bound: each block costs its VLIW makespan once per
/// worst-case execution, and every non-exit execution one control transfer.
struct LockstepBound {
  Time total = 0;
  std::size_t transfers = 0;

  void add_block(const BasicBlock& b, const InstrDag& dag, std::size_t procs) {
    total += schedule_vliw(dag, procs).makespan *
             static_cast<Time>(b.max_executions);
    if (b.term != BasicBlock::Terminator::kExit) transfers += b.max_executions;
  }
  Time with_overhead(Time control_overhead) const {
    return total + control_overhead * static_cast<Time>(transfers);
  }
};

}  // namespace

Time vliw_cfg_worst_case(const CfgProgram& cfg, std::size_t procs,
                         const TimingModel& timing, Time control_overhead) {
  cfg.validate();
  LockstepBound bound;
  for (BlockId id = 0; id < cfg.size(); ++id)
    bound.add_block(cfg.block(id),
                    InstrDag::build(cfg.block(id).body, timing), procs);
  return bound.with_overhead(control_overhead);
}

Time vliw_cfg_worst_case(const CfgScheduleResult& sched, std::size_t procs,
                         Time control_overhead) {
  BM_REQUIRE(sched.cfg != nullptr, "CfgScheduleResult has no program");
  LockstepBound bound;
  for (BlockId id = 0; id < sched.cfg->size(); ++id)
    bound.add_block(sched.cfg->block(id), *sched.blocks[id].dag, procs);
  return bound.with_overhead(control_overhead);
}

}  // namespace bm
