// Reference event-driven simulator of the §3.2 machines, kept as a
// differential oracle for the timing engine in sim/simulator.cpp.
//
// It models the hardware literally: processors run until they block on a
// barrier entry; the SBM fires the top of its mask queue (a linear
// extension of the barrier dag) once every participant waits at it, and
// the DBM rescans all barriers until no further barrier can match. Durations
// are drawn in node-id order before the run, exactly as the engine draws
// them, so both consume the same rng stream. Slow on purpose: no lane
// batching, no metrics, no scratch pooling.
#pragma once

#include <algorithm>
#include <vector>

#include "sim/simulator.hpp"
#include "support/assert.hpp"

namespace bm::oracle {

class MachineState {
 public:
  MachineState(const Schedule& sched, SamplingMode mode, Rng& rng,
               ExecTrace& trace)
      : sched_(sched),
        trace_(trace),
        idx_(sched.num_procs(), 0),
        time_(sched.num_procs(), 0),
        waiting_(sched.num_procs(), false) {
    const std::size_t n = sched.instr_dag().num_instructions();
    durations_.resize(n);
    for (NodeId i = 0; i < n; ++i)
      durations_[i] = sample_time(sched.instr_dag().time(i), mode, rng);
  }

  /// Advances processor p until it blocks on a barrier entry or retires its
  /// stream, recording instruction start/finish times as they execute.
  void run_proc(ProcId p) {
    if (waiting_[p]) return;
    const auto& s = sched_.stream(p);
    while (idx_[p] < s.size()) {
      const ScheduleEntry& e = s[idx_[p]];
      if (e.is_barrier) {
        waiting_[p] = true;
        return;
      }
      trace_.start[e.id] = time_[p];
      time_[p] += durations_[e.id];
      trace_.finish[e.id] = time_[p];
      ++idx_[p];
    }
  }

  void run_all() {
    for (ProcId p = 0; p < sched_.num_procs(); ++p) run_proc(p);
  }

  /// True when p is blocked at barrier entry b.
  bool waiting_at(ProcId p, BarrierId b) const {
    return waiting_[p] && sched_.stream(p)[idx_[p]].id == b;
  }
  Time arrival(ProcId p) const { return time_[p]; }
  bool done(ProcId p) const {
    return !waiting_[p] && idx_[p] >= sched_.stream(p).size();
  }

  void release(ProcId p, Time fire) {
    waiting_[p] = false;
    time_[p] = fire;  // simultaneous resume (§3.2)
    ++idx_[p];
  }

  Time completion() const {
    Time t = 0;
    for (ProcId p = 0; p < sched_.num_procs(); ++p) t = std::max(t, time_[p]);
    return t;
  }

 private:
  const Schedule& sched_;
  ExecTrace& trace_;
  std::vector<Time> durations_;
  std::vector<std::uint32_t> idx_;
  std::vector<Time> time_;
  std::vector<bool> waiting_;
};

/// Fires barrier b at the latest participant arrival (no earlier than
/// `not_before`) plus the latency, and releases every participant.
inline Time fire_barrier(const Schedule& sched, MachineState& m, BarrierId b,
                         Time not_before, ExecTrace& trace) {
  Time ready = not_before;
  sched.barrier_mask(b).for_each([&](std::size_t p) {
    ready = std::max(ready, m.arrival(static_cast<ProcId>(p)));
  });
  const Time fire = ready + sched.barrier_latency();
  trace.barrier_fire[b] = fire;
  sched.barrier_mask(b).for_each(
      [&](std::size_t p) { m.release(static_cast<ProcId>(p), fire); });
  return fire;
}

inline void simulate_sbm(const Schedule& sched, MachineState& m,
                         ExecTrace& trace) {
  Time last_fire = 0;
  for (const BarrierId b : sched.barrier_dag().linear_extension()) {
    if (b == Schedule::kInitialBarrier) {
      trace.barrier_fire[b] = 0;
      continue;
    }
    m.run_all();
    sched.barrier_mask(b).for_each([&](std::size_t p) {
      BM_REQUIRE(m.waiting_at(static_cast<ProcId>(p), b),
                 "simulation deadlock: SBM participant not waiting at queue "
                 "top");
    });
    // FIFO: a mask fires only after its queue predecessor.
    last_fire = fire_barrier(sched, m, b, last_fire, trace);
  }
  m.run_all();
}

inline void simulate_dbm(const Schedule& sched, MachineState& m,
                         ExecTrace& trace) {
  trace.barrier_fire[Schedule::kInitialBarrier] = 0;
  for (bool fired = true; fired;) {
    m.run_all();
    // Associative match: fire every barrier whose participants all wait.
    fired = false;
    for (BarrierId b = 1; b < sched.barrier_id_bound(); ++b) {
      if (!sched.barrier_alive(b) || trace.barrier_fire[b] != kNotExecuted)
        continue;
      bool all_waiting = true;
      sched.barrier_mask(b).for_each([&](std::size_t p) {
        all_waiting = all_waiting && m.waiting_at(static_cast<ProcId>(p), b);
      });
      if (!all_waiting) continue;
      fire_barrier(sched, m, b, 0, trace);
      fired = true;
    }
  }
}

/// One run of `sched`; bit-identical to bm::simulate for the same rng.
inline ExecTrace simulate(const Schedule& sched, const SimConfig& config,
                          Rng& rng) {
  const std::size_t n = sched.instr_dag().num_instructions();
  ExecTrace trace;
  trace.start.assign(n, kNotExecuted);
  trace.finish.assign(n, kNotExecuted);
  trace.barrier_fire.assign(sched.barrier_id_bound(), kNotExecuted);
  MachineState m(sched, config.sampling, rng, trace);
  if (config.machine == MachineKind::kSBM)
    simulate_sbm(sched, m, trace);
  else
    simulate_dbm(sched, m, trace);
  for (ProcId p = 0; p < sched.num_procs(); ++p)
    BM_REQUIRE(m.done(p), "simulation deadlock: processor never released");
  trace.completion = m.completion();
  return trace;
}

}  // namespace bm::oracle
