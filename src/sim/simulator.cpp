#include "sim/simulator.hpp"

#include <algorithm>
#include <span>

#include "obs/obs.hpp"
#include "support/assert.hpp"
#include "support/scratch.hpp"

namespace bm {

namespace {

/// Lanes per schedule walk for summarize_completion's uniform draws (the
/// MASIM multi-array layout: every per-run quantity is a seed-major row of
/// W lanes). Wide enough to amortize the walk over the schedule structure,
/// small enough that ragged tails (runs % 8) stay cheap.
constexpr std::size_t kLanes = 8;

/// One engine call's buffers, seed-major: row r of lane w lives at
/// [r * W + w]. The trace rows may be null when only completions are wanted.
struct LaneBuffers {
  const Time* durations = nullptr;  ///< [instr * W + lane], pre-drawn
  Time* start = nullptr;            ///< [instr * W + lane]
  Time* finish = nullptr;           ///< [instr * W + lane]
  Time* fire = nullptr;             ///< [barrier * W + lane]
  Time* completion = nullptr;       ///< [lane]
};

/// Lane 0's machine events for one participant of a fired barrier: a stall
/// span while it waited, then the fire instant on its lane.
void trace_fire(BarrierId b, std::size_t p, Time arrival, Time fire) {
  const auto lane = static_cast<std::uint32_t>(p);
  if (fire > arrival)
    obs::sim_span("stall", "sim", lane, static_cast<double>(arrival),
                  static_cast<double>(fire - arrival), "barrier",
                  static_cast<double>(b));
  obs::sim_instant("fire b" + std::to_string(b), "sim", lane,
                   static_cast<double>(fire));
}

/// The timing engine: runs the first `lanes` of W lanes of one schedule in
/// a single walk over the barrier dag's linear extension (the SBM queue
/// order). Durations are drawn up front, so every lane follows the same
/// structural path; at each barrier, every participant is advanced to its
/// next barrier entry (which must be this one), the barrier fires at the
/// latest arrival plus the latency — on the SBM no earlier than its queue
/// predecessor — and all participants resume at the fire time (§3.2).
/// Stall and FIFO-delay totals fold into the registry once per call.
template <std::size_t W>
void time_lanes(const Schedule& sched, MachineKind machine, std::size_t lanes,
                const LaneBuffers& io) {
  BM_OBS_COUNT_N("sim.runs", lanes);
  BM_OBS_SPAN_ARG(span,
                  machine == MachineKind::kSBM ? "sim.run_sbm" : "sim.run_dbm",
                  "sim", "lanes", static_cast<double>(lanes));
  ScratchVec<BarrierId> order_s;
  sched.barrier_dag().linear_extension_into(*order_s);
  ScratchVec<std::span<const ScheduleEntry>> rest_s;  // per proc: not yet run
  ScratchVec<Time> clock_s;                           // [proc * W + lane]
  auto& rest = *rest_s;
  auto& clock = *clock_s;
  rest.clear();
  for (ProcId p = 0; p < sched.num_procs(); ++p)
    rest.emplace_back(sched.stream(p));
  clock.assign(sched.num_procs() * W, 0);

  // Runs p up to its next barrier entry, timing each instruction on the
  // way; returns that barrier, or kInvalidBarrier once p has retired.
  const auto advance = [&](std::size_t p) {
    std::span<const ScheduleEntry>& s = rest[p];
    Time* t = clock.data() + p * W;
    for (; !s.empty(); s = s.subspan(1)) {
      const ScheduleEntry& e = s.front();
      if (e.is_barrier) return e.id;
      const std::size_t row = e.id * W;
      if (io.start)
        for (std::size_t w = 0; w < W; ++w) io.start[row + w] = t[w];
      for (std::size_t w = 0; w < W; ++w) t[w] += io.durations[row + w];
      if (io.finish)
        for (std::size_t w = 0; w < W; ++w) io.finish[row + w] = t[w];
    }
    return kInvalidBarrier;
  };

  const bool sbm = machine == MachineKind::kSBM;
  const bool tracing = BM_OBS_TRACING();
  const Time latency = sched.barrier_latency();
  Time last[W] = {};   // SBM: fire time of the queue predecessor
  Time stall[W] = {};  // fire minus arrival, summed over participants
  Time fifo[W] = {};   // SBM wait beyond the latest arrival
  std::uint64_t fires = 0;
  for (const BarrierId b : *order_s) {
    Time fire[W] = {};  // the initial barrier: all start in exact synchrony
    if (b != Schedule::kInitialBarrier) {
      const DynBitset& mask = sched.barrier_mask(b);
      Time arrive[W] = {};
      mask.for_each([&](std::size_t p) {
        const BarrierId at = advance(p);
        BM_REQUIRE(at == b, "simulation deadlock: a participant's stream "
                            "does not reach barrier " + std::to_string(b));
        const Time* t = clock.data() + p * W;
        for (std::size_t w = 0; w < W; ++w)
          arrive[w] = std::max(arrive[w], t[w]);
      });
      for (std::size_t w = 0; w < W; ++w) {
        const Time ready = sbm ? std::max(last[w], arrive[w]) : arrive[w];
        fifo[w] += ready - arrive[w];
        fire[w] = ready + latency;
        last[w] = fire[w];
      }
      mask.for_each([&](std::size_t p) {
        Time* t = clock.data() + p * W;
        if (tracing) trace_fire(b, p, t[0], fire[0]);
        for (std::size_t w = 0; w < W; ++w) {
          stall[w] += fire[w] - t[w];
          t[w] = fire[w];  // simultaneous resume
        }
        rest[p] = rest[p].subspan(1);  // past the barrier entry
      });
      ++fires;
    }
    if (io.fire) std::copy(fire, fire + W, io.fire + b * W);
  }

  Time done[W] = {};
  for (std::size_t p = 0; p < sched.num_procs(); ++p) {
    const BarrierId at = advance(p);
    BM_REQUIRE(at == kInvalidBarrier,
               "simulation deadlock: processor never released");
    const Time* t = clock.data() + p * W;
    for (std::size_t w = 0; w < W; ++w) done[w] = std::max(done[w], t[w]);
  }
  std::copy(done, done + lanes, io.completion);

  Time stall_sum = 0, fifo_sum = 0;
  for (std::size_t w = 0; w < lanes; ++w) {
    stall_sum += stall[w];
    fifo_sum += fifo[w];
  }
  if (fires > 0) {
    BM_OBS_COUNT_N("sim.barriers_fired", fires * lanes);
    BM_OBS_COUNT_N("sim.stall_cycles", stall_sum);
    BM_OBS_OBSERVE_N("sim.barrier_stall", fires * lanes, stall_sum);
  }
  if (fifo_sum > 0) BM_OBS_COUNT_N("sim.sbm_fifo_delay_cycles", fifo_sum);
}

/// Draws lane w's durations after lanes [0, w) — the rng order of serial
/// runs — into the seed-major matrix [instr * W + lane].
void draw_lanes(const InstrDag& dag, SamplingMode mode, std::size_t lanes,
                std::size_t W, Rng& rng, std::vector<Time>& out) {
  const std::size_t n = dag.num_instructions();
  out.resize(n * W);
  if (lanes < W) std::fill(out.begin(), out.end(), 0);  // idle tail lanes
  for (std::size_t w = 0; w < lanes; ++w)
    for (NodeId i = 0; i < n; ++i)
      out[i * W + w] = sample_time(dag.time(i), mode, rng);
}

}  // namespace

void simulate_into(const Schedule& sched, const SimConfig& config, Rng& rng,
                   ExecTrace& trace) {
  const std::size_t n = sched.instr_dag().num_instructions();
  trace.start.assign(n, kNotExecuted);
  trace.finish.assign(n, kNotExecuted);
  trace.barrier_fire.assign(sched.barrier_id_bound(), kNotExecuted);
  ScratchVec<Time> durations;
  draw_lanes(sched.instr_dag(), config.sampling, 1, 1, rng, *durations);
  time_lanes<1>(sched, config.machine, 1,
                {.durations = durations->data(),
                 .start = trace.start.data(),
                 .finish = trace.finish.data(),
                 .fire = trace.barrier_fire.data(),
                 .completion = &trace.completion});
}

ExecTrace simulate(const Schedule& sched, const SimConfig& config, Rng& rng) {
  ExecTrace trace;
  simulate_into(sched, config, rng, trace);
  return trace;
}

CompletionSummary summarize_completion(const Schedule& sched,
                                       MachineKind machine, std::size_t runs,
                                       Rng& rng) {
  ScratchVec<Time> durations;
  const auto envelope = [&](SamplingMode mode) {
    Time done = 0;
    draw_lanes(sched.instr_dag(), mode, 1, 1, rng, *durations);
    time_lanes<1>(sched, machine, 1,
                  {.durations = durations->data(), .completion = &done});
    return done;
  };
  CompletionSummary out;
  out.min_draw = envelope(SamplingMode::kAllMin);
  out.max_draw = envelope(SamplingMode::kAllMax);
  // The mean folds lane completions in run order, so it is bit-identical
  // to a serial loop over the same rng.
  double total = 0;
  for (std::size_t r = 0; r < runs; r += kLanes) {
    const std::size_t lanes = std::min(kLanes, runs - r);
    draw_lanes(sched.instr_dag(), SamplingMode::kUniform, lanes, kLanes, rng,
               *durations);
    Time done[kLanes] = {};
    time_lanes<kLanes>(sched, machine, lanes,
                       {.durations = durations->data(), .completion = done});
    for (std::size_t w = 0; w < lanes; ++w)
      total += static_cast<double>(done[w]);
  }
  out.mean = runs ? total / static_cast<double>(runs) : 0.0;
  return out;
}

}  // namespace bm
