// Scale extension — mega-DAG stress: drives the streaming CSR dag build,
// the fused labeling sweeps, the bucket list-order passes, and the VLIW
// packer on a million-statement block, three orders of magnitude past any
// paper workload. Artifact metrics are deterministic (structure sums and
// digests); wall-clock phase timings print to the console only, so reruns
// and --jobs variations stay byte-identical.
#include <chrono>

#include "exp/registry.hpp"
#include "graph/instr_dag.hpp"
#include "harness/report.hpp"
#include "sched/labels.hpp"
#include "support/rng.hpp"
#include "vliw/vliw.hpp"

namespace bm {
namespace {

/// Deterministic mega-block builder. A direct tuple stream rather than the
/// §2.2 expression generator (whose statement trees would dominate the
/// runtime): operands are drawn from a 64-tuple recency window so the dag
/// stays deep with bounded degree, and stores recycle a small variable set
/// so memory edges (flow/anti/output) appear at scale too.
Program build_mega_program(std::size_t stmts, std::uint32_t vars, Rng& rng) {
  Program p(vars);
  std::uint32_t uid = 0;
  auto var = [&] {
    return static_cast<VarId>(
        rng.uniform(0, static_cast<std::int64_t>(vars) - 1));
  };
  for (std::size_t i = 0; i < stmts; ++i) {
    const std::int64_t roll = i < 2 ? 0 : rng.uniform(0, 9);
    if (roll < 2) {
      p.append(Tuple::load(uid++, var()));
    } else if (roll < 9) {
      auto recent = [&] {
        const auto hi = static_cast<std::int64_t>(i) - 1;
        const std::int64_t lo = hi >= 64 ? hi - 63 : 0;
        return Operand::tuple(static_cast<TupleId>(rng.uniform(lo, hi)));
      };
      const Opcode op = roll % 2 == 0 ? Opcode::kAdd : Opcode::kMul;
      p.append(Tuple::binary(uid++, op, recent(), recent()));
    } else {
      const auto hi = static_cast<std::int64_t>(i) - 1;
      const std::int64_t lo = hi >= 64 ? hi - 63 : 0;
      p.append(Tuple::store(
          uid++, var(),
          Operand::tuple(static_cast<TupleId>(rng.uniform(lo, hi)))));
    }
  }
  return p;
}

Experiment make_stress_megadag() {
  Experiment e;
  e.name = "stress_megadag";
  e.title = "mega-DAG stress — streaming CSR build and labeling at scale";
  e.paper_ref = "§4.1 (scale extension; no paper figure)";
  e.workload = "one directly built block of --stmts tuples (default 10^6)";
  e.expected =
      "Expected shape: build, labeling, and both list orders complete in "
      "seconds on a million-statement block — the dag core is streaming "
      "CSR construction plus fused straight-line label sweeps, so the cost "
      "is linear in edges. Structure metrics (sync edges, critical path, "
      "digests) are deterministic per seed.";
  e.flags = common_flags(1);
  e.flags.push_back(int_flag("stmts", 1000000, "tuples in the block"));
  e.flags.push_back(int_flag("vars", 64, "variables the stores recycle"));
  e.flags.push_back(int_flag("procs", 8, "VLIW functional units"));
  e.run = [](ExpContext& ctx) {
    const RunOptions opt = ctx.run_options();
    const std::size_t stmts = ctx.get_size("stmts");
    const std::uint32_t vars = ctx.get_u32("vars");
    const std::size_t procs = ctx.get_size("procs");
    BM_REQUIRE(stmts >= 2 && vars >= 1, "need at least 2 stmts and 1 var");

    using Clock = std::chrono::steady_clock;
    auto ms = [](Clock::time_point a, Clock::time_point b) {
      return std::chrono::duration<double, std::milli>(b - a).count();
    };

    TextTable table({"seed", "stmts", "sync edges", "t_cr", "vliw makespan",
                     "gen ms", "dag ms", "order ms", "vliw ms"});
    const std::string path = ctx.artifacts().csv_path(ctx.exp().csv_stem);
    CsvWriter csv(path);
    csv.write_row({"seed", "stmts", "sync_edges", "tcr_min", "tcr_max",
                   "h_max_sum", "order_digest", "vliw_makespan"});
    // The one experiment that stays serial whatever --jobs says: it times
    // its own phases, and concurrent mega-DAGs would contend for cores and
    // memory bandwidth and distort those times.
    for (std::size_t i = 0; i < opt.seeds; ++i) {
      Rng rng = benchmark_rng(opt.base_seed, i);
      const auto t0 = Clock::now();
      const Program prog = build_mega_program(stmts, vars, rng);
      const auto t1 = Clock::now();
      const InstrDag dag = InstrDag::build(prog, TimingModel::table1());
      const auto t2 = Clock::now();
      // Both ordering policies, digested positionally so any reordering or
      // dropped node changes the value.
      std::uint64_t digest = 1469598103934665603ull;  // FNV-1a
      double h_max_sum = 0;
      std::vector<NodeId> order;
      for (const OrderingPolicy pol :
           {OrderingPolicy::kMaxThenMin, OrderingPolicy::kMinThenMax}) {
        make_list_order_into(dag, pol, order);
        for (const NodeId v : order) {
          digest = (digest ^ v) * 1099511628211ull;
        }
      }
      for (NodeId v = 0; v < dag.num_instructions(); ++v)
        h_max_sum += static_cast<double>(dag.h_max(v));
      const auto t3 = Clock::now();
      const VliwSchedule vliw =
          schedule_vliw(dag, procs, OrderingPolicy::kMaxThenMin);
      const auto t4 = Clock::now();

      const std::string seed = std::to_string(i);
      table.add_row({seed, std::to_string(stmts),
                     std::to_string(dag.implied_syncs()),
                     dag.critical_path().to_string(),
                     std::to_string(vliw.makespan), TextTable::num(ms(t0, t1), 1),
                     TextTable::num(ms(t1, t2), 1), TextTable::num(ms(t2, t3), 1),
                     TextTable::num(ms(t3, t4), 1)});
      // Digest folded to 32 bits: metric values are doubles, and 2^32 keeps
      // the integer exactly representable.
      const double digest32 = static_cast<double>(digest & 0xFFFFFFFFull);
      csv.write_row({seed, std::to_string(stmts),
                     std::to_string(dag.implied_syncs()),
                     std::to_string(dag.critical_path().min),
                     std::to_string(dag.critical_path().max),
                     std::to_string(h_max_sum), std::to_string(digest32),
                     std::to_string(vliw.makespan)});
      ctx.artifacts().metric("seed" + seed + ".sync_edges",
                             static_cast<double>(dag.implied_syncs()));
      ctx.artifacts().metric("seed" + seed + ".tcr_max",
                             static_cast<double>(dag.critical_path().max));
      ctx.artifacts().metric("seed" + seed + ".order_digest", digest32);
      ctx.artifacts().metric("seed" + seed + ".vliw_makespan",
                             static_cast<double>(vliw.makespan));
    }
    table.render(ctx.out());
    ctx.out() << "(series written to " << path << ")\n";
  };
  return e;
}

BM_REGISTER_EXPERIMENT(make_stress_megadag)

}  // namespace
}  // namespace bm
