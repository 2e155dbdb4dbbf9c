// Table 1: instruction frequencies and execution-time ranges, measured on
// a large corpus of synthetic blocks against the published
// Alexander–Wortman frequencies.
#include <array>

#include "codegen/synthesize.hpp"
#include "exp/registry.hpp"
#include "harness/report.hpp"

namespace bm {
namespace {

Experiment make_table1() {
  Experiment e;
  e.name = "table1";
  e.title = "Table 1 — instruction mix and execution-time ranges";
  e.paper_ref = "Table 1 (§2.1)";
  e.workload = "40 statements, 10 variables, large corpus";
  e.expected =
      "Check: source frequencies must match Table 1 within sampling noise; "
      "Load/Store rates are emergent.";
  e.flags = common_flags(2000);
  e.flags.push_back(int_flag("statements", 40, "statements per block"));
  e.flags.push_back(int_flag("variables", 10, "variables per block"));
  e.csv_stem = "table1_instruction_mix";
  e.run = [](ExpContext& ctx) {
    const RunOptions opt = ctx.run_options();
    const GeneratorConfig gen = ctx.generator_config();

    // Per-opcode counts: source statement operations and optimized tuple
    // opcodes, one pair per seed, summed in seed order.
    using OpCounts = std::array<std::size_t, kNumOpcodes>;
    struct SeedResult {
      OpCounts source{}, emitted{};
    };
    const std::vector<SeedResult> results =
        fan_out_seeds(opt, opt.seeds, [&](std::size_t i) {
          Rng rng = benchmark_rng(opt.base_seed, i);
          const SynthesisResult r = synthesize_benchmark(gen, rng);
          SeedResult out;
          for (const Assign& s : r.statements)
            ++out.source[static_cast<std::size_t>(s.op)];
          for (const Tuple& t : r.program.tuples())
            ++out.emitted[static_cast<std::size_t>(t.op)];
          return out;
        });
    OpCounts source_ops{}, emitted_ops{};
    std::size_t source_total = 0, emitted_total = 0;
    for (const SeedResult& r : results) {
      for (std::size_t op = 0; op < kNumOpcodes; ++op) {
        source_ops[op] += r.source[op];
        emitted_ops[op] += r.emitted[op];
        source_total += r.source[op];
        emitted_total += r.emitted[op];
      }
    }

    const TimingModel tm = TimingModel::table1();
    TextTable table({"Instruction", "Table-1 freq", "source freq",
                     "optimized-tuple freq", "Min. Time", "Max. Time"});
    const std::string path = ctx.artifacts().csv_path(ctx.exp().csv_stem);
    CsvWriter csv(path);
    csv.write_row({"instruction", "table1_freq_pct", "source_freq_pct",
                   "tuple_freq_pct", "min_time", "max_time"});
    for (Opcode op : all_opcodes()) {
      const double expected = opcode_frequency_percent(op);
      const auto idx = static_cast<std::size_t>(op);
      const double source = 100.0 * static_cast<double>(source_ops[idx]) /
                            static_cast<double>(source_total);
      const double emitted = 100.0 * static_cast<double>(emitted_ops[idx]) /
                             static_cast<double>(emitted_total);
      table.add_row(
          {std::string(opcode_name(op)),
           is_binary_op(op) ? TextTable::num(expected, 1) + "%" : "—",
           is_binary_op(op) ? TextTable::num(source, 1) + "%" : "—",
           TextTable::num(emitted, 1) + "%", std::to_string(tm.range(op).min),
           std::to_string(tm.range(op).max)});
      csv.write_row({std::string(opcode_name(op)),
                     is_binary_op(op) ? std::to_string(expected) : "",
                     is_binary_op(op) ? std::to_string(source) : "",
                     std::to_string(emitted), std::to_string(tm.range(op).min),
                     std::to_string(tm.range(op).max)});
      if (is_binary_op(op))
        ctx.artifacts().metric("source_freq_pct." +
                                   std::string(opcode_name(op)),
                               source);
    }
    table.render(ctx.out());
    ctx.out() << "(mix written to " << path << ")\n"
              << "\nSource operations drawn: " << source_total
              << "; optimized tuples: " << emitted_total << ".\n";
    ctx.artifacts().metric("source_operations",
                           static_cast<double>(source_total));
    ctx.artifacts().metric("optimized_tuples",
                           static_cast<double>(emitted_total));
  };
  return e;
}

BM_REGISTER_EXPERIMENT(make_table1)

}  // namespace
}  // namespace bm
