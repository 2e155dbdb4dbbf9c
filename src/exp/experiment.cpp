#include "exp/experiment.hpp"

#include <cmath>
#include <cstdlib>
#include <ostream>

#include "harness/report.hpp"
#include "obs/obs.hpp"
#include "support/assert.hpp"

namespace bm {

std::string Sweep::label(std::size_t i) const {
  BM_REQUIRE(i < values.size(), "sweep index out of range");
  const double v = values[i];
  if (v == std::floor(v) && std::abs(v) < 1e15)
    return std::to_string(static_cast<long long>(v));
  return TextTable::num(v, 1);
}

const FlagSpec& Experiment::flag(const std::string& flag_name) const {
  for (const FlagSpec& s : flags)
    if (s.name == flag_name) return s;
  throw Error("experiment " + name + " does not declare flag --" + flag_name);
}

const Sweep& Experiment::sweep(const std::string& axis) const {
  for (const Sweep& s : sweeps)
    if (s.axis == axis) return s;
  throw Error("experiment " + name + " has no sweep axis '" + axis + "'");
}

std::vector<FlagSpec> common_flags(std::size_t default_seeds) {
  return {
      int_flag("seeds", static_cast<std::int64_t>(default_seeds),
               "benchmarks per parameter point"),
      int_flag("base-seed", 1990, "root of the per-benchmark RNG streams"),
      string_flag("jobs", "1",
                  "seed fan-out workers (0/auto = hardware threads); "
                  "results are bit-identical for every value"),
      string_flag("out-dir", "out", "artifact directory (CSV + JSON)"),
  };
}

ExpContext::ExpContext(const Experiment& exp, const CliFlags& flags,
                       ArtifactWriter& artifacts, std::ostream& os)
    : exp_(exp), flags_(flags), artifacts_(artifacts), os_(os) {}

const FlagSpec& ExpContext::spec(const std::string& name) const {
  return exp_.flag(name);
}

bool ExpContext::declared(const std::string& name) const {
  for (const FlagSpec& s : exp_.flags)
    if (s.name == name) return true;
  return false;
}

std::int64_t ExpContext::get_int(const std::string& name) const {
  const FlagSpec& s = spec(name);
  return flags_.get_int(name, std::strtoll(s.def.c_str(), nullptr, 10));
}

std::size_t ExpContext::get_size(const std::string& name) const {
  const std::int64_t v = get_int(name);
  BM_REQUIRE(v >= 0, "flag --" + name + " must be >= 0");
  return static_cast<std::size_t>(v);
}

std::uint32_t ExpContext::get_u32(const std::string& name) const {
  const std::int64_t v = get_int(name);
  BM_REQUIRE(v >= 0, "flag --" + name + " must be >= 0");
  return static_cast<std::uint32_t>(v);
}

double ExpContext::get_double(const std::string& name) const {
  const FlagSpec& s = spec(name);
  return flags_.get_double(name, std::strtod(s.def.c_str(), nullptr));
}

bool ExpContext::get_bool(const std::string& name) const {
  const FlagSpec& s = spec(name);
  return flags_.get_bool(name, s.def == "true");
}

std::string ExpContext::get(const std::string& name) const {
  return flags_.get(name, spec(name).def);
}

RunOptions ExpContext::run_options() const {
  RunOptions opt;
  opt.seeds = get_size("seeds");
  opt.base_seed = static_cast<std::uint64_t>(get_int("base-seed"));
  opt.jobs = flags_.get_jobs(1);
  if (declared("sim-runs")) opt.sim_runs = get_size("sim-runs");
  // --verify is a driver flag (validated by bmrun, not per-experiment
  // schemas), so it is read directly rather than through the declared specs.
  opt.verify = flags_.get_bool("verify", false);
  return opt;
}

GeneratorConfig ExpContext::generator_config() const {
  GeneratorConfig gen;
  if (declared("statements")) gen.num_statements = get_u32("statements");
  if (declared("variables")) gen.num_variables = get_u32("variables");
  return gen;
}

SchedulerConfig ExpContext::scheduler_config() const {
  SchedulerConfig cfg;
  if (declared("procs")) cfg.num_procs = get_size("procs");
  return cfg;
}

void run_experiment(const Experiment& exp, const CliFlags& flags,
                    const std::string& out_dir, std::ostream& os) {
  BM_REQUIRE(exp.run != nullptr, "experiment " + exp.name + " has no body");
  ArtifactWriter artifacts(out_dir, exp.name);
  ExpContext ctx(exp, flags, artifacts, os);
  const RunOptions opt = ctx.run_options();
  print_bench_header(exp.title, exp.paper_ref, exp.workload, opt);
  // Attribute registry deltas to this run: everything the body's pipeline
  // counts (insertion decisions, ψ-cache traffic, simulator stalls) lands
  // in the manifest's metrics block under an "obs." prefix. Counters hold
  // only deterministic quantities, so the manifest stays byte-identical
  // across --jobs values (wall time goes to the trace, never in here).
  // "mem."-prefixed counters (scratch-pool misses/grows) are excluded: pools
  // are thread-local, so their totals depend on the worker count. The
  // "serve-metrics." gauge namespace (bmserve wall-clock telemetry,
  // serve/telemetry.hpp) is excluded for the same reason.
  const obs::Snapshot before = obs::snapshot();
  {
    BM_OBS_SPAN(exp_span, "exp:" + exp.name, "exp");
    exp.run(ctx);
  }
  const obs::Snapshot used = obs::delta(before, obs::snapshot());
  for (const obs::Snapshot::Entry& e : used.entries) {
    if (e.key.rfind("mem.", 0) == 0) continue;
    if (e.key.rfind("serve-metrics.", 0) == 0) continue;
    artifacts.metric("obs." + e.key, e.value);
  }
  if (!exp.expected.empty()) os << '\n' << exp.expected << '\n';
  // The JSON result deliberately omits the worker count: a rerun with a
  // different --jobs must be byte-identical.
  artifacts.write_json({
      {"title", exp.title},
      {"paper_ref", exp.paper_ref},
      {"workload", exp.workload},
      {"seeds", std::to_string(opt.seeds)},
      {"base_seed", std::to_string(opt.base_seed)},
  });
  os << "(result written to " << out_dir << '/' << exp.name << ".json)\n";
}

}  // namespace bm
