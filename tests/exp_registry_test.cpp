// End-to-end coverage for the experiment registry: every registered
// experiment must complete at --seeds 2 --jobs 2, write CSV + JSON
// artifacts that parse, and produce byte-identical artifacts for
// --jobs 1 vs --jobs 2 (seed fan-out must not leak into results), and for
// --jobs 1 vs --jobs 3 at 7 seeds where experiments flatten their sweeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "exp/registry.hpp"
#include "obs/obs.hpp"
#include "support/assert.hpp"

namespace bm {
namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Minimal JSON validity checker (values, objects, arrays, strings with
// escapes, numbers incl. exponents, literals). Parse-only: the artifact
// contract is "machine-readable", not any particular schema.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-'))
      ++pos_;
    return pos_ > start;
  }

  bool literal(const std::string& lit) {
    if (s_.compare(pos_, lit.size(), lit) != 0) return false;
    pos_ += lit.size();
    return true;
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r'))
      ++pos_;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// Runs `exp` into `dir` with the table output swallowed (the registry
// sweep prints ~17 experiments' worth of tables otherwise).
void run_quiet(const Experiment& exp, const std::string& jobs,
               const fs::path& dir, const std::string& seeds = "2") {
  const CliFlags flags(
      {"--seeds", seeds, "--jobs", jobs, "--out-dir", dir.string()});
  flags.validate(exp.flags);
  std::ostringstream sink;
  // The table renderers write to std::cout; swallow that as well.
  std::streambuf* saved = std::cout.rdbuf(sink.rdbuf());
  try {
    run_experiment(exp, flags, dir.string(), sink);
  } catch (...) {
    std::cout.rdbuf(saved);
    throw;
  }
  std::cout.rdbuf(saved);
  EXPECT_FALSE(sink.str().empty()) << exp.name << ": no banner output";
}

// Pulls the numeric value of `"key": <number>` out of a manifest, or `def`
// when the key is absent. Good enough for the flat metrics block the
// ArtifactWriter emits (keys are unique across the file).
double manifest_metric(const std::string& json, const std::string& key,
                       double def) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t at = json.find(needle);
  if (at == std::string::npos) return def;
  return std::strtod(json.c_str() + at + needle.size(), nullptr);
}

// Every file in `a` must exist in `b` with the same bytes, and vice versa.
void expect_same_artifacts(const fs::path& a, const fs::path& b) {
  std::map<std::string, fs::path> files_a, files_b;
  for (const auto& e : fs::directory_iterator(a))
    files_a[e.path().filename().string()] = e.path();
  for (const auto& e : fs::directory_iterator(b))
    files_b[e.path().filename().string()] = e.path();
  ASSERT_EQ(files_a.size(), files_b.size());
  for (const auto& [name, path_a] : files_a) {
    ASSERT_TRUE(files_b.count(name)) << name << " only under " << a;
    EXPECT_EQ(slurp(path_a), slurp(files_b[name]))
        << name << " differs between " << a << " and " << b;
  }
}

fs::path temp_root() {
  const fs::path root =
      fs::temp_directory_path() / "bm_exp_registry_test";
  fs::remove_all(root);
  fs::create_directories(root);
  return root;
}

TEST(ExperimentRegistry, HasAllExperiments) {
  const auto all = ExperimentRegistry::instance().all();
  EXPECT_GE(all.size(), 17u);
  std::set<std::string> names;
  for (const Experiment* e : all) {
    EXPECT_TRUE(names.insert(e->name).second) << "duplicate " << e->name;
    EXPECT_FALSE(e->title.empty()) << e->name;
    EXPECT_FALSE(e->paper_ref.empty()) << e->name;
    EXPECT_FALSE(e->expected.empty()) << e->name;
    EXPECT_TRUE(static_cast<bool>(e->run)) << e->name;
    // Every experiment carries the common flags so bmrun's shared
    // binding layer (seeds/jobs/out-dir) works uniformly.
    for (const char* f : {"seeds", "base-seed", "jobs", "out-dir"})
      EXPECT_NO_THROW(e->flag(f)) << e->name << " missing --" << f;
  }
  EXPECT_TRUE(names.count("fig14"));
  EXPECT_TRUE(names.count("table1"));
  EXPECT_TRUE(names.count("headline"));
}

TEST(ExperimentRegistry, FindAndSortedNames) {
  auto& reg = ExperimentRegistry::instance();
  EXPECT_NE(reg.find("fig15"), nullptr);
  EXPECT_EQ(reg.find("fig99"), nullptr);
  const auto names = reg.names();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(ExperimentRegistry, ClosestNameSuggestsNearMisses) {
  auto& reg = ExperimentRegistry::instance();
  EXPECT_EQ(reg.closest_name("headlin"), "headline");
  EXPECT_EQ(reg.closest_name("tabel1"), "table1");
  EXPECT_EQ(reg.closest_name("insertion-compare"), "insertion_compare");
  // Distance ties resolve to the lexicographically smallest candidate.
  EXPECT_EQ(reg.closest_name("fig19"), "fig14");
  // Exact names are their own best match.
  EXPECT_EQ(reg.closest_name("fig15"), "fig15");
}

TEST(ExperimentRegistry, DuplicateNameRejected) {
  Experiment dup;
  dup.name = "fig14";
  EXPECT_THROW(ExperimentRegistry::instance().add(dup), Error);
}

// Every registered experiment must survive `--verify`: the static race
// detector re-derives the safety of every schedule the run produces, and a
// single verifier error aborts run_point with a hard failure. This is the
// registry-wide soundness net for the scheduler (both insertion policies
// are exercised — insertion_compare and the ablations run each policy, and
// the harness verifies every schedule they produce).
TEST(ExperimentRegistry, EveryExperimentPassesVerification) {
  const fs::path root = temp_root();
  for (const Experiment* exp : ExperimentRegistry::instance().all()) {
    SCOPED_TRACE(exp->name);
    const fs::path dir = root / exp->name / "verify";
    const CliFlags flags({"--seeds", "2", "--verify", "true", "--out-dir",
                          dir.string()});
    ASSERT_NO_THROW(
        flags.validate(exp->flags, {bool_flag("verify", false, "")}));
    std::ostringstream sink;
    std::streambuf* saved = std::cout.rdbuf(sink.rdbuf());
    try {
      run_experiment(*exp, flags, dir.string(), sink);
    } catch (...) {
      std::cout.rdbuf(saved);
      FAIL() << exp->name << ": --verify run threw (schedule failed "
             << "verification)";
    }
    std::cout.rdbuf(saved);
#if BM_OBS_ENABLED
    const std::string json = slurp(dir / (exp->name + ".json"));
    const double verified = manifest_metric(json, "obs.verify.schedules", 0);
    // These schedule outside run_point; --verify must still reach every
    // schedule they produce.
    if (exp->name == "control_flow" || exp->name == "utilization")
      EXPECT_GT(verified, 0);
    if (verified > 0) {
      // Zero-valued counters are dropped from the manifest delta, so an
      // absent key means zero races/errors — which is exactly the pass.
      EXPECT_EQ(manifest_metric(json, "obs.verify.races", 0), 0)
          << exp->name;
      EXPECT_EQ(manifest_metric(json, "obs.verify.errors", 0), 0)
          << exp->name;
      EXPECT_GT(manifest_metric(json, "obs.verify.edges_checked", 0), 0)
          << exp->name;
    }
#endif
  }
  fs::remove_all(root);
}

// The heavyweight sweep: run everything, check artifacts, compare jobs.
TEST(ExperimentRegistry, EveryExperimentRunsAndArtifactsAreDeterministic) {
  const fs::path root = temp_root();
  for (const Experiment* exp : ExperimentRegistry::instance().all()) {
    SCOPED_TRACE(exp->name);
    const fs::path dir_a = root / exp->name / "jobs2";
    const fs::path dir_b = root / exp->name / "jobs1";
    ASSERT_NO_THROW(run_quiet(*exp, "2", dir_a));

    // (b) CSV + JSON artifacts exist and parse.
    const std::string stem =
        exp->csv_stem.empty() ? exp->name : exp->csv_stem;
    EXPECT_TRUE(fs::exists(dir_a / (stem + ".csv")))
        << "missing " << stem << ".csv";
    const fs::path json = dir_a / (exp->name + ".json");
    ASSERT_TRUE(fs::exists(json));
    const std::string json_text = slurp(json);
    EXPECT_TRUE(JsonChecker(json_text).valid())
        << exp->name << ".json is not valid JSON:\n" << json_text;
    EXPECT_NE(json_text.find("\"experiment\": \"" + exp->name + "\""),
              std::string::npos);

#if BM_OBS_ENABLED
    // (b') The metrics block carries the run's observability counters.
    EXPECT_NE(json_text.find("\"obs."), std::string::npos)
        << exp->name << ": manifest has no obs.* metrics";
    // Counter identity: every inserted barrier was placed by exactly one
    // insertion policy (repair barriers are counted as conservative-path
    // inserts by the repair sweep's policy tag).
    const double schedules =
        manifest_metric(json_text, "obs.sched.schedules", 0);
    if (schedules > 0) {
      const double conservative =
          manifest_metric(json_text, "obs.sched.insert.conservative", 0);
      const double optimal =
          manifest_metric(json_text, "obs.sched.insert.optimal", 0);
      const double inserted =
          manifest_metric(json_text, "obs.sched.barriers_inserted", 0);
      EXPECT_EQ(conservative + optimal, inserted)
          << exp->name << ": insertion-policy counters do not add up";
    }
    if (exp->name == "insertion_compare") {
      // §4.4: the conservative algorithm may only over-synchronize, so on
      // the same (seeded, deterministic) workload it inserts at least as
      // many barriers as the optimal algorithm.
      const double conservative =
          manifest_metric(json_text, "obs.sched.insert.conservative", -1);
      const double optimal =
          manifest_metric(json_text, "obs.sched.insert.optimal", -1);
      EXPECT_GT(conservative, 0);
      EXPECT_GT(optimal, 0);
      EXPECT_GE(conservative, optimal);
    }
    if (exp->name == "fig18") {
      // The simulator ran and attributed stall time to fired barriers.
      EXPECT_GT(manifest_metric(json_text, "obs.sim.runs", 0), 0);
      EXPECT_GT(manifest_metric(json_text, "obs.sim.barriers_fired", 0), 0);
      EXPECT_EQ(
          manifest_metric(json_text, "obs.sim.barrier_stall.sum", -1),
          manifest_metric(json_text, "obs.sim.stall_cycles", -2))
          << "histogram sum and stall-cycle counter disagree";
    }
#endif

    // Every CSV in the dir: header plus at least one data row, with a
    // consistent column count.
    for (const auto& entry : fs::directory_iterator(dir_a)) {
      if (entry.path().extension() != ".csv") continue;
      std::ifstream in(entry.path());
      std::string line;
      std::size_t cols = 0, rows = 0;
      while (std::getline(in, line)) {
        const std::size_t n =
            static_cast<std::size_t>(
                std::count(line.begin(), line.end(), ',')) + 1;
        if (rows == 0)
          cols = n;
        else
          EXPECT_EQ(n, cols) << entry.path() << " row " << rows;
        ++rows;
      }
      EXPECT_GE(rows, 2u) << entry.path() << ": header only";
    }

    // (c) --jobs 1 must reproduce --jobs 2 byte for byte.
    ASSERT_NO_THROW(run_quiet(*exp, "1", dir_b));
    expect_same_artifacts(dir_a, dir_b);
  }
  fs::remove_all(root);
}

// The experiments with hand-written fan-outs, at a seed count no job count
// here divides: 7 seeds over 3 workers gives every worker a ragged share,
// and where a sweep is flattened into (point, seed) tasks the split
// crosses point boundaries mid-worker.
TEST(ExperimentRegistry, FlattenedFanOutIsByteIdenticalAtAwkwardShapes) {
  const fs::path root = temp_root();
  for (const char* name :
       {"control_flow", "conventional_mimd", "utilization", "table1"}) {
    SCOPED_TRACE(name);
    const Experiment* exp = ExperimentRegistry::instance().find(name);
    ASSERT_NE(exp, nullptr);
    const fs::path dir_a = root / name / "jobs3";
    const fs::path dir_b = root / name / "jobs1";
    ASSERT_NO_THROW(run_quiet(*exp, "3", dir_a, "7"));
    ASSERT_NO_THROW(run_quiet(*exp, "1", dir_b, "7"));
    expect_same_artifacts(dir_a, dir_b);
  }
  fs::remove_all(root);
}

}  // namespace
}  // namespace bm
