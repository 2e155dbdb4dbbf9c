// Live serving telemetry (serve/telemetry.hpp + the ServeCore wiring):
//  - the `stats v1` verb answers a parseable JSON snapshot whose totals
//    partition received = ok + rejected + cancelled + errors + inflight;
//  - counters are monotonic across polls;
//  - latency quantiles, per-phase breakdowns, the cache hit ratio and the
//    front-end memo counts are internally consistent (BM_OBS builds);
//  - the JSONL access log gets exactly one parseable line per answered
//    request under concurrent load, and rotates by size;
//  - requests over the slow threshold emit standalone Perfetto traces,
//    bounded by slow_trace_max.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <unistd.h>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "serve/core.hpp"
#include "support/json.hpp"

namespace bm {
namespace {

namespace fs = std::filesystem;
using namespace bm::serve;

Request synth_request(std::uint64_t id, std::size_t index) {
  Request req;
  req.id = id;
  req.verb = Verb::kSynth;
  req.base_seed = 1990;
  req.index = index;
  return req;
}

json::Value stats_snapshot(ServeCore& core) {
  Request req;
  req.id = 999999;
  req.verb = Verb::kStats;
  const Response resp = core.handle(req);
  EXPECT_EQ(resp.status, Status::kOk);
  return json::parse(resp.body);
}

/// RAII scratch directory under the system temp root.
struct TempDir {
  fs::path path;
  TempDir() : path(fs::temp_directory_path() /
                   ("bm_serve_telemetry_" +
                    std::to_string(::getpid()) + "_" +
                    std::to_string(counter()++))) {
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  static int& counter() {
    static int c = 0;
    return c;
  }
};

std::vector<json::Value> read_jsonl(const fs::path& p) {
  std::ifstream in(p);
  std::vector<json::Value> lines;
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) lines.push_back(json::parse(line));
  return lines;
}

TEST(ServeTelemetry, StatsV1ParsesAndTotalsPartition) {
  CoreConfig cfg;
  cfg.workers = 2;
  ServeCore core(cfg);
  for (std::size_t i = 0; i < 12; ++i)
    ASSERT_EQ(core.handle(synth_request(i + 1, i % 3)).status, Status::kOk);

  const json::Value snap = stats_snapshot(core);
  EXPECT_EQ(snap.str("", "stats"), "v1");
  EXPECT_GT(snap.num(0, "uptime_us"), 0.0);
  EXPECT_EQ(snap.num(-1, "workers"), 2.0);

  // The stats request itself is inflight while it computes the snapshot.
  const double received = snap.num(-1, "totals", "received");
  const double resolved =
      snap.num(-1, "totals", "ok") + snap.num(-1, "totals", "rejected") +
      snap.num(-1, "totals", "cancelled") + snap.num(-1, "totals", "errors");
  EXPECT_EQ(received, resolved + snap.num(-1, "inflight"));
  EXPECT_EQ(received, 13.0);  // 12 synth + this stats poll

  // 3 distinct seeds cold, 9 hits.
  EXPECT_EQ(snap.num(-1, "cache", "misses"), 3.0);
  EXPECT_EQ(snap.num(-1, "cache", "hits"), 9.0);
  EXPECT_NEAR(snap.num(-1, "cache", "hit_ratio"), 0.75, 1e-9);
  // The front-end memo admits each seed on its first cache hit (requests
  // 3..5) and answers the 6 repeats after that.
  EXPECT_EQ(snap.num(-1, "memo", "misses"), 6.0);
  EXPECT_EQ(snap.num(-1, "memo", "hits"), 6.0);
  EXPECT_EQ(snap.num(-1, "memo", "admissions"), 3.0);
  EXPECT_EQ(snap.num(-1, "memo", "evictions"), 0.0);
  EXPECT_EQ(snap.num(-1, "memo", "entries"), 3.0);
  EXPECT_GT(snap.num(-1, "memo", "bytes"), 0.0);

#if BM_OBS_ENABLED
  // 12 answered requests before this poll (the poll is still inflight).
  EXPECT_EQ(snap.num(-1, "latency", "count"), 12.0);
  const double p50 = snap.num(-1, "latency", "p50_us");
  const double p99 = snap.num(-1, "latency", "p99_us");
  EXPECT_GT(p50, 0.0);
  EXPECT_LE(p50, p99);
  EXPECT_LE(p99, snap.num(-1, "latency", "max_us"));
  // Phase histograms saw the scheduling stages: the front end ran for the
  // 6 memo misses, dag build + scheduling only for the 3 cold requests.
  EXPECT_EQ(snap.num(-1, "phases", "synthesize", "count"), 6.0);
  EXPECT_EQ(snap.num(-1, "phases", "compile", "count"), 0.0);
  EXPECT_EQ(snap.num(-1, "phases", "fingerprint", "count"), 6.0);
  EXPECT_EQ(snap.num(-1, "phases", "cold_schedule", "count"), 3.0);
  EXPECT_EQ(snap.num(-1, "phases", "cache_lookup", "count"), 12.0);
  EXPECT_GT(snap.num(-1, "window", "quantiles", "count"), 0.0);
#endif
}

TEST(ServeTelemetry, CountersMonotonicAcrossPolls) {
  CoreConfig cfg;
  cfg.workers = 2;
  ServeCore core(cfg);

  double last_received = -1, last_ok = -1;
  for (int round = 0; round < 3; ++round) {
    for (std::size_t i = 0; i < 5; ++i)
      core.handle(synth_request(100 * round + i, i % 2));
    const json::Value snap = stats_snapshot(core);
    EXPECT_GT(snap.num(-1, "totals", "received"), last_received);
    EXPECT_GT(snap.num(-1, "totals", "ok"), last_ok);
    last_received = snap.num(-1, "totals", "received");
    last_ok = snap.num(-1, "totals", "ok");
  }
}

TEST(ServeTelemetry, AccessLogOneParseableLinePerRequestUnderLoad) {
  TempDir dir;
  const fs::path log = dir.path / "access.jsonl";
  constexpr std::size_t kRequests = 64;
  {
    CoreConfig cfg;
    cfg.workers = 4;
    cfg.telemetry.access_log_path = log.string();
    ServeCore core(cfg);
    std::vector<CancelToken> tokens;
    for (std::size_t i = 0; i < kRequests; ++i)
      tokens.push_back(core.submit(synth_request(i + 1, i % 4),
                                   [](const Response&) {}));
    core.drain();
  }

  const std::vector<json::Value> lines = read_jsonl(log);
  ASSERT_EQ(lines.size(), kRequests);
  std::set<std::uint64_t> rids;
  for (const json::Value& l : lines) {
    EXPECT_EQ(l.str("", "status"), "ok");
    EXPECT_EQ(l.str("", "verb"), "synth");
    EXPECT_GT(l.num(0, "rid"), 0.0);
    rids.insert(static_cast<std::uint64_t>(l.num(0, "rid")));
    const std::string cache = l.str("", "cache");
    EXPECT_TRUE(cache == "hit" || cache == "miss") << cache;
    EXPECT_EQ(l.str("", "fp").size(), 8u);
  }
  EXPECT_EQ(rids.size(), kRequests);  // rids are unique and monotonic
}

TEST(ServeTelemetry, AccessLogRotatesBySize) {
  TempDir dir;
  const fs::path log = dir.path / "access.jsonl";
  CoreConfig cfg;
  cfg.workers = 2;
  cfg.telemetry.access_log_path = log.string();
  cfg.telemetry.access_log_rotate_bytes = 512;  // a few lines per generation
  ServeCore core(cfg);
  for (std::size_t i = 0; i < 20; ++i)
    core.handle(synth_request(i + 1, i % 2));

  EXPECT_TRUE(fs::exists(log));
  EXPECT_TRUE(fs::exists(dir.path / "access.jsonl.1"));
  const json::Value snap = stats_snapshot(core);
  EXPECT_GT(snap.num(0, "access_log", "rotations"), 0.0);
  EXPECT_TRUE(snap.find("access_log", "enabled") != nullptr);
  // Current generation stays under the bound (one line of slack).
  EXPECT_LE(fs::file_size(log), 512u + 400u);
}

TEST(ServeTelemetry, SlowTracesEmittedAndBounded) {
  TempDir dir;
  CoreConfig cfg;
  cfg.workers = 2;
  cfg.telemetry.slow_trace_us = 1;  // every request is "slow"
  cfg.telemetry.slow_trace_dir = dir.path.string();
  cfg.telemetry.slow_trace_max = 3;
  ServeCore core(cfg);
  for (std::size_t i = 0; i < 10; ++i)
    core.handle(synth_request(i + 1, i % 2));

  std::size_t traces = 0;
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    ++traces;
    std::ifstream in(entry.path());
    std::stringstream ss;
    ss << in.rdbuf();
    const json::Value doc = json::parse(ss.str());
    const json::Value* events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    EXPECT_TRUE(events->is_array());
    // Parent request span + at least one phase span + metadata.
    EXPECT_GE(events->items.size(), 4u);
    bool saw_request_span = false;
    for (const json::Value& e : events->items)
      if (e.str("", "name").rfind("request ", 0) == 0) saw_request_span = true;
    EXPECT_TRUE(saw_request_span);
  }
  EXPECT_EQ(traces, 3u);

  const json::Value snap = stats_snapshot(core);
  EXPECT_EQ(snap.num(0, "slow_traces", "emitted"), 3.0);
  EXPECT_EQ(snap.num(0, "slow_traces", "suppressed"), 7.0);
}

TEST(ServeTelemetry, RejectionsReachTheAccessLog) {
  TempDir dir;
  const fs::path log = dir.path / "access.jsonl";
  CoreConfig cfg;
  cfg.workers = 1;
  cfg.telemetry.access_log_path = log.string();
  ServeCore core(cfg);
  core.drain();  // draining core rejects all submits
  Response seen;
  core.submit(synth_request(7, 0), [&](const Response& r) { seen = r; });
  EXPECT_EQ(seen.status, Status::kRejected);

  const std::vector<json::Value> lines = read_jsonl(log);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].str("", "status"), "rejected");
  EXPECT_EQ(lines[0].num(0, "id"), 7.0);
}

}  // namespace
}  // namespace bm
