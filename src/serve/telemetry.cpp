#include "serve/telemetry.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <vector>

#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "support/assert.hpp"

namespace bm::serve {

namespace {

const char* verb_word(Verb v) {
  switch (v) {
    case Verb::kPing: return "ping";
    case Verb::kSynth: return "synth";
    case Verb::kSchedule: return "schedule";
    case Verb::kStats: return "stats";
  }
  return "ping";
}

const char* status_word(Status s) {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kRejected: return "rejected";
    case Status::kCancelled: return "cancelled";
    case Status::kError: return "error";
  }
  return "error";
}

const char* cache_word(CacheOutcome c) {
  switch (c) {
    case CacheOutcome::kMiss: return "miss";
    case CacheOutcome::kHit: return "hit";
    case CacheOutcome::kBypass: return "bypass";
  }
  return "bypass";
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  out += buf;
}

void append_fixed(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  out += buf;
}

/// `"key":` — every key this layer emits is a plain identifier, so no
/// escaping is ever needed on the key side.
void key(std::string& out, const char* k) {
  out += '"';
  out += k;
  out += "\":";
}

/// One `{count, sum_us, mean_us, p50/p90/p99/max_us}` quantile object.
void append_quantiles(std::string& out, const obs::LatencyBuckets& b) {
  out += '{';
  key(out, "count");
  append_u64(out, b.count);
  out += ',';
  key(out, "sum_us");
  append_u64(out, b.sum);
  out += ',';
  key(out, "mean_us");
  append_fixed(out, b.mean());
  out += ',';
  key(out, "p50_us");
  append_u64(out, b.quantile(0.50));
  out += ',';
  key(out, "p90_us");
  append_u64(out, b.quantile(0.90));
  out += ',';
  key(out, "p99_us");
  append_u64(out, b.quantile(0.99));
  out += ',';
  key(out, "max_us");
  append_u64(out, b.max);
  out += '}';
}

}  // namespace

const char* phase_name(Phase p) {
  switch (p) {
    case Phase::kQueueWait: return "queue_wait";
    case Phase::kSynthesize: return "synthesize";
    case Phase::kCompile: return "compile";
    case Phase::kFingerprint: return "fingerprint";
    case Phase::kCacheLookup: return "cache_lookup";
    case Phase::kColdSchedule: return "cold_schedule";
    case Phase::kVerify: return "verify";
    case Phase::kSerialize: return "serialize";
    case Phase::kWriteBack: return "write_back";
  }
  return "unknown";
}

ServeTelemetry::ServeTelemetry(TelemetryConfig cfg)
    : cfg_(std::move(cfg)),
      epoch_(std::chrono::steady_clock::now()),
      window_(cfg_.window_slot_us) {
  if (!cfg_.access_log_path.empty()) {
    log_ = std::fopen(cfg_.access_log_path.c_str(), "ab");
    BM_REQUIRE(log_ != nullptr,
               "cannot open access log " + cfg_.access_log_path);
    const long at = std::ftell(log_);
    log_bytes_ = at > 0 ? static_cast<std::uint64_t>(at) : 0;
  }
}

ServeTelemetry::~ServeTelemetry() {
  if (log_ != nullptr) std::fclose(log_);
}

std::uint64_t ServeTelemetry::now_us() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

void ServeTelemetry::record(const RequestTiming& t) {
#if BM_OBS_ENABLED
  total_.observe(t.total_us);
  window_.observe(t.admit_us + t.total_us, t.total_us);
  for (std::size_t p = 0; p < kNumPhases; ++p)
    if (t.phases[p].entries > 0) phase_[p].observe(t.phases[p].dur_us);
#endif
  if (log_ != nullptr) append_access_log(t);
  maybe_emit_slow_trace(t);
}

/// One JSONL line per answered request. Fingerprints are truncated to an
/// 8-hex-digit prefix: enough to join against slow traces and server logs,
/// short enough that the log stays grep-friendly.
void ServeTelemetry::append_access_log(const RequestTiming& t) {
  std::string line;
  line.reserve(256);
  line += '{';
  key(line, "rid");
  append_u64(line, t.rid);
  line += ',';
  key(line, "id");
  append_u64(line, t.client_id);
  line += ',';
  key(line, "ts_us");
  append_u64(line, t.admit_us);
  line += ',';
  key(line, "verb");
  line += '"';
  line += verb_word(t.verb);
  line += "\",";
  key(line, "status");
  line += '"';
  line += status_word(t.status);
  line += "\",";
  key(line, "cache");
  line += '"';
  line += cache_word(t.cache);
  line += "\",";
  key(line, "fp");
  line += '"';
  line += t.fingerprint.substr(0, 8);  // hex digits only: no escaping
  line += "\",";
  key(line, "total_us");
  append_u64(line, t.total_us);
  for (std::size_t p = 0; p < kNumPhases; ++p) {
    if (t.phases[p].entries == 0) continue;
    line += ',';
    key(line, phase_name(static_cast<Phase>(p)));
    append_u64(line, t.phases[p].dur_us);
  }
  line += "}\n";

  OrderedLock lock(log_mu_);
  if (log_bytes_ + line.size() > cfg_.access_log_rotate_bytes &&
      log_bytes_ > 0) {
    std::fclose(log_);
    const std::string old = cfg_.access_log_path + ".1";
    std::rename(cfg_.access_log_path.c_str(), old.c_str());
    log_ = std::fopen(cfg_.access_log_path.c_str(), "wb");
    BM_REQUIRE(log_ != nullptr,
               "cannot reopen access log " + cfg_.access_log_path);
    log_bytes_ = 0;
    ++log_rotations_;
  }
  std::fwrite(line.data(), 1, line.size(), log_);
  std::fflush(log_);
  log_bytes_ += line.size();
  ++log_lines_;
}

/// Standalone Perfetto trace for one slow request: a parent `request` span
/// on lane 0 plus one span per touched phase, each on its own named lane
/// so overlapping attribution (cache_lookup accumulates around the
/// front-end phases on a memo miss) renders cleanly. Timestamps are daemon-uptime
/// microseconds, so traces from one run are mutually comparable.
void ServeTelemetry::maybe_emit_slow_trace(const RequestTiming& t) {
  if (cfg_.slow_trace_us == 0 || cfg_.slow_trace_dir.empty()) return;
  if (t.total_us < cfg_.slow_trace_us) return;
  // mo: fast-path pre-check and suppression tally; the authoritative slot
  // claim is the seq_cst fetch_add below, these counters order nothing.
  if (slow_emitted_.load(std::memory_order_relaxed) >= cfg_.slow_trace_max) {
    slow_suppressed_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // Claim a slot first so concurrent slow requests cannot overshoot.
  const std::uint64_t n = slow_emitted_.fetch_add(1);
  if (n >= cfg_.slow_trace_max) {
    slow_emitted_.fetch_sub(1);
    // mo: suppression tally only (see above).
    slow_suppressed_.fetch_add(1, std::memory_order_relaxed);
    return;
  }

  std::vector<obs::TraceEvent> events;
  std::vector<obs::TraceLaneName> lanes;
  obs::TraceEvent root;
  root.name = std::string("request ") + status_word(t.status) + " (" +
              verb_word(t.verb) + ", cache " + cache_word(t.cache) + ")";
  root.cat = "serve";
  root.ts = static_cast<double>(t.admit_us);
  root.dur = static_cast<double>(t.total_us);
  root.tid = 0;
  root.arg_key = "rid";
  root.arg_val = static_cast<double>(t.rid);
  events.push_back(std::move(root));
  lanes.push_back({obs::kWallPid, 0, "request"});
  for (std::size_t p = 0; p < kNumPhases; ++p) {
    const RequestTiming::Slice& s = t.phases[p];
    if (s.entries == 0) continue;
    obs::TraceEvent e;
    e.name = phase_name(static_cast<Phase>(p));
    e.cat = "serve";
    e.ts = static_cast<double>(s.start_us);
    e.dur = static_cast<double>(s.dur_us);
    e.tid = static_cast<std::uint32_t>(p) + 1;
    e.arg_key = "entries";
    e.arg_val = static_cast<double>(s.entries);
    events.push_back(std::move(e));
    lanes.push_back({obs::kWallPid, static_cast<std::uint32_t>(p) + 1,
                     phase_name(static_cast<Phase>(p))});
  }

  const std::string path =
      cfg_.slow_trace_dir + "/slow-req-" + std::to_string(t.rid) +
      ".trace.json";
  std::ofstream os(path, std::ios::binary);
  if (!os.good()) return;  // an unwritable dir must not fail the request
  obs::write_trace_events_json(
      os, std::move(events),
      {{obs::kWallPid, "bmserve slow request " + std::to_string(t.rid)}},
      lanes);
}

std::string ServeTelemetry::stats_json(const CoreTotals& totals) const {
  const std::uint64_t now = now_us();
  const obs::LatencyBuckets all = total_.snapshot();
  const obs::LatencyBuckets win = window_.window(now);
  // mo: inflight gauge; the snapshot is allowed to be momentarily stale.
  const std::uint64_t running = running_.load(std::memory_order_relaxed);
  const std::uint64_t waiting =
      totals.queued > running ? totals.queued - running : 0;
  const std::uint64_t cache_probes = totals.cache.hits + totals.cache.misses;
  const double hit_ratio =
      cache_probes == 0 ? 0.0
                        : static_cast<double>(totals.cache.hits) /
                              static_cast<double>(cache_probes);

  std::string out;
  out.reserve(2048);
  out += "{";
  key(out, "stats");
  out += "\"v1\",";
  key(out, "uptime_us");
  append_u64(out, now);
  out += ',';
  key(out, "workers");
  append_u64(out, totals.workers);
  out += ',';
  key(out, "inflight");
  append_u64(out, totals.queued);
  out += ',';
  key(out, "running");
  append_u64(out, running);
  out += ',';
  key(out, "queue_depth");
  append_u64(out, waiting);
  out += ',';

  key(out, "totals");
  out += '{';
  key(out, "received");
  append_u64(out, totals.received);
  out += ',';
  key(out, "ok");
  append_u64(out, totals.completed);
  out += ',';
  key(out, "rejected");
  append_u64(out, totals.rejected);
  out += ',';
  key(out, "cancelled");
  append_u64(out, totals.cancelled);
  out += ',';
  key(out, "errors");
  append_u64(out, totals.errors);
  out += "},";

  key(out, "cache");
  out += '{';
  key(out, "hits");
  append_u64(out, totals.cache.hits);
  out += ',';
  key(out, "misses");
  append_u64(out, totals.cache.misses);
  out += ',';
  key(out, "collisions");
  append_u64(out, totals.cache.collisions);
  out += ',';
  key(out, "insertions");
  append_u64(out, totals.cache.insertions);
  out += ',';
  key(out, "evictions");
  append_u64(out, totals.cache.evictions);
  out += ',';
  key(out, "entries");
  append_u64(out, totals.cache.entries);
  out += ',';
  key(out, "bytes");
  append_u64(out, totals.cache.bytes);
  out += ',';
  key(out, "hit_ratio");
  append_fixed(out, hit_ratio);
  out += "},";

  key(out, "memo");
  out += '{';
  key(out, "hits");
  append_u64(out, totals.memo.hits);
  out += ',';
  key(out, "misses");
  append_u64(out, totals.memo.misses);
  out += ',';
  key(out, "admissions");
  append_u64(out, totals.memo.admissions);
  out += ',';
  key(out, "evictions");
  append_u64(out, totals.memo.evictions);
  out += ',';
  key(out, "entries");
  append_u64(out, totals.memo.entries);
  out += ',';
  key(out, "bytes");
  append_u64(out, totals.memo.bytes);
  out += "},";

  key(out, "latency");
  append_quantiles(out, all);
  out += ',';

  key(out, "window");
  out += '{';
  key(out, "span_us");
  append_u64(out, std::min(window_.span_us(), now));
  out += ',';
  key(out, "quantiles");
  append_quantiles(out, win);
  out += "},";

  key(out, "phases");
  out += '{';
  for (std::size_t p = 0; p < kNumPhases; ++p) {
    if (p > 0) out += ',';
    key(out, phase_name(static_cast<Phase>(p)));
    append_quantiles(out, phase_[p].snapshot());
  }
  out += "},";

  key(out, "access_log");
  out += '{';
  {
    OrderedLock lock(log_mu_);
    key(out, "enabled");
    out += log_ != nullptr ? "true" : "false";
    out += ',';
    key(out, "lines");
    append_u64(out, log_lines_);
    out += ',';
    key(out, "bytes");
    append_u64(out, log_bytes_);
    out += ',';
    key(out, "rotations");
    append_u64(out, log_rotations_);
  }
  out += "},";

  key(out, "slow_traces");
  out += '{';
  key(out, "threshold_us");
  append_u64(out, cfg_.slow_trace_us);
  out += ',';
  key(out, "emitted");
  // mo: stats-snapshot reads of tally counters; staleness is acceptable.
  append_u64(out, slow_emitted_.load(std::memory_order_relaxed));
  out += ',';
  key(out, "suppressed");
  // mo: stats-snapshot tally read (see above).
  append_u64(out, slow_suppressed_.load(std::memory_order_relaxed));
  out += '}';
  out += "}";

  // Publish the headline numbers as gauges too, in the serve-metrics
  // namespace the experiment harness excludes from manifests (wall-clock
  // values must never reach a byte-identity surface).
  BM_OBS_GAUGE_SET("serve-metrics.uptime_us", now);
  BM_OBS_GAUGE_SET("serve-metrics.inflight", totals.queued);
  BM_OBS_GAUGE_SET("serve-metrics.queue_depth", waiting);
  BM_OBS_GAUGE_SET("serve-metrics.p50_us", all.quantile(0.50));
  BM_OBS_GAUGE_SET("serve-metrics.p99_us", all.quantile(0.99));
  BM_OBS_GAUGE_SET("serve-metrics.window_p99_us", win.quantile(0.99));
  BM_OBS_GAUGE_SET("serve-metrics.hit_permille", hit_ratio * 1000.0);

  return out;
}

}  // namespace bm::serve
