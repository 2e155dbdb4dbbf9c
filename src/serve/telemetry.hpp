// Live telemetry for the serving stack: per-request phase timings, latency
// histograms (since-boot and trailing-window), a JSONL access log with
// size-based rotation, and threshold-triggered per-request Perfetto traces.
//
// Everything here measures *wall-clock* quantities, which is exactly what
// the registry counters must never hold (experiment manifests embed
// counter deltas and stay byte-identical across `--jobs`). Telemetry
// therefore lives beside the registry, not in it: latencies go into
// obs::LatencyHistogram cells owned by this layer, and the on-demand
// snapshot additionally publishes a few headline numbers as gauges in the
// `serve-metrics.*` namespace, which the experiment harness excludes from
// manifests exactly like `mem.*` (src/exp/experiment.cpp).
//
// Request lifecycle instrumentation:
//   - every request entering ServeCore is stamped with a monotonic
//     server-side request id (rid) and its admission timestamp;
//   - the processing pipeline attributes time to phases (queue-wait,
//     synthesize, compile, fingerprint, cache lookup, cold schedule,
//     verify, serialize, write-back) via PhaseScope RAII marks on a
//     per-request RequestTiming;
//   - record() — called exactly once per request, after the response
//     callback ran — folds the timing into the histograms, appends one
//     access-log line, and emits a standalone trace if the request was
//     slower than the configured threshold.
//
// Histogram recording compiles out under `-DBM_OBS=OFF` (quantiles in the
// stats snapshot read 0); rid stamping, the access log, and slow-request
// traces are explicit operator features and stay live in every build.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>

#include "obs/latency.hpp"
#include "serve/cache.hpp"
#include "serve/memo.hpp"
#include "serve/protocol.hpp"
#include "support/ordered_mutex.hpp"

namespace bm::serve {

/// Where a request's wall time went. kQueueWait is admission → worker
/// pickup; kWriteBack is the response callback (the frame write on the
/// network path). The scheduling phases mirror ServeCore::process_scheduling:
/// the front end (kSynthesize or kCompile, then kFingerprint) runs only on a
/// front-end memo miss; kCacheLookup covers the memo and schedule-cache
/// probes; kColdSchedule is dag build + scheduling on a schedule-cache miss.
enum class Phase : std::size_t {
  kQueueWait = 0,
  kSynthesize,
  kCompile,
  kFingerprint,
  kCacheLookup,
  kColdSchedule,
  kVerify,
  kSerialize,
  kWriteBack,
};
inline constexpr std::size_t kNumPhases = 9;

/// Snake-case phase name, as used in stats JSON keys and access-log lines.
const char* phase_name(Phase p);

/// Per-request timing record, filled in as the request moves through the
/// core and consumed exactly once by ServeTelemetry::record().
struct RequestTiming {
  std::uint64_t rid = 0;        ///< server-stamped, monotonic from 1
  std::uint64_t client_id = 0;  ///< the id the client sent (echoed back)
  Verb verb = Verb::kPing;
  Status status = Status::kOk;
  CacheOutcome cache = CacheOutcome::kBypass;
  std::string fingerprint;      ///< response fingerprint (maybe empty)

  std::uint64_t admit_us = 0;   ///< ServeTelemetry::now_us() at admission
  std::uint64_t total_us = 0;   ///< admission → answered

  struct Slice {
    std::uint64_t start_us = 0;  ///< first entry into the phase
    std::uint64_t dur_us = 0;    ///< accumulated across entries
    std::uint64_t entries = 0;
  };
  std::array<Slice, kNumPhases> phases{};

  void add_phase(Phase p, std::uint64_t start_us, std::uint64_t dur_us) {
    Slice& s = phases[static_cast<std::size_t>(p)];
    if (s.entries == 0) s.start_us = start_us;
    s.dur_us += dur_us;
    ++s.entries;
  }
};

struct TelemetryConfig {
  /// JSONL access log (one line per answered request); empty = off.
  std::string access_log_path;
  /// Rotate when the current file exceeds this; the previous generation is
  /// kept as `<path>.1` (one generation, bounded disk).
  std::size_t access_log_rotate_bytes = 64u << 20;

  /// Emit a standalone Perfetto trace for any request whose wall time
  /// meets this threshold (microseconds; 0 = off). Requires trace_dir.
  std::uint64_t slow_trace_us = 0;
  std::string slow_trace_dir;
  /// Emission stops after this many traces (bounded disk under a
  /// mis-tuned threshold); the stats snapshot reports the suppressions.
  std::size_t slow_trace_max = 256;

  /// Trailing-window histogram slot width (window = 8 slots).
  std::uint64_t window_slot_us = 1'000'000;
};

/// The core-level totals folded into a stats snapshot. Mirrors
/// core.hpp's CoreStats (kept separate so telemetry does not depend on the
/// core layer above it).
struct CoreTotals {
  std::uint64_t received = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t errors = 0;
  std::uint64_t queued = 0;
  std::uint64_t workers = 0;
  CacheStats cache;
  MemoStats memo;
};

class ServeTelemetry {
 public:
  explicit ServeTelemetry(TelemetryConfig cfg);
  ~ServeTelemetry();

  ServeTelemetry(const ServeTelemetry&) = delete;
  ServeTelemetry& operator=(const ServeTelemetry&) = delete;

  /// Microseconds since telemetry construction (daemon start) — the time
  /// base for every RequestTiming field and slow-trace timestamp.
  std::uint64_t now_us() const;

  std::uint64_t next_rid() { return rid_.fetch_add(1) + 1; }

  /// Requests currently executing on a worker (vs waiting in the queue).
  // mo: standalone inflight gauge — read only by the stats snapshot, which
  // tolerates a momentarily stale value; nothing is published through it.
  void worker_begin() { running_.fetch_add(1, std::memory_order_relaxed); }
  void worker_end() { running_.fetch_sub(1, std::memory_order_relaxed); }
  std::uint64_t running() const {
    // mo: same gauge contract as worker_begin/worker_end above.
    return running_.load(std::memory_order_relaxed);
  }

  /// Folds one finished request into the histograms, appends its
  /// access-log line, and emits a slow trace when over threshold. Called
  /// exactly once per request (answered or rejected).
  void record(const RequestTiming& t);

  /// The `stats v1` snapshot: one JSON object with uptime, inflight,
  /// queue depth, totals, cache and memo effectiveness, latency quantiles overall /
  /// per phase / over the trailing window, and access-log + slow-trace
  /// state. Also publishes headline values as `serve-metrics.*` gauges.
  std::string stats_json(const CoreTotals& totals) const;

  const TelemetryConfig& config() const { return cfg_; }

 private:
  void append_access_log(const RequestTiming& t);
  void maybe_emit_slow_trace(const RequestTiming& t);

  TelemetryConfig cfg_;
  std::chrono::steady_clock::time_point epoch_;
  std::atomic<std::uint64_t> rid_{0};
  std::atomic<std::uint64_t> running_{0};

  obs::LatencyHistogram total_;
  obs::WindowedLatencyHistogram window_;
  std::array<obs::LatencyHistogram, kNumPhases> phase_;

  /// Guards the access-log stream + tallies. Leaf in the hierarchy: held
  /// only around fwrite/rotate and the stats snapshot's tally read.
  mutable OrderedMutex log_mu_{LockLevel::kTelemetryLog,
                               "ServeTelemetry.log_mu"};
  std::FILE* log_ = nullptr;
  std::uint64_t log_bytes_ = 0;
  std::uint64_t log_lines_ = 0;
  std::uint64_t log_rotations_ = 0;

  std::atomic<std::uint64_t> slow_emitted_{0};
  std::atomic<std::uint64_t> slow_suppressed_{0};
};

/// RAII phase attribution: adds [construction, destruction) to `timing`'s
/// slice for `p` on the telemetry time base. Re-entering a phase (a memo
/// miss passes through kCacheLookup twice: memo probe, then schedule-cache
/// probe) accumulates durations and keeps the first start.
class PhaseScope {
 public:
  PhaseScope(const ServeTelemetry& tel, RequestTiming& timing, Phase p)
      : tel_(tel), timing_(timing), p_(p), start_(tel.now_us()) {}
  ~PhaseScope() { timing_.add_phase(p_, start_, tel_.now_us() - start_); }

  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  const ServeTelemetry& tel_;
  RequestTiming& timing_;
  Phase p_;
  std::uint64_t start_;
};

}  // namespace bm::serve
