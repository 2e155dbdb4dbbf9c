// ServeCore: the transport-free heart of bmserve. Owns the worker pool,
// the schedule cache, the front-end memo (serve/memo.hpp), and the
// admission queue; the socket layer
// (serve/net.hpp) and the in-process tests/benchmarks drive the same code.
//
// Life of a request:
//   submit() — admission control. If the core is draining or the number of
//     admitted-but-unfinished requests has reached max_queue, the request
//     is answered immediately with status=rejected (overload degrades to a
//     fast, bounded rejection — never an unbounded queue). Otherwise the
//     request is enqueued on the shared ThreadPool with its own
//     CancelToken, which submit() returns for the caller to cancel on
//     client disconnect.
//   handle() — the same processing, synchronously on the caller.
//
// Every admitted request is answered exactly once: the callback is invoked
// with the computed response, with status=cancelled when its token fired
// before a worker picked it up, or with status=error if processing threw.
// drain() stops admission and blocks until all in-flight work finishes —
// the SIGTERM path loses nothing that was admitted.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "serve/cache.hpp"
#include "serve/memo.hpp"
#include "serve/protocol.hpp"
#include "serve/session.hpp"
#include "serve/telemetry.hpp"
#include "support/ordered_mutex.hpp"
#include "support/thread_pool.hpp"

namespace bm::serve {

struct CoreConfig {
  std::size_t workers = 4;
  /// Maximum admitted-but-unfinished requests (queued + running). Further
  /// submits are rejected until the backlog shrinks.
  std::size_t max_queue = 128;
  /// Bounds of the schedule cache, and separately of the front-end memo;
  /// cache_entries == 0 turns both off.
  std::size_t cache_entries = 4096;
  std::size_t cache_bytes = 64u << 20;
  /// Test hook: runs on the worker just before a request is processed.
  /// Lets tests hold workers to force queue buildup; never set in prod.
  std::function<void(const Request&)> pre_handle;

  /// Access log, slow-request traces, latency window (serve/telemetry.hpp).
  TelemetryConfig telemetry;
};

struct CoreStats {
  std::uint64_t received = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t errors = 0;
  std::uint64_t queued = 0;  ///< current backlog (admitted, unfinished)
  CacheStats cache;
  MemoStats memo;

  std::string to_text() const;
};

class ServeCore {
 public:
  using Callback = std::function<void(const Response&)>;

  explicit ServeCore(CoreConfig cfg);
  ~ServeCore();  ///< drains: admitted work completes before teardown

  ServeCore(const ServeCore&) = delete;
  ServeCore& operator=(const ServeCore&) = delete;

  /// Asynchronous entry: admission check, then worker-pool execution. The
  /// callback fires exactly once, possibly before submit() returns (on
  /// rejection) and possibly on a worker thread. The returned token
  /// cancels the request if it is still queued.
  CancelToken submit(Request req, Callback cb);

  /// Synchronous entry (tests, benchmarks): processes on the caller,
  /// bypassing admission and the queue but sharing cache and sessions.
  Response handle(const Request& req);

  /// Stops admission (subsequent submits are rejected) and waits until
  /// every admitted request has been answered.
  void drain();
  bool draining() const;

  CoreStats stats() const;

  /// The `stats v1` JSON snapshot (what the kStats verb answers with and
  /// what the SIGUSR1 dump prints): core totals + telemetry quantiles.
  std::string stats_json() const;

  const ServeTelemetry& telemetry() const { return telemetry_; }

 private:
  class SessionLease;
  struct PendingReq;

  Response process(const Request& req, RequestTiming& timing);
  Response process_scheduling(const Request& req, RequestTiming& timing);
  std::shared_ptr<const FrontEnd> run_front_end(const Request& req,
                                                SchedulerSession& session,
                                                RequestTiming& timing);
  void note_outcome(const Response& resp);
  CoreTotals totals() const;

  CoreConfig cfg_;
  ScheduleCache cache_;
  FrontEndMemo memo_;

  mutable OrderedMutex mu_{LockLevel::kServeCore, "ServeCore.mu"};
  std::vector<std::unique_ptr<SchedulerSession>> idle_sessions_;
  CoreStats stats_;
  bool draining_ = false;

  /// Declared before pool_: straggler requests answered while the pool
  /// drains in ~ServeCore still record into live telemetry.
  ServeTelemetry telemetry_;

  /// Last member: destroyed first, so queued tasks still see a live core
  /// while the pool drains in the destructor.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace bm::serve
