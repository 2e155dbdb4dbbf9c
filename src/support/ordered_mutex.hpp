// Lock-hierarchy-checked mutex for the multithreaded serving stack.
//
// Every long-lived mutex in the daemon is an OrderedMutex carrying a level
// from the central LockLevel table below plus a human-readable name. In
// checking builds (BM_LOCK_ORDER_CHECK=1, the default for every tree
// except Release/bench) each thread tracks the stack of levels it holds
// and every acquisition:
//   - must be at a level *strictly greater* than every level already held
//     by the thread (the static hierarchy — so any cross-thread
//     lock-order inversion is impossible by construction);
//   - is recorded as a set of (held-level -> acquired-level) edges in a
//     global acquisition graph, so a violation aborts with a concrete
//     witness: the offending stack, plus where the opposite order was
//     first observed (file-free, name-based — enough to find the site).
//
// A violation is a programming bug, never load-dependent, so the response
// is fprintf + abort (like BM_ASSERT_INTERNAL), not an exception.
//
// In Release builds (BM_LOCK_ORDER_CHECK=0, set by CMake for
// CMAKE_BUILD_TYPE=Release — notably the build-bench/ tree behind
// scripts/bench_gate.py) OrderedMutex compiles to a plain std::mutex:
// lock/unlock inline to mu_.lock()/mu_.unlock() and the level/name members
// vanish, so the type is layout- and cost-identical to std::mutex. The
// gated BM_ServeCacheHit benchmark pins that claim.
//
// Condition variables: OrderedMutex satisfies Lockable, so waiting uses
// std::condition_variable_any with an OrderedLock. The wait's internal
// unlock/relock goes through the instrumented methods, keeping the held
// stack exact across the wait.
//
// The current hierarchy is documented in docs/CONCURRENCY.md; tests
// (ordered_mutex_test.cpp) pin both the accept and the abort paths.
#pragma once

#include <cstdint>
#include <mutex>

#ifndef BM_LOCK_ORDER_CHECK
#ifdef NDEBUG
#define BM_LOCK_ORDER_CHECK 0
#else
#define BM_LOCK_ORDER_CHECK 1
#endif
#endif

namespace bm {

/// The lock hierarchy, one level per mutex *role* (instances share the
/// level: two mutexes of one level must never be held together, which is
/// exactly right for e.g. per-connection mutexes). Levels only constrain
/// *nesting*: a thread holding level L may acquire only levels > L.
/// Today every serving-stack mutex is a leaf (no bm mutex is acquired
/// under another); the ordering below is the design intent for future
/// nesting and the checker keeps it honest. Gaps leave room to grow.
enum class LockLevel : std::uint16_t {
  /// serve/net.cpp Server::Impl::conn_mu — connection registry; held only
  /// around registry mutation and fd shutdown fan-out.
  kServerConns = 10,
  /// serve/core.hpp ServeCore::mu_ — admission stats + idle session pool.
  kServeCore = 20,
  /// serve/cache.hpp ScheduleCache::mu_ — LRU list + index + stats.
  kScheduleCache = 30,
  /// serve/memo.hpp FrontEndMemo::mu_ — front-end memo LRU + stats. A leaf
  /// beside kScheduleCache: held only around the LRU update, never while
  /// another serve lock is taken.
  kFrontEndMemo = 35,
  /// serve/net.cpp ConnState::write_mu — serializes response frames on one
  /// connection fd.
  kConnWrite = 40,
  /// serve/net.cpp ConnState::mu — per-connection outstanding-request
  /// count (quiesce handshake).
  kConnState = 50,
  /// serve/telemetry.hpp ServeTelemetry::log_mu_ — access-log stream.
  kTelemetryLog = 60,
  /// support/thread_pool.hpp ThreadPool::mu_ — task queue. Deepest: a
  /// worker dequeues with no other bm lock held, and the enqueue path may
  /// run under any of the layers above.
  kThreadPool = 70,
  /// exec/runtime.cpp Runtime stats_mu_ — per-thread WaitStats merge at PE
  /// stream completion. A leaf like kThreadPool: held for a few adds with
  /// no other bm lock held, and never on the instruction/barrier fast path.
  kExecRuntime = 80,
  /// Testing only (ordered_mutex_test.cpp).
  kTestLow = 1000,
  kTestMid = 1010,
  kTestHigh = 1020,
};

#if BM_LOCK_ORDER_CHECK
namespace lock_order_detail {
class OrderedMutexBase;
void before_acquire(const OrderedMutexBase* m);
void acquired(const OrderedMutexBase* m);
void released(const OrderedMutexBase* m);

class OrderedMutexBase {
 public:
  OrderedMutexBase(LockLevel level, const char* name)
      : level_(static_cast<std::uint16_t>(level)), name_(name) {}
  std::uint16_t level() const { return level_; }
  const char* name() const { return name_; }

 private:
  std::uint16_t level_;
  const char* name_;
};
}  // namespace lock_order_detail
#endif

class OrderedMutex
#if BM_LOCK_ORDER_CHECK
    : public lock_order_detail::OrderedMutexBase
#endif
{
 public:
#if BM_LOCK_ORDER_CHECK
  OrderedMutex(LockLevel level, const char* name)
      : OrderedMutexBase(level, name) {}
#else
  OrderedMutex(LockLevel /*level*/, const char* /*name*/) {}
#endif

  OrderedMutex(const OrderedMutex&) = delete;
  OrderedMutex& operator=(const OrderedMutex&) = delete;

  void lock() {
#if BM_LOCK_ORDER_CHECK
    lock_order_detail::before_acquire(this);
#endif
    mu_.lock();
#if BM_LOCK_ORDER_CHECK
    lock_order_detail::acquired(this);
#endif
  }

  bool try_lock() {
#if BM_LOCK_ORDER_CHECK
    // A try_lock that *would* deadlock under contention is still a
    // hierarchy bug waiting to happen; hold it to the same standard.
    lock_order_detail::before_acquire(this);
    if (!mu_.try_lock()) return false;
    lock_order_detail::acquired(this);
    return true;
#else
    return mu_.try_lock();
#endif
  }

  void unlock() {
#if BM_LOCK_ORDER_CHECK
    lock_order_detail::released(this);
#endif
    mu_.unlock();
  }

 private:
  std::mutex mu_;
};

/// RAII guard over OrderedMutex; std::condition_variable_any waits on it.
using OrderedLock = std::unique_lock<OrderedMutex>;

#if BM_LOCK_ORDER_CHECK
/// Observed acquisition-graph edge: `to` was acquired while holding
/// `from`. Exposed for tests and for docs/CONCURRENCY.md regeneration.
struct LockOrderEdge {
  std::uint16_t from_level = 0;
  std::uint16_t to_level = 0;
  const char* from_name = nullptr;
  const char* to_name = nullptr;
};

/// Snapshot of every distinct edge recorded since process start.
/// Count-bounded and deduplicated; cheap enough for test assertions.
std::size_t lock_order_edge_count();
LockOrderEdge lock_order_edge(std::size_t i);

/// Number of levels currently held by the calling thread (test hook).
std::size_t lock_order_held_depth();
#endif

}  // namespace bm
