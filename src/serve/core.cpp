#include "serve/core.hpp"

#include <utility>

#include "obs/obs.hpp"
#include "sched/serialize.hpp"
#include "serve/fingerprint.hpp"
#include "support/assert.hpp"

namespace bm::serve {

/// Checks a session out of the shared idle pool (or creates one: the pool
/// grows to the worker count and no further, since leases are per-request).
class ServeCore::SessionLease {
 public:
  explicit SessionLease(ServeCore& core) : core_(core) {
    OrderedLock lock(core_.mu_);
    if (!core_.idle_sessions_.empty()) {
      session_ = std::move(core_.idle_sessions_.back());
      core_.idle_sessions_.pop_back();
      return;
    }
    lock.unlock();
    session_ = std::make_unique<SchedulerSession>(
        SchedulerSession::ArenaMode::kOwned);
  }
  ~SessionLease() {
    OrderedLock lock(core_.mu_);
    core_.idle_sessions_.push_back(std::move(session_));
  }

  SchedulerSession* operator->() { return session_.get(); }
  SchedulerSession& operator*() { return *session_; }

 private:
  ServeCore& core_;
  std::unique_ptr<SchedulerSession> session_;
};

/// One admitted request. Guarantees the exactly-once answer: workers call
/// answer() with the computed response; if the closure is destroyed unrun
/// (token cancelled at dequeue, a drain racing a cancel, ...) the
/// destructor answers status=cancelled. Shared between the queue closure
/// and nothing else, so the destructor runs where the closure dies.
struct ServeCore::PendingReq {
  ServeCore* core;
  Request req;
  Callback cb;
  RequestTiming timing;
  std::atomic<bool> answered{false};

  PendingReq(ServeCore* c, Request r, Callback f, RequestTiming t)
      : core(c), req(std::move(r)), cb(std::move(f)), timing(std::move(t)) {}

  void answer(const Response& resp) {
    if (answered.exchange(true)) return;
    ServeTelemetry& tel = core->telemetry_;
    {
      PhaseScope write_back(tel, timing, Phase::kWriteBack);
      try {
        cb(resp);
      } catch (...) {
        // Transport failures are the transport's problem; the request is
        // accounted as answered either way.
      }
    }
    timing.status = resp.status;
    timing.cache = resp.cache;
    timing.fingerprint = resp.fingerprint;
    timing.total_us = tel.now_us() - timing.admit_us;
    core->note_outcome(resp);
    tel.record(timing);
  }

  ~PendingReq() {
    if (answered.load()) return;
    Response resp;
    resp.id = req.id;
    resp.status = Status::kCancelled;
    resp.error = "cancelled before execution";
    answer(resp);
  }
};

ServeCore::ServeCore(CoreConfig cfg)
    : cfg_(std::move(cfg)),
      cache_(cfg_.cache_entries, cfg_.cache_bytes),
      memo_(cfg_.cache_entries, cfg_.cache_bytes),
      telemetry_(cfg_.telemetry),
      pool_(std::make_unique<ThreadPool>(cfg_.workers)) {}

ServeCore::~ServeCore() {
  drain();
  // pool_ (last member) is destroyed first; its drain contract answers any
  // stragglers through their PendingReq destructors while `this` is whole.
}

CancelToken ServeCore::submit(Request req, Callback cb) {
  CancelToken token;
  RequestTiming timing;
  timing.rid = telemetry_.next_rid();
  timing.client_id = req.id;
  timing.verb = req.verb;
  timing.admit_us = telemetry_.now_us();
  bool reject = false;
  {
    OrderedLock lock(mu_);
    ++stats_.received;
    if (draining_ || stats_.queued >= cfg_.max_queue) {
      ++stats_.rejected;
      reject = true;
    } else {
      ++stats_.queued;
    }
  }
  BM_OBS_COUNT("serve.request");
  if (reject) {
    BM_OBS_COUNT("serve.reject");
    Response resp;
    resp.id = req.id;
    resp.status = Status::kRejected;
    resp.error = draining() ? "server draining" : "queue full";
    {
      PhaseScope write_back(telemetry_, timing, Phase::kWriteBack);
      cb(resp);
    }
    timing.status = Status::kRejected;
    timing.total_us = telemetry_.now_us() - timing.admit_us;
    telemetry_.record(timing);
    return token;
  }

  auto pending = std::make_shared<PendingReq>(this, std::move(req),
                                              std::move(cb), std::move(timing));
  pool_->submit(token, [pending] {
    ServeCore& core = *pending->core;
    ServeTelemetry& tel = core.telemetry_;
    pending->timing.add_phase(Phase::kQueueWait, pending->timing.admit_us,
                              tel.now_us() - pending->timing.admit_us);
    if (core.cfg_.pre_handle) core.cfg_.pre_handle(pending->req);
    if (pending->answered.load()) return;
    tel.worker_begin();
    Response resp;
    try {
      resp = core.process(pending->req, pending->timing);
    } catch (const std::exception& e) {
      resp.id = pending->req.id;
      resp.status = Status::kError;
      resp.error = e.what();
    }
    pending->answer(resp);
    tel.worker_end();
  });
  return token;
}

Response ServeCore::handle(const Request& req) {
  RequestTiming timing;
  timing.rid = telemetry_.next_rid();
  timing.client_id = req.id;
  timing.verb = req.verb;
  timing.admit_us = telemetry_.now_us();
  {
    // Both counters in one critical section: a concurrent stats snapshot
    // must never see this request received but neither queued nor resolved.
    OrderedLock lock(mu_);
    ++stats_.received;
    ++stats_.queued;  // note_outcome's pairing decrement
  }
  BM_OBS_COUNT("serve.request");
  telemetry_.worker_begin();
  Response resp;
  try {
    resp = process(req, timing);
  } catch (const std::exception& e) {
    resp.id = req.id;
    resp.status = Status::kError;
    resp.error = e.what();
  }
  telemetry_.worker_end();
  timing.status = resp.status;
  timing.cache = resp.cache;
  timing.fingerprint = resp.fingerprint;
  timing.total_us = telemetry_.now_us() - timing.admit_us;
  note_outcome(resp);
  telemetry_.record(timing);
  return resp;
}

void ServeCore::drain() {
  {
    OrderedLock lock(mu_);
    draining_ = true;
  }
  pool_->wait_idle();
}

bool ServeCore::draining() const {
  OrderedLock lock(mu_);
  return draining_;
}

CoreStats ServeCore::stats() const {
  CoreStats out;
  {
    OrderedLock lock(mu_);
    out = stats_;
  }
  out.cache = cache_.stats();
  out.memo = memo_.stats();
  return out;
}

CoreTotals ServeCore::totals() const {
  const CoreStats s = stats();
  CoreTotals t;
  t.received = s.received;
  t.completed = s.completed;
  t.rejected = s.rejected;
  t.cancelled = s.cancelled;
  t.errors = s.errors;
  t.queued = s.queued;
  t.workers = cfg_.workers;
  t.cache = s.cache;
  t.memo = s.memo;
  return t;
}

std::string ServeCore::stats_json() const {
  return telemetry_.stats_json(totals());
}

void ServeCore::note_outcome(const Response& resp) {
  OrderedLock lock(mu_);
  BM_ASSERT_INTERNAL(stats_.queued > 0, "response without admission");
  --stats_.queued;
  switch (resp.status) {
    case Status::kOk:
      ++stats_.completed;
      break;
    case Status::kCancelled:
      ++stats_.cancelled;
      break;
    case Status::kError:
      ++stats_.errors;
      break;
    case Status::kRejected:
      ++stats_.rejected;  // unreachable: rejections never admit
      break;
  }
  lock.unlock();
  switch (resp.status) {
    case Status::kOk: BM_OBS_COUNT("serve.ok"); break;
    case Status::kCancelled: BM_OBS_COUNT("serve.cancel"); break;
    case Status::kError: BM_OBS_COUNT("serve.error"); break;
    case Status::kRejected: break;
  }
}

Response ServeCore::process(const Request& req, RequestTiming& rt) {
  switch (req.verb) {
    case Verb::kPing: {
      Response resp;
      resp.id = req.id;
      resp.body = "pong";
      return resp;
    }
    case Verb::kStats: {
      Response resp;
      resp.id = req.id;
      resp.body = stats_json();
      return resp;
    }
    case Verb::kSynth:
    case Verb::kSchedule:
      return process_scheduling(req, rt);
  }
  throw Error("unhandled verb");
}

/// Stage 1 on a memo miss: the program, the scheduler's RNG stream and the
/// canonical form. For synth requests the scheduler continues the synthesis
/// stream — the exact sequence the experiment harness uses, so a synth
/// request for (base_seed, index) reproduces the harness schedule
/// bit-for-bit.
std::shared_ptr<const FrontEnd> ServeCore::run_front_end(
    const Request& req, SchedulerSession& session, RequestTiming& rt) {
  auto fe = std::make_shared<FrontEnd>();
  fe->rng_key = request_rng_key(req);
  if (req.verb == Verb::kSynth) {
    PhaseScope ps(telemetry_, rt, Phase::kSynthesize);
    fe->rng = benchmark_rng(req.base_seed, req.index);
    fe->program = session.synthesize(req.gen, fe->rng).program;
  } else {
    PhaseScope ps(telemetry_, rt, Phase::kCompile);
    fe->program = session.compile_source(req.source);
    fe->rng = Rng(req.seed);
  }
  BM_REQUIRE(!fe->program.empty(), "program optimized to an empty block");
  PhaseScope ps(telemetry_, rt, Phase::kFingerprint);
  fe->canon = canonicalize_program(fe->program);
  fe->fingerprint_hex = fingerprint_hex(fe->canon.fingerprint);
  return fe;
}

Response ServeCore::process_scheduling(const Request& req, RequestTiming& rt) {
  Response resp;
  resp.id = req.id;

  SessionLease session(*this);
  const TimingModel timing = TimingModel::table1();

  // Stage 1: the front end, from the memo when this exact request was
  // answered from the schedule cache before. no-cache requests bypass the
  // memo as they bypass the cache.
  const bool use_memo = !req.no_cache && memo_.enabled();
  FrontEndKey key;
  std::shared_ptr<const FrontEnd> fe;
  if (use_memo) {
    PhaseScope ps(telemetry_, rt, Phase::kCacheLookup);
    key = FrontEndKey::of(req);
    fe = memo_.lookup(key);
  }
  const bool memo_hit = fe != nullptr;
  if (!memo_hit) fe = run_front_end(req, *session, rt);
  resp.fingerprint = fe->fingerprint_hex;

  // Stage 2: cache probe under the canonical fingerprint.
  std::uint64_t digest = 0;
  if (!req.no_cache) {
    ScheduleCache::Hit hit;
    {
      PhaseScope ps(telemetry_, rt, Phase::kCacheLookup);
      digest = config_digest(req.sched, timing, fe->rng_key);
      hit = cache_.lookup(fe->canon.fingerprint, digest, fe->canon.bytes,
                          fe->canon.inv_perm);
    }
    if (hit.found) {
      // Admit on the second touch: only a request answered from the cache
      // enters the memo, so one-off cold requests never displace it.
      if (use_memo && !memo_hit) memo_.admit(std::move(key), fe);
      resp.cache = CacheOutcome::kHit;
      resp.stats = hit.stats;
      resp.body = std::move(hit.schedule_text);
      if (req.verify) {
        PhaseScope ps(telemetry_, rt, Phase::kVerify);
        const InstrDag dag = session->build_dag(fe->program, timing);
        const Schedule sched = schedule_from_text(dag, resp.body);
        resp.verify_errors = session->verify(dag, sched).error_count();
      }
      return resp;
    }
  }

  // Stage 3: cold path — the ordinary pipeline, continuing the stream from
  // where the front end left it.
  const InstrDag dag = [&] {
    PhaseScope ps(telemetry_, rt, Phase::kColdSchedule);
    return session->build_dag(fe->program, timing);
  }();
  Rng rng = fe->rng;
  ScheduleResult scheduled;
  {
    PhaseScope ps(telemetry_, rt, Phase::kColdSchedule);
    scheduled = session->schedule(dag, req.sched, rng);
  }
  resp.stats = scheduled.stats;
  {
    PhaseScope ps(telemetry_, rt, Phase::kSerialize);
    resp.body = schedule_to_text(*scheduled.schedule);
  }
  if (req.verify) {
    PhaseScope ps(telemetry_, rt, Phase::kVerify);
    resp.verify_errors =
        session->verify(dag, *scheduled.schedule).error_count();
  }

  if (req.no_cache) {
    resp.cache = CacheOutcome::kBypass;
  } else {
    resp.cache = CacheOutcome::kMiss;
    PhaseScope ps(telemetry_, rt, Phase::kSerialize);
    cache_.insert(fe->canon.fingerprint, digest, fe->canon.bytes,
                  rewrite_schedule_ids(resp.body, fe->canon.perm),
                  scheduled.stats);
  }
  return resp;
}

std::string CoreStats::to_text() const {
  std::string t;
  t += "received " + std::to_string(received) + "\n";
  t += "completed " + std::to_string(completed) + "\n";
  t += "rejected " + std::to_string(rejected) + "\n";
  t += "cancelled " + std::to_string(cancelled) + "\n";
  t += "errors " + std::to_string(errors) + "\n";
  t += "queued " + std::to_string(queued) + "\n";
  t += "cache-hits " + std::to_string(cache.hits) + "\n";
  t += "cache-misses " + std::to_string(cache.misses) + "\n";
  t += "cache-collisions " + std::to_string(cache.collisions) + "\n";
  t += "cache-insertions " + std::to_string(cache.insertions) + "\n";
  t += "cache-evictions " + std::to_string(cache.evictions) + "\n";
  t += "cache-entries " + std::to_string(cache.entries) + "\n";
  t += "cache-bytes " + std::to_string(cache.bytes) + "\n";
  t += "memo-hits " + std::to_string(memo.hits) + "\n";
  t += "memo-misses " + std::to_string(memo.misses) + "\n";
  t += "memo-admissions " + std::to_string(memo.admissions) + "\n";
  t += "memo-evictions " + std::to_string(memo.evictions) + "\n";
  t += "memo-entries " + std::to_string(memo.entries) + "\n";
  t += "memo-bytes " + std::to_string(memo.bytes) + "\n";
  return t;
}

}  // namespace bm::serve
