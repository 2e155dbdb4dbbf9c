// bmbench — the end-to-end benchmark's own helper binary. perfbench/run.py
// builds it next to bmrun/bmserve and calls one subcommand per step; every
// subcommand prints one JSON object on stdout.
//
//   bmbench stamp                         compiler, build type, BM_OBS
//   bmbench warm --socket S --seed N      send the hot set once
//   bmbench loadgen --socket S ...        open-loop serve_mix traffic
//   bmbench batch --socket S ...          closed-loop batch of cold requests
//   bmbench exec ...                      closed-loop exec::execute() calls
//   bmbench replay --workload W ...       in-process replay with layer spans
//
// Inputs come only from --seed. The programs under test (bmserve, and the
// libraries execute() and the replays call) receive the generated inputs.
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cfg/cfg_gen.hpp"
#include "cfg/cfg_sched.hpp"
#include "cfg/cfg_sim.hpp"
#include "codegen/emitter.hpp"
#include "codegen/generator.hpp"
#include "exec/lower.hpp"
#include "exec/runtime.hpp"
#include "graph/instr_dag.hpp"
#include "ir/interp.hpp"
#include "mimd/directed.hpp"
#include "mimd/reduce.hpp"
#include "obs/trace.hpp"
#include "opt/passes.hpp"
#include "sched/labels.hpp"
#include "sched/scheduler.hpp"
#include "sched/serialize.hpp"
#include "serve/cache.hpp"
#include "serve/fingerprint.hpp"
#include "serve/protocol.hpp"
#include "serve/session.hpp"
#include "sim/simulator.hpp"
#include "support/assert.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "verify/verify.hpp"
#include "vliw/vliw.hpp"

namespace {

using namespace bm;
using Clock = std::chrono::steady_clock;

// -- small utilities ---------------------------------------------------------

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i + 1 < argc; i += 2) {
      std::string k = argv[i];
      if (k.rfind("--", 0) != 0) throw Error("bmbench: expected --flag, got " + k);
      kv_[k.substr(2)] = argv[i + 1];
    }
  }
  std::string str(const std::string& k, const std::string& def = "") const {
    auto it = kv_.find(k);
    return it == kv_.end() ? def : it->second;
  }
  double num(const std::string& k, double def) const {
    auto it = kv_.find(k);
    return it == kv_.end() ? def : std::stod(it->second);
  }
  std::uint64_t u64(const std::string& k, std::uint64_t def) const {
    auto it = kv_.find(k);
    return it == kv_.end() ? def : std::stoull(it->second);
  }

 private:
  std::map<std::string, std::string> kv_;
};

/// Flat JSON object writer for the subcommands' one-line results.
class JsonOut {
 public:
  void num(const std::string& k, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    field(k) += buf;
  }
  void str(const std::string& k, const std::string& v) {
    std::string& o = field(k);
    o += '"';
    for (char c : v) {
      if (c == '"' || c == '\\') o += '\\';
      if (c == '\n') { o += "\\n"; continue; }
      o += c;
    }
    o += '"';
  }
  void raw(const std::string& k, const std::string& json) { field(k) += json; }
  std::string done() const { return "{" + body_ + "}"; }

 private:
  std::string& field(const std::string& k) {
    if (!body_.empty()) body_ += ',';
    body_ += '"' + k + "\":";
    return body_;
  }
  std::string body_;
};

/// JSON array of raw samples (µs samples at 10 ns resolution).
std::string num_array(const std::vector<double>& v) {
  std::string s = "[";
  char buf[64];
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s%.10g", i ? "," : "", v[i]);
    s += buf;
  }
  return s + "]";
}

/// Nearest-rank quantile of an unsorted sample (0 for an empty one).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const std::size_t rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(v.size()))));
  std::nth_element(v.begin(), v.begin() + static_cast<long>(rank - 1), v.end());
  return v[rank - 1];
}

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// -- spans -------------------------------------------------------------------

/// In-memory span recorder for the replays: one span per call into a
/// layer's public function, plus one root span per unit of work (a seed, a
/// request). Disabled, a Scope costs one branch.
class Tracer {
 public:
  struct Span {
    const char* name;
    const char* layer;
    std::uint64_t start_ns = 0, end_ns = 0;
    std::int32_t parent = -1;
    std::uint64_t unit = 0;
  };

  explicit Tracer(bool on) : on_(on), epoch_(Clock::now()) {
    if (on_) spans_.reserve(1u << 20);
  }

  class Scope {
   public:
    Scope(Tracer& t, const char* name, const char* layer) : t_(t) {
      if (!t_.on_) return;
      idx_ = static_cast<std::int32_t>(t_.spans_.size());
      t_.spans_.push_back({name, layer, t_.now_ns(), 0, t_.open_, t_.unit_});
      t_.open_ = idx_;
    }
    ~Scope() {
      if (idx_ < 0) return;
      Span& s = t_.spans_[static_cast<std::size_t>(idx_)];
      s.end_ns = t_.now_ns();
      t_.open_ = s.parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    std::int32_t idx_ = -1;
  };

  void set_unit(std::uint64_t u) { unit_ = u; }
  bool on() const { return on_; }
  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t now_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             epoch_)
            .count());
  }

  /// Self time per layer: each span's duration minus its children's.
  std::map<std::string, double> self_ns_by_layer() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_)
      if (s.parent >= 0)
        child[static_cast<std::size_t>(s.parent)] +=
            static_cast<double>(s.end_ns - s.start_ns);
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
      out[spans_[i].layer] +=
          static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) - child[i];
    return out;
  }

  /// Durations (µs) of every span with this name.
  std::vector<double> durations_us(const char* name) const {
    std::vector<double> d;
    for (const Span& s : spans_)
      if (std::strcmp(s.name, name) == 0)
        d.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    return d;
  }

  double total_ns(const char* name) const {
    double t = 0;
    for (const Span& s : spans_)
      if (std::strcmp(s.name, name) == 0)
        t += static_cast<double>(s.end_ns - s.start_ns);
    return t;
  }

  /// The spans as trace events (category = layer, arg = unit of work), for
  /// obs::write_trace_events_json.
  std::vector<obs::TraceEvent> trace_events() const {
    std::vector<obs::TraceEvent> ev;
    ev.reserve(spans_.size());
    for (const Span& s : spans_)
      ev.push_back({s.name, s.layer, 'X', static_cast<double>(s.start_ns) / 1e3,
                    static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                    obs::kWallPid, 0, "unit", static_cast<double>(s.unit)});
    return ev;
  }

 private:
  bool on_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::int32_t open_ = -1;
  std::uint64_t unit_ = 0;
};

#define BMB_CAT2(a, b) a##b
#define BMB_CAT(a, b) BMB_CAT2(a, b)
#define BMB_SPAN(tracer, name, layer) \
  Tracer::Scope BMB_CAT(bmb_span_, __LINE__)((tracer), (name), (layer))

/// Counts recorded at the same layer boundaries as the spans.
struct Counts {
  std::map<std::string, double> c;
  void add(const std::string& k, double v) { c[k] += v; }
  double get(const std::string& k) const {
    auto it = c.find(k);
    return it == c.end() ? 0.0 : it->second;
  }
};

// -- shared inputs -----------------------------------------------------------

/// The paper's sweep grid (§5): program sizes, parallelism widths, PEs.
constexpr std::uint32_t kGridStmts[] = {5, 15, 30, 60};
constexpr std::uint32_t kGridVars[] = {2, 5, 10, 15};
constexpr std::size_t kGridProcs[] = {2, 8, 32, 128};

/// Pipeline shared by every replay: codegen → opt → dag → schedule, with
/// one span per layer call. Equivalent to synthesize_benchmark followed by
/// InstrDag::build and schedule_program on the same rng stream.
struct Scheduled {
  Program program;
  std::unique_ptr<InstrDag> dag;
  ScheduleResult result;
};

Scheduled synth_and_schedule(Tracer& tr, Counts& n, const GeneratorConfig& gen,
                             const SchedulerConfig& sc, Rng& rng) {
  Scheduled s;
  {
    BMB_SPAN(tr, "codegen.generate", "codegen");
    const StatementList stmts = StatementGenerator(gen).generate(rng);
    s.program = emit_tuples(stmts, gen.num_variables);
  }
  n.add("codegen.tuples", static_cast<double>(s.program.size()));
  {
    BMB_SPAN(tr, "opt.optimize", "opt");
    n.add("opt.tuples_removed",
          static_cast<double>(optimize(s.program).total_removed()));
  }
  {
    BMB_SPAN(tr, "graph.build", "graph");
    s.dag = std::make_unique<InstrDag>(
        InstrDag::build(s.program, TimingModel::table1()));
  }
  n.add("graph.edges", static_cast<double>(s.dag->sync_edges().size()));
  {
    BMB_SPAN(tr, "sched.schedule_program", "sched");
    s.result = schedule_program(*s.dag, sc, rng);
  }
  const ScheduleStats& st = s.result.stats;
  n.add("sched.schedules", 1);
  n.add("sched.barriers_inserted", static_cast<double>(st.barriers_inserted));
  n.add("sched.barriers_final", static_cast<double>(st.barriers_final));
  n.add("sched.merges", static_cast<double>(st.merges));
  n.add("sched.repair_barriers", static_cast<double>(st.repair_barriers));
  n.add("sched.implied_syncs", static_cast<double>(st.implied_syncs));
  return s;
}

std::size_t verify_errors(Tracer& tr, Counts& n, const InstrDag& dag,
                          const Schedule& sched) {
  BMB_SPAN(tr, "verify.verify_schedule", "verify");
  VerifyOptions vo;
  vo.lint_redundant = false;
  const std::size_t e = verify_schedule(dag, sched, vo).error_count();
  n.add("verify.errors", static_cast<double>(e));
  n.add("verify.schedules", 1);
  return e;
}

// -- serve_mix request stream -------------------------------------------------

/// Request classes of serve_mix.
enum Cls { kSynthHit = 0, kSourceHit = 1, kCold = 2 };
constexpr const char* kClsName[] = {"synth_hit", "source_hit", "cold"};

struct MixReq {
  Cls cls = kCold;
  std::size_t key = 0;  ///< hot-set slot, or the cold request's index
  serve::Request req;
};

/// Seeded traffic: a hot set of synth (base_seed, index) pairs, a hot set
/// of .bm sources, and synth requests with fresh indices. Shapes and PE
/// counts come from the paper grid, stratified: each hot set holds one
/// request per grid point and cold requests cycle through the grid, so
/// seeds change the programs but not the mix of sizes.
class Mix {
 public:
  static constexpr std::size_t kHot = 64;  ///< = grid points

  explicit Mix(std::uint64_t seed) : seed_(seed) {
    for (std::size_t j = 0; j < kHot; ++j) {
      serve::Request r = grid_request(j);
      r.verb = serve::Verb::kSynth;
      r.base_seed = 10000 + seed;
      r.index = j;
      hot_synth_.push_back(r);

      Rng srng = benchmark_rng(seed * 3 + 2, j);
      serve::Request s = grid_request(j);
      s.verb = serve::Verb::kSchedule;
      s.seed = j + 1;
      for (const Assign& a : StatementGenerator(s.gen).generate(srng))
        s.source += statement_to_string(a) + "\n";
      hot_source_.push_back(s);
    }
  }

  /// Request i of the stream (ids start at 1). The three classes are equally
  /// likely: no measurement of real traffic gives their shares, and equal
  /// shares give each class's p50 and p99 the same sample count. Cold
  /// indices start at 10^6, clear of the batch's cold programs.
  MixReq at(std::size_t i) const {
    Rng rng = benchmark_rng(seed_ * 3 + 3, i);
    const auto cls = static_cast<Cls>(rng.index(3));
    MixReq m;
    if (cls == kCold) {
      m = cold(1000000 + i);
    } else {
      m.cls = cls;
      m.key = rng.index(kHot);
      m.req = hot(cls, m.key);
    }
    m.req.id = i + 1;
    return m;
  }

  MixReq cold(std::size_t index) const {
    MixReq m;
    m.cls = kCold;
    m.key = index;
    m.req = grid_request(index);
    m.req.verb = serve::Verb::kSynth;
    m.req.base_seed = 20000 + seed_;
    m.req.index = index;
    return m;
  }

  const serve::Request& hot(Cls c, std::size_t k) const {
    return c == kSynthHit ? hot_synth_[k] : hot_source_[k];
  }

 private:
  static serve::Request grid_request(std::size_t point) {
    serve::Request r;
    r.gen.num_statements = kGridStmts[point / 16 % 4];
    r.gen.num_variables = kGridVars[point / 4 % 4];
    r.sched.num_procs = kGridProcs[point % 4];
    return r;
  }

  std::uint64_t seed_;
  std::vector<serve::Request> hot_synth_, hot_source_;
};

/// The program a served request schedules, rebuilt exactly as the server
/// builds it.
Program request_program(serve::SchedulerSession& session,
                        const serve::Request& r) {
  if (r.verb == serve::Verb::kSynth) {
    Rng rng = benchmark_rng(r.base_seed, r.index);
    return session.synthesize(r.gen, rng).program;
  }
  return session.compile_source(r.source);
}

// -- socket client -----------------------------------------------------------

int connect_uds(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw Error("bmbench: socket: " + serve::errno_string(errno));
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    throw Error("bmbench: socket path too long");
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    throw Error("bmbench: connect " + path + ": " + serve::errno_string(err));
  }
  return fd;
}

struct Fd {
  int fd = -1;
  explicit Fd(int f) : fd(f) {}
  ~Fd() {
    if (fd >= 0) ::close(fd);
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
};

serve::Response roundtrip(int fd, const serve::Request& r) {
  if (!serve::write_frame(fd, serve::encode_request(r)))
    throw Error("bmbench: server closed the connection");
  std::optional<std::string> p = serve::read_frame(fd);
  if (!p) throw Error("bmbench: server closed the connection");
  return serve::decode_response(*p);
}

/// Checks served schedules after the timed window: every distinct program
/// is rebuilt, its schedule parsed with schedule_from_text and re-proved
/// with verify_schedule; repeated answers must repeat byte for byte.
class ResponseChecker {
 public:
  /// Returns false if the response fails a check.
  bool add(const MixReq& m, const serve::Response& resp) {
    if (resp.status != serve::Status::kOk || resp.body.empty() ||
        resp.fingerprint.empty())
      return false;
    const std::string k = std::to_string(m.cls) + ":" + std::to_string(m.key);
    auto [it, fresh] = seen_.try_emplace(k, resp.body);
    if (fresh) pending_.push_back({m.req, k});
    return fresh || it->second == resp.body;
  }

  /// Re-verifies every distinct answer; returns the number that failed.
  std::size_t verify_all() {
    serve::SchedulerSession session;
    std::size_t bad = 0;
    for (const auto& [req, k] : pending_) {
      try {
        const Program prog = request_program(session, req);
        const InstrDag dag = InstrDag::build(prog, TimingModel::table1());
        const Schedule sched = schedule_from_text(dag, seen_.at(k));
        if (verify_schedule(dag, sched).error_count() != 0) ++bad;
      } catch (const std::exception&) {
        ++bad;
      }
    }
    verified_ = pending_.size();
    pending_.clear();
    return bad;
  }
  std::size_t verified() const { return verified_; }

 private:
  std::unordered_map<std::string, std::string> seen_;
  std::vector<std::pair<serve::Request, std::string>> pending_;
  std::size_t verified_ = 0;
};

/// The `id` header of a response payload, read without decoding the rest.
std::uint64_t response_id(const std::string& payload) {
  const std::size_t at = payload.find("\nid ");
  if (at == std::string::npos) throw Error("bmbench: response without an id");
  return std::strtoull(payload.c_str() + at + 4, nullptr, 10);
}

/// Sends every hot request once so the window starts with a warm cache.
int cmd_warm(const Args& a) {
  const Mix mix(a.u64("seed", 1));
  Fd fd(connect_uds(a.str("socket")));
  std::size_t failed = 0, id = 1;
  for (Cls c : {kSynthHit, kSourceHit})
    for (std::size_t k = 0; k < Mix::kHot; ++k) {
      serve::Request r = mix.hot(c, k);
      r.id = id++;
      if (roundtrip(fd.fd, r).status != serve::Status::kOk) ++failed;
    }
  JsonOut o;
  o.num("attempted", static_cast<double>(id - 1));
  o.num("failed", static_cast<double>(failed));
  std::printf("%s\n", o.done().c_str());
  return 0;
}

/// Open-loop generator. Request i is due at start + i/rate, whatever the
/// server does; latency is measured from the due time, so a server stall
/// delays every request due during it (no coordinated omission). Requests
/// go round-robin over the connections; each connection allows kWindow
/// requests in flight, and due requests beyond that wait in the generator's
/// backlog — the generator then runs late, which loadgen.late_* report.
int cmd_loadgen(const Args& a) {
  const std::uint64_t seed = a.u64("seed", 1);
  const double rate = a.num("rate", 2000);
  const double seconds = a.num("seconds", 5);
  const std::size_t conns = std::max<std::uint64_t>(1, a.u64("conns", 4));
  const std::size_t offset = a.u64("offset", 0);
  const long stall_pid = static_cast<long>(a.u64("stall-pid", 0));
  const double stall_at_s = a.num("stall-at", 0), stall_ms = a.num("stall-ms", 0);
  const std::size_t total =
      static_cast<std::size_t>(std::max(1.0, rate * seconds));
  const Mix mix(seed);
  constexpr long long kSpinNs = 60'000;
  constexpr std::size_t kWindow = 8;  ///< requests in flight per connection
  constexpr long kWarmupMs = 100;
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);

  std::vector<std::unique_ptr<Fd>> fds;
  for (std::size_t c = 0; c < conns; ++c)
    fds.push_back(std::make_unique<Fd>(connect_uds(a.str("socket"))));

  // Every request is built and encoded before the window, so the loop
  // itself only writes prepared frames and stores raw answers.
  std::vector<MixReq> reqs;
  std::vector<std::string> frames;
  reqs.reserve(total);
  frames.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    reqs.push_back(mix.at(offset + i));
    frames.push_back(serve::encode_request(reqs.back().req));
  }
  std::vector<std::string> answers(total);
  std::vector<Clock::time_point> got(total);
  std::vector<double> late(total, 0.0);
  // Connection c carries requests c, c + conns, ...; sent[c] is the next
  // one it sends, so its backlog is the due ones from sent[c] on.
  std::vector<std::size_t> sent(conns), inflight(conns, 0);
  for (std::size_t c = 0; c < conns; ++c) sent[c] = c;
  std::size_t attempted = 0, failed = 0, backlog_max = 0;

  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  const auto due_of = [&](std::size_t i) {
    return start + std::chrono::nanoseconds(
                       static_cast<long long>(1e9 * static_cast<double>(i) / rate));
  };
  const Clock::time_point stall_begin =
      start + std::chrono::microseconds(static_cast<long long>(stall_at_s * 1e6));
  const Clock::time_point stall_end =
      stall_begin + std::chrono::microseconds(static_cast<long long>(stall_ms * 1e3));
  bool stalled = false, stall_done = stall_pid == 0;

  std::size_t next = 0, answered = 0;  // next: first request not yet due
  const Clock::time_point give_up =
      due_of(total) + std::chrono::seconds(30);
  std::vector<pollfd> pfd(conns);
  while (answered < total) {
    Clock::time_point now = Clock::now();
    if (now > give_up) throw Error("bmbench: responses stopped arriving");
    if (!stall_done) {
      if (!stalled && now >= stall_begin) {
        ::kill(static_cast<pid_t>(stall_pid), SIGSTOP);
        stalled = true;
      } else if (stalled && now >= stall_end) {
        ::kill(static_cast<pid_t>(stall_pid), SIGCONT);
        stall_done = true;
      }
    }
    while (next < total && due_of(next) <= now) ++next;
    std::size_t waiting = 0;
    for (std::size_t c = 0; c < conns; ++c) {
      while (inflight[c] < kWindow && sent[c] < next) {
        const std::size_t i = sent[c];
        late[i] = us_between(due_of(i), Clock::now());
        if (!serve::write_frame(fds[c]->fd, frames[i]))
          throw Error("bmbench: server closed the connection");
        ++attempted;
        ++inflight[c];
        sent[c] += conns;
      }
      if (sent[c] < next) waiting += (next - sent[c] + conns - 1) / conns;
    }
    backlog_max = std::max(backlog_max, waiting);

    // Sleep until the next due time or a response, whichever comes first.
    now = Clock::now();
    long long wait_ns = 2'000'000;
    if (next < total)
      wait_ns = std::max<long long>(
          0, std::chrono::duration_cast<std::chrono::nanoseconds>(due_of(next) - now)
                 .count());
    if (!stall_done)
      wait_ns = std::min<long long>(wait_ns, 200'000);
    // Sleep to just short of the due time, then spin-poll: wake-up latency
    // would otherwise show up as generator lateness.
    wait_ns = wait_ns > kSpinNs ? wait_ns - kSpinNs : 0;
    for (std::size_t c = 0; c < conns; ++c) pfd[c] = {fds[c]->fd, POLLIN, 0};
    const timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                      static_cast<long>(wait_ns % 1'000'000'000)};
    const int ready = ::ppoll(pfd.data(), pfd.size(), &ts, nullptr);
    if (ready < 0 && errno != EINTR)
      throw Error("bmbench: ppoll: " + serve::errno_string(errno));
    for (std::size_t c = 0; ready > 0 && c < conns; ++c) {
      if ((pfd[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      std::optional<std::string> payload = serve::read_frame(fds[c]->fd);
      const Clock::time_point t = Clock::now();
      if (!payload) throw Error("bmbench: server closed the connection");
      const std::uint64_t id = response_id(*payload);
      if (id <= offset || id > offset + total || !answers[id - offset - 1].empty())
        throw Error("bmbench: unexpected response id");
      got[id - offset - 1] = t;
      answers[id - offset - 1] = std::move(*payload);
      --inflight[c];
      ++answered;
    }
  }
  if (stalled && !stall_done) ::kill(static_cast<pid_t>(stall_pid), SIGCONT);
  const double window_s = us_between(start, Clock::now()) / 1e6;

  // Decode and check the answers outside the window. Requests due in the
  // first kWarmupMs are checked but not timed: a slice starts on an idle
  // server and host, and its first tens of milliseconds are slower.
  std::vector<double> lat[3];
  std::vector<double> timed_late;
  std::size_t hot_misses = 0, bf_n = 0;
  double bf_sum = 0;
  ResponseChecker checker;
  for (std::size_t i = 0; i < total; ++i) {
    const MixReq& m = reqs[i];
    const serve::Response resp = serve::decode_response(answers[i]);
    if (due_of(i) >= start + std::chrono::milliseconds(kWarmupMs)) {
      lat[m.cls].push_back(us_between(due_of(i), got[i]));
      timed_late.push_back(late[i]);
    }
    if (!checker.add(m, resp)) ++failed;
    if (m.cls != kCold && resp.cache != serve::CacheOutcome::kHit) ++hot_misses;
    if (resp.status == serve::Status::kOk) {
      bf_sum += resp.stats.barrier_fraction();
      ++bf_n;
    }
  }

  // Server-side view, read after the window.
  serve::Request sreq;
  sreq.verb = serve::Verb::kStats;
  sreq.id = ~0ull;
  const serve::Response sresp = roundtrip(fds[0]->fd, sreq);
  const json::Value stats = json::parse(sresp.body);
  fds.clear();

  failed += checker.verify_all();

  JsonOut o;
  o.num("attempted", static_cast<double>(attempted));
  o.num("failed", static_cast<double>(failed));
  o.num("window_s", window_s);
  o.num("achieved_rps", static_cast<double>(answered) / window_s);
  o.num("verified_distinct", static_cast<double>(checker.verified()));
  o.num("hot_misses", static_cast<double>(hot_misses));
  o.num("barrier_frac_sum", bf_sum);
  o.num("barrier_frac_n", static_cast<double>(bf_n));
  for (int c = 0; c < 3; ++c)
    o.raw(std::string("lat_") + kClsName[c], num_array(lat[c]));
  o.raw("late", num_array(timed_late));
  o.num("backlog_max", static_cast<double>(backlog_max));
  o.num("server_p50_us", stats.num(0, "latency", "p50_us"));
  for (const char* ph : {"queue_wait", "fingerprint", "cache_lookup",
                         "cold_schedule", "verify", "serialize", "write_back"})
    o.num(std::string("server_") + ph + "_p50_us",
          stats.num(0, "phases", ph, "p50_us"));
  std::printf("%s\n", o.done().c_str());
  return 0;
}

/// Closed-loop batch of cold synth requests for the larger grid programs
/// over `conns` connections, one request in flight per connection: the
/// serve path's serial/parallel throughput at a fixed amount of work.
int cmd_batch(const Args& a) {
  const Mix mix(a.u64("seed", 1));
  const std::size_t count = a.u64("count", 1000);
  const std::size_t conns = std::max<std::uint64_t>(1, a.u64("conns", 1));
  const std::size_t base = a.u64("cold-base", 5000000);
  std::atomic<std::size_t> next{0}, failed{0};
  std::vector<std::unique_ptr<Fd>> fds;
  for (std::size_t c = 0; c < conns; ++c)
    fds.push_back(std::make_unique<Fd>(connect_uds(a.str("socket"))));
  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < conns; ++c)
    threads.emplace_back([&, c] {
      try {
        for (std::size_t i; (i = next.fetch_add(1)) < count;) {
          // The 32 grid points with 30 or 60 statements: scheduling work
          // dominates each request's round trip.
          MixReq m = mix.cold(base + 32 + i % 32 + 64 * (i / 32));
          m.req.id = i + 1;
          const serve::Response r = roundtrip(fds[c]->fd, m.req);
          if (r.status != serve::Status::kOk || r.id != m.req.id || r.body.empty())
            failed.fetch_add(1);
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "bmbench batch: %s\n", e.what());
        failed.fetch_add(count);
      }
    });
  for (std::thread& t : threads) t.join();
  JsonOut o;
  o.num("wall_s", us_between(t0, Clock::now()) / 1e6);
  o.num("attempted", static_cast<double>(count));
  o.num("failed", static_cast<double>(std::min(count, failed.load())));
  std::printf("%s\n", o.done().c_str());
  return 0;
}

// -- exec_native ---------------------------------------------------------------

constexpr std::size_t kCorpus = 128;  ///< exec_native programs

struct ExecItem {
  exec::LoweredProgram lp;
  std::vector<std::int64_t> init, expect;
  double barrier_frac = 0;
};

/// Seeded corpus of verified schedules, lowered once: 120-statement blocks
/// on `procs` PEs.
std::vector<ExecItem> exec_corpus(Tracer& tr, Counts& n, std::uint64_t seed,
                                  std::size_t size, std::uint32_t procs) {
  std::vector<ExecItem> corpus;
  for (std::size_t i = 0; i < size; ++i) {
    tr.set_unit(i);
    BMB_SPAN(tr, "replay.program", "bench");
    Rng rng = benchmark_rng(30000 + seed, i);
    GeneratorConfig gen;
    gen.num_statements = 120;
    gen.num_variables = 10;
    SchedulerConfig sc;
    sc.num_procs = procs;
    Scheduled s = synth_and_schedule(tr, n, gen, sc, rng);
    ExecItem it;
    it.barrier_frac = s.result.stats.barrier_fraction();
    {
      BMB_SPAN(tr, "exec.lower", "exec");
      const Clock::time_point t0 = Clock::now();
      it.lp = exec::lower(s.program, *s.result.schedule);
      n.add("exec.lower_us", us_between(t0, Clock::now()));
    }
    n.add("exec.lowered", 1);
    n.add("exec.timing_edges", static_cast<double>(it.lp.timing_edges));
    it.init.resize(s.program.num_vars());
    for (auto& v : it.init) v = rng.uniform(-1000, 1000);
    it.expect = eval_program(s.program, it.init).memory;
    corpus.push_back(std::move(it));
  }
  return corpus;
}

struct ExecCall {
  double caller_us = 0, inner_us = 0;
  std::uint64_t spins = 0, yields = 0;
  bool ok = false;
};

ExecCall exec_once(Tracer& tr, const ExecItem& it, exec::BarrierKind kind,
                   std::uint32_t threads) {
  exec::ExecOptions eo;
  eo.barrier = kind;
  eo.threads = threads;
  eo.timeline = false;
  eo.initial_memory = it.init;
  BMB_SPAN(tr, "exec.execute", "exec");
  const Clock::time_point t0 = Clock::now();
  const exec::ExecResult r = exec::execute(it.lp, eo);
  ExecCall c;
  c.caller_us = us_between(t0, Clock::now());
  c.inner_us = static_cast<double>(r.wall_ns) / 1e3;
  c.spins = r.spins;
  c.yields = r.yields;
  c.ok = r.memory == it.expect;
  return c;
}

/// Closed loop from one caller: blocking one-thread-per-PE execute() calls,
/// central and combining-tree barriers alternating, every result checked
/// against eval_program. Every 256 calls the whole corpus also runs once on
/// one cooperative carrier thread (serial) and once with a thread per PE
/// (parallel).
int cmd_exec(const Args& a) {
  const std::uint64_t seed = a.u64("seed", 1);
  const double seconds = a.num("seconds", 5);
  const auto procs = static_cast<std::uint32_t>(a.u64("procs", 4));
  Tracer off(false);
  Counts n;

  std::vector<double> setup_s;
  std::vector<ExecItem> corpus;
  for (std::uint64_t rep = 0; rep < std::max<std::uint64_t>(1, a.u64("setups", 1)); ++rep) {
    const Clock::time_point t0 = Clock::now();
    Counts scratch;
    corpus = exec_corpus(off, rep == 0 ? n : scratch, seed, kCorpus, procs);
    setup_s.push_back(us_between(t0, Clock::now()) / 1e6);
  }

  std::vector<double> calls, inner, spawn, serial_s, parallel_s;
  double spins = 0, yields = 0;
  std::size_t attempted = 0, failed = 0;
  // Calls in the first 50 ms are checked but not timed (cold start).
  const Clock::time_point timed_from = Clock::now() + std::chrono::milliseconds(50);
  for (std::size_t i = 0; Clock::now() < timed_from; ++i) {
    ++attempted;
    if (!exec_once(off, corpus[i % corpus.size()],
                   i % 2 ? exec::BarrierKind::kTree : exec::BarrierKind::kCentral, 0)
             .ok)
      ++failed;
  }
  const Clock::time_point end =
      Clock::now() + std::chrono::microseconds(static_cast<long long>(seconds * 1e6));
  for (std::size_t i = 0; Clock::now() < end || serial_s.empty(); ++i) {
    const bool is_tree = i % 2 == 1;
    const ExecItem& it = corpus[(i / 2) % corpus.size()];
    const ExecCall c = exec_once(
        off, it, is_tree ? exec::BarrierKind::kTree : exec::BarrierKind::kCentral, 0);
    ++attempted;
    if (!c.ok) ++failed;
    calls.push_back(c.caller_us);
    inner.push_back(c.inner_us);
    spawn.push_back(c.caller_us - c.inner_us);
    spins += static_cast<double>(c.spins);
    yields += static_cast<double>(c.yields);
    if (i % 256 == 255) {
      for (std::uint32_t threads : {1u, 0u}) {
        const Clock::time_point t0 = Clock::now();
        for (const ExecItem& ci : corpus) {
          ++attempted;
          if (!exec_once(off, ci, exec::BarrierKind::kCentral, threads).ok) ++failed;
        }
        (threads == 1 ? serial_s : parallel_s)
            .push_back(us_between(t0, Clock::now()) / 1e6);
      }
    }
  }
  double bf = 0;
  for (const ExecItem& it : corpus) bf += it.barrier_frac;

  JsonOut o;
  o.num("attempted", static_cast<double>(attempted));
  o.num("failed", static_cast<double>(failed));
  o.raw("setup_s", num_array(setup_s));
  o.raw("calls_us", num_array(calls));
  o.num("inner_p50_us", quantile(inner, 0.5));
  o.num("spawn_p50_us", quantile(spawn, 0.5));
  o.num("spins_per_run", spins / static_cast<double>(calls.size()));
  o.num("yields_per_run", yields / static_cast<double>(calls.size()));
  o.raw("serial_s", num_array(serial_s));
  o.raw("parallel_s", num_array(parallel_s));
  o.num("barrier_frac", bf / static_cast<double>(corpus.size()));
  o.num("corpus", static_cast<double>(corpus.size()));
  o.num("lower_us", n.get("exec.lower_us") / n.get("exec.lowered"));
  o.num("timing_edges", n.get("exec.timing_edges"));
  std::printf("%s\n", o.done().c_str());
  return 0;
}

// -- replays -------------------------------------------------------------------

/// The 10^6-tuple straight-line block of stress_megadag: loads, adds/muls
/// over recent values, and stores recycling `vars` variables.
Program mega_program(std::size_t stmts, std::uint32_t vars, Rng& rng) {
  Program p(vars);
  std::uint32_t uid = 0;
  auto var = [&] {
    return static_cast<VarId>(rng.uniform(0, static_cast<std::int64_t>(vars) - 1));
  };
  auto recent = [&](std::size_t i) {
    const auto hi = static_cast<std::int64_t>(i) - 1;
    return Operand::tuple(static_cast<TupleId>(rng.uniform(hi >= 64 ? hi - 63 : 0, hi)));
  };
  for (std::size_t i = 0; i < stmts; ++i) {
    const std::int64_t roll = i < 2 ? 0 : rng.uniform(0, 9);
    if (roll < 2) {
      p.append(Tuple::load(uid++, var()));
    } else if (roll < 9) {
      const Opcode op = roll % 2 == 0 ? Opcode::kAdd : Opcode::kMul;
      const Operand l = recent(i);
      p.append(Tuple::binary(uid++, op, l, recent(i)));
    } else {
      p.append(Tuple::store(uid++, var(), recent(i)));
    }
  }
  return p;
}

/// sched_grid: the §5 headline grid (statements × variables × PEs, 100
/// seeds a point) through codegen → opt → dag → schedule, with the
/// verifier and the VLIW baseline on every tenth seed, then one 10^6-tuple
/// mega-DAG through dag build, both list orders and the VLIW baseline.
std::size_t replay_sched_grid(Tracer& tr, Counts& n, std::uint64_t base_seed) {
  std::size_t failed = 0;
  std::uint64_t unit = 0;
  for (std::uint32_t stmts : kGridStmts)
    for (std::uint32_t vars : kGridVars)
      for (std::size_t procs : kGridProcs) {
        GeneratorConfig gen;
        gen.num_statements = stmts;
        gen.num_variables = vars;
        SchedulerConfig sc;
        sc.num_procs = procs;
        for (std::size_t i = 0; i < 100; ++i) {
          tr.set_unit(unit++);
          BMB_SPAN(tr, "replay.seed", "bench");
          Rng rng = benchmark_rng(base_seed, i);
          Scheduled s = synth_and_schedule(tr, n, gen, sc, rng);
          if (i % 10 == 0) {
            failed += verify_errors(tr, n, *s.dag, *s.result.schedule) != 0;
            BMB_SPAN(tr, "vliw.schedule_vliw", "vliw");
            n.add("vliw.makespan", static_cast<double>(
                                       schedule_vliw(*s.dag, procs).makespan));
          }
        }
      }
  tr.set_unit(unit);
  BMB_SPAN(tr, "replay.megadag", "bench");
  Rng rng = benchmark_rng(base_seed, 0);
  const Program prog = mega_program(1000000, 64, rng);
  std::unique_ptr<InstrDag> dag;
  {
    BMB_SPAN(tr, "graph.build", "graph");
    dag = std::make_unique<InstrDag>(InstrDag::build(prog, TimingModel::table1()));
  }
  n.add("graph.edges", static_cast<double>(dag->sync_edges().size()));
  std::vector<NodeId> order;
  for (const OrderingPolicy pol :
       {OrderingPolicy::kMaxThenMin, OrderingPolicy::kMinThenMax}) {
    BMB_SPAN(tr, "sched.make_list_order", "sched");
    make_list_order_into(*dag, pol, order);
  }
  if (order.size() != prog.size()) ++failed;
  BMB_SPAN(tr, "vliw.schedule_vliw", "vliw");
  n.add("vliw.makespan", static_cast<double>(schedule_vliw(*dag, 8).makespan));
  return failed;
}

/// run_cfg's block walk, decomposed so each block's simulation and value
/// evaluation get their own span: simulate_into then eval_program per
/// executed block, branch on the interpreted condition.
CfgExecResult walk_cfg(Tracer& tr, Counts& n, const CfgScheduleResult& s,
                       const CfgSimConfig& sc, std::vector<std::int64_t> memory,
                       Rng& rng, ExecTrace& trace) {
  const CfgProgram& cfg = *s.cfg;
  CfgExecResult out;
  out.memory = std::move(memory);
  out.memory.resize(cfg.num_vars(), 0);
  out.block_counts.assign(cfg.size(), 0);
  Time completion = 0;
  std::size_t transfers = 0;
  for (BlockId cur = cfg.entry();;) {
    if (out.blocks_executed >= sc.max_transfers)
      throw Error("bmbench: control-flow walk exceeded its transfer budget");
    const BasicBlock& b = cfg.block(cur);
    ++out.block_counts[cur];
    ++out.blocks_executed;
    {
      BMB_SPAN(tr, "sim.simulate_into", "sim");
      simulate_into(*s.blocks[cur].result.schedule, {sc.machine, sc.sampling},
                    rng, trace);
    }
    n.add("sim.runs", 1);
    completion += trace.completion;
    if (b.term != BasicBlock::Terminator::kExit) ++transfers;
    EvalResult eval;
    {
      BMB_SPAN(tr, "ir.eval_program", "ir");
      eval = eval_program(b.body, out.memory);
    }
    out.memory = eval.memory;
    if (b.term == BasicBlock::Terminator::kExit) break;
    cur = b.term == BasicBlock::Terminator::kJump || eval.values.at(b.cond) != 0
              ? b.taken
              : b.not_taken;
  }
  out.completion = completion + sc.control_overhead * static_cast<Time>(transfers);
  return out;
}

/// sim_replay: control_flow (generate, schedule_cfg, lockstep bound, five
/// uniform + all-max runs per program through the decomposed block walk;
/// the first program of each trip bound also through run_cfg itself, which
/// must agree exactly) and conventional_mimd (pipeline + completion summary
/// + directed-sync runs, full and reduced).
std::size_t replay_sim(Tracer& tr, Counts& n, std::uint64_t base_seed) {
  std::size_t failed = 0;
  std::uint64_t unit = 0;
  ExecTrace trace;
  double compl_sum = 0, compl_n = 0;

  CfgGeneratorConfig cg;
  cg.block = GeneratorConfig{.num_statements = 10, .num_variables = 8,
                             .num_constants = 4, .const_max = 64};
  cg.max_depth = 2;
  const SchedulerConfig sc;
  for (std::int64_t trip : {1, 2, 4, 8, 16}) {
    cg.max_trip = trip;
    for (std::size_t i = 0; i < 60; ++i) {
      tr.set_unit(unit++);
      BMB_SPAN(tr, "replay.program", "bench");
      Rng rng = benchmark_rng(base_seed, i);
      CfgProgram cfg;
      {
        BMB_SPAN(tr, "cfg.generate_cfg", "cfg");
        cfg = generate_cfg(cg, rng);
      }
      CfgScheduleResult s;
      {
        BMB_SPAN(tr, "cfg.schedule_cfg", "cfg");
        s = schedule_cfg(cfg, sc, TimingModel::table1(), rng);
      }
      n.add("sched.barriers_final", static_cast<double>(s.barriers));
      n.add("sched.implied_syncs", static_cast<double>(s.implied_syncs));
      {
        BMB_SPAN(tr, "vliw.cfg_worst_case", "vliw");
        n.add("vliw.makespan", static_cast<double>(vliw_cfg_worst_case(
                                   cfg, sc.num_procs, TimingModel::table1(), 1)));
      }
      for (int run = 0; run < 5; ++run) {
        std::vector<std::int64_t> memory(cfg.num_vars());
        for (auto& m : memory) m = rng.uniform(-100, 100);
        CfgSimConfig hi;
        hi.sampling = SamplingMode::kAllMax;
        for (const CfgSimConfig& csc : {CfgSimConfig{}, hi}) {
          if (i == 0 && run == 0) {
            Rng probe = rng;
            CfgExecResult whole;
            {
              BMB_SPAN(tr, "cfg.run_cfg", "cfg");
              whole = run_cfg(s, csc, memory, probe);
            }
            const CfgExecResult parts = walk_cfg(tr, n, s, csc, memory, rng, trace);
            if (whole.completion != parts.completion || whole.memory != parts.memory)
              ++failed;
            compl_sum += static_cast<double>(parts.completion);
          } else {
            compl_sum += static_cast<double>(
                walk_cfg(tr, n, s, csc, memory, rng, trace).completion);
          }
          compl_n += 1;
        }
      }
    }
  }

  GeneratorConfig gen;
  gen.num_statements = 60;
  gen.num_variables = 10;
  for (Time max_latency : {1, 4, 8, 16, 32}) {
    DirectedSyncConfig mcfg;
    mcfg.latency = {1, max_latency};
    for (std::size_t i = 0; i < 100; ++i) {
      tr.set_unit(unit++);
      BMB_SPAN(tr, "replay.seed", "bench");
      Rng rng = benchmark_rng(base_seed, i);
      Scheduled s = synth_and_schedule(tr, n, gen, sc, rng);
      CompletionSummary sum;
      {
        BMB_SPAN(tr, "sim.summarize_completion", "sim");
        sum = summarize_completion(*s.result.schedule, sc.machine, 5, rng);
      }
      n.add("sim.runs", 5);
      if (!(sum.min_draw <= sum.mean && sum.mean <= sum.max_draw)) ++failed;
      Rng rng2 = benchmark_rng(base_seed, i);
      Scheduled again = synth_and_schedule(tr, n, gen, sc, rng2);
      SyncReduction red;
      {
        BMB_SPAN(tr, "mimd.reduce_directed_syncs", "mimd");
        red = reduce_directed_syncs(*again.result.schedule);
      }
      for (int run = 0; run < 5; ++run) {
        BMB_SPAN(tr, "mimd.simulate_directed", "mimd");
        compl_sum += static_cast<double>(
            simulate_directed(*again.result.schedule, mcfg, rng2).trace.completion);
        simulate_directed(*again.result.schedule, mcfg, rng2, red.kept);
        compl_n += 1;
      }
    }
  }
  n.add("sim.completion_sum", compl_sum);
  n.add("sim.completion_n", compl_n);
  return failed;
}

/// serve_mix: the first `count` requests of the served stream through the
/// serving layers in-process, as ServeCore::process_scheduling runs them:
/// synthesize / compile_source, canonicalize + config digest, cache probe,
/// and on a miss dag build, schedule, serialize, rewrite into canonical ids
/// and insert.
std::size_t replay_serve(Tracer& tr, Counts& n, std::uint64_t seed,
                         std::size_t count, std::size_t cache_entries) {
  const Mix mix(seed);
  serve::SchedulerSession session;
  serve::ScheduleCache cache(cache_entries, std::size_t{64} << 20);
  std::size_t failed = 0;
  std::vector<MixReq> warm;
  for (Cls c : {kSynthHit, kSourceHit})
    for (std::size_t k = 0; k < Mix::kHot; ++k) warm.push_back({c, k, mix.hot(c, k)});
  const auto process = [&](const MixReq& m) {
    const serve::Request& r = m.req;
    Program prog;
    Rng rng = benchmark_rng(r.base_seed, r.index);
    std::uint64_t rng_key = 0;
    if (r.verb == serve::Verb::kSynth) {
      BMB_SPAN(tr, "serve.synthesize", "codegen");
      prog = session.synthesize(r.gen, rng).program;
      rng_key = (r.base_seed * 0x9E3779B97F4A7C15ull) ^ (r.index + 1) ^
                (static_cast<std::uint64_t>(r.gen.num_statements) << 40) ^
                (static_cast<std::uint64_t>(r.gen.num_variables) << 52);
    } else {
      BMB_SPAN(tr, "serve.compile_source", "codegen");
      prog = session.compile_source(r.source);
      rng = Rng(r.seed);
      rng_key = ~r.seed;
    }
    serve::CanonicalProgram canon;
    std::uint64_t digest = 0;
    {
      BMB_SPAN(tr, "serve.fingerprint", "serve");
      canon = serve::canonicalize_program(prog);
      digest = serve::config_digest(r.sched, TimingModel::table1(), rng_key);
    }
    serve::ScheduleCache::Hit hit;
    {
      BMB_SPAN(tr, "serve.cache_lookup", "serve");
      hit = cache.lookup(canon.fingerprint, digest, canon.bytes, canon.inv_perm);
    }
    if (hit.found) {
      n.add("serve.hits", 1);
      return;
    }
    n.add("serve.misses", 1);
    std::unique_ptr<InstrDag> dag;
    {
      BMB_SPAN(tr, "graph.build", "graph");
      dag = std::make_unique<InstrDag>(session.build_dag(prog, TimingModel::table1()));
    }
    n.add("graph.edges", static_cast<double>(dag->sync_edges().size()));
    ScheduleResult sr;
    {
      BMB_SPAN(tr, "serve.schedule", "sched");
      sr = session.schedule(*dag, r.sched, rng);
    }
    n.add("sched.schedules", 1);
    n.add("sched.barriers_inserted", static_cast<double>(sr.stats.barriers_inserted));
    n.add("sched.barriers_final", static_cast<double>(sr.stats.barriers_final));
    n.add("sched.merges", static_cast<double>(sr.stats.merges));
    n.add("sched.repair_barriers", static_cast<double>(sr.stats.repair_barriers));
    n.add("sched.implied_syncs", static_cast<double>(sr.stats.implied_syncs));
    std::string text;
    {
      BMB_SPAN(tr, "serialize.schedule_to_text", "serialize");
      text = schedule_to_text(*sr.schedule);
    }
    std::string canonical;
    {
      BMB_SPAN(tr, "serve.rewrite", "serve");
      canonical = serve::rewrite_schedule_ids(text, canon.perm);
    }
    if (text.empty()) ++failed;
    BMB_SPAN(tr, "serve.cache_insert", "serve");
    cache.insert(canon.fingerprint, digest, canon.bytes, std::move(canonical),
                 sr.stats);
  };
  std::uint64_t unit = 0;
  for (const MixReq& m : warm) {
    tr.set_unit(unit++);
    BMB_SPAN(tr, "replay.request", "bench");
    process(m);
  }
  for (std::size_t i = 0; i < count; ++i) {
    tr.set_unit(unit++);
    BMB_SPAN(tr, "replay.request", "bench");
    process(mix.at(i));
  }
  const serve::CacheStats cs = cache.stats();
  n.add("serve.evictions", static_cast<double>(cs.evictions));
  return failed;
}

/// exec_native: lower the corpus, then `calls` execute() calls alternating
/// central and combining-tree barriers, each checked against eval_program.
std::size_t replay_exec(Tracer& tr, Counts& n, std::uint64_t seed,
                        std::uint32_t procs, std::size_t calls) {
  const std::vector<ExecItem> corpus = exec_corpus(tr, n, seed, kCorpus, procs);
  std::size_t failed = 0;
  for (std::size_t i = 0; i < calls; ++i) {
    tr.set_unit(corpus.size() + i);
    BMB_SPAN(tr, "replay.call", "bench");
    const ExecCall c =
        exec_once(tr, corpus[(i / 2) % corpus.size()],
                  i % 2 ? exec::BarrierKind::kTree : exec::BarrierKind::kCentral, 0);
    if (!c.ok) ++failed;
  }
  return failed;
}

/// Runs one workload's replay with tracing on or off and reports wall time,
/// per-layer self time (+ unattributed), counts, and per-stage p50s.
int cmd_replay(const Args& a) {
  const std::string w = a.str("workload");
  const std::uint64_t seed = a.u64("seed", 1);
  const std::string trace_file = a.str("trace-file");
  Tracer tr(!trace_file.empty());
  Counts n;
  std::size_t failed = 0;
  const std::uint64_t t0 = tr.now_ns();
  if (w == "sched_grid")
    failed = replay_sched_grid(tr, n, a.u64("base-seed", 1990));
  else if (w == "sim_replay")
    failed = replay_sim(tr, n, a.u64("base-seed", 1990));
  else if (w == "serve_mix")
    failed = replay_serve(tr, n, seed, 8000, a.u64("cache-entries", 1024));
  else if (w == "exec_native")
    failed = replay_exec(tr, n, seed, static_cast<std::uint32_t>(a.u64("procs", 4)),
                         2000);
  else
    throw Error("bmbench replay: unknown workload " + w);
  const double wall_ns = static_cast<double>(tr.now_ns() - t0);

  JsonOut o;
  o.num("failed", static_cast<double>(failed));
  o.num("wall_ms", wall_ns / 1e6);
  o.num("spans", static_cast<double>(tr.spans().size()));
  std::string layers = "{";
  double attributed = 0;
  for (const auto& [layer, ns] : tr.self_ns_by_layer()) {
    if (layers.size() > 1) layers += ',';
    char buf[128];
    std::snprintf(buf, sizeof buf, "\"%s\":%.6f", layer.c_str(), ns / 1e6);
    layers += buf;
    attributed += ns;
  }
  layers += "}";
  o.raw("self_ms", layers);
  o.num("unattributed_ms", (wall_ns - attributed) / 1e6);
  std::string counts = "{";
  for (const auto& [k, v] : n.c) {
    if (counts.size() > 1) counts += ',';
    char buf[160];
    std::snprintf(buf, sizeof buf, "\"%s\":%.17g", k.c_str(), v);
    counts += buf;
  }
  o.raw("counts", counts + "}");
  for (const char* name :
       {"serve.fingerprint", "serve.cache_lookup", "serve.synthesize",
        "serve.compile_source", "serve.schedule", "serve.rewrite"})
    o.num(std::string(name) + "_p50_us", quantile(tr.durations_us(name), 0.5));
  o.num("cfg.schedule_ms", tr.total_ns("cfg.schedule_cfg") / 1e6);
  o.num("cfg.run_ms", tr.total_ns("cfg.run_cfg") / 1e6);
  if (tr.on()) {
    std::ofstream f(trace_file);
    obs::write_trace_events_json(f, tr.trace_events(),
                                 {{obs::kWallPid, "bmbench replay"}},
                                 {{obs::kWallPid, 0, "replay"}});
    if (!f) throw Error("bmbench: cannot write " + trace_file);
  }
  std::printf("%s\n", o.done().c_str());
  return 0;
}

int cmd_stamp() {
  JsonOut o;
  o.str("compiler", std::string("g++ ") + __VERSION__);
  o.str("build_type", BMBENCH_BUILD_TYPE);
#ifdef NDEBUG
  o.num("ndebug", 1);
#else
  o.num("ndebug", 0);
#endif
  o.num("bm_obs", BMBENCH_OBS);
  std::printf("%s\n", o.done().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: bmbench stamp|warm|loadgen|batch|exec|replay [--flag value]...\n");
    return 2;
  }
  try {
    const std::string cmd = argv[1];
    const Args a(argc, argv);
    if (cmd == "stamp") return cmd_stamp();
    if (cmd == "warm") return cmd_warm(a);
    if (cmd == "loadgen") return cmd_loadgen(a);
    if (cmd == "batch") return cmd_batch(a);
    if (cmd == "exec") return cmd_exec(a);
    if (cmd == "replay") return cmd_replay(a);
    std::fprintf(stderr, "bmbench: unknown command %s\n", cmd.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bmbench: %s\n", e.what());
    return 1;
  }
}
