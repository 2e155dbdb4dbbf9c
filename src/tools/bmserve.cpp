// bmserve — long-lived scheduling daemon. Accepts length-prefixed protocol
// frames (docs/SERVING.md) over a Unix-domain socket and/or loopback TCP,
// schedules programs through session-scoped pipeline instances, caches
// schedules under canonical DAG fingerprints, and sheds overload with fast
// rejections. SIGTERM/SIGINT drain gracefully: every admitted request is
// answered before exit (exit code 0). SIGUSR1 dumps the `stats v1` JSON
// snapshot to stderr without disturbing service (docs/OBSERVABILITY.md).
#include <algorithm>
#include <csignal>
#include <cstdio>
#include <string>
#include <vector>

#include "serve/net.hpp"
#include "support/cli.hpp"

namespace {

bm::serve::Server* g_server = nullptr;

void on_signal(int) {
  if (g_server != nullptr) g_server->request_stop();
}

void on_dump_signal(int) {
  if (g_server != nullptr) g_server->request_dump();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bm;

  const std::vector<FlagSpec> schema = {
      string_flag("socket", "", "unix-domain socket path to listen on"),
      int_flag("port", -1, "loopback TCP port (-1 = off, 0 = ephemeral)"),
      int_flag("workers", 4, "scheduling worker threads"),
      int_flag("max-queue", 128,
               "admitted-request bound; overload is rejected"),
      int_flag("cache-entries", 4096,
               "entry bound of the schedule cache and, separately, of the "
               "front-end memo (0 = both off)"),
      int_flag("cache-mb", 64,
               "byte bound (MiB) of each of the two, schedule cache and memo"),
      string_flag("access-log", "",
                  "JSONL access log path (one line per request)"),
      int_flag("access-log-rotate-mb", 64,
               "rotate the access log past this size (MiB)"),
      int_flag("slow-trace-us", 0,
               "emit a Perfetto trace for requests slower than this (0 = off)"),
      string_flag("trace-dir", "",
                  "directory for slow-request traces (with --slow-trace-us)"),
      int_flag("slow-trace-max", 256, "stop emitting after this many traces"),
      bool_flag("quiet", false, "skip the shutdown stats report"),
  };

  try {
    const CliFlags flags(argc, argv);
    flags.validate(schema);

    const std::string socket_path = flags.get("socket", "");
    const std::int64_t port = flags.get_int("port", -1);
    if (socket_path.empty() && port < 0) {
      std::fprintf(stderr,
                   "bmserve: need --socket PATH and/or --port N "
                   "(see docs/SERVING.md)\n");
      return 2;
    }

    serve::NetConfig cfg;
    cfg.uds_path = socket_path;
    cfg.tcp_port = static_cast<int>(port);
    cfg.core.workers =
        static_cast<std::size_t>(std::max<std::int64_t>(1, flags.get_int("workers", 4)));
    cfg.core.max_queue = static_cast<std::size_t>(
        std::max<std::int64_t>(1, flags.get_int("max-queue", 128)));
    cfg.core.cache_entries = static_cast<std::size_t>(
        std::max<std::int64_t>(0, flags.get_int("cache-entries", 4096)));
    cfg.core.cache_bytes = static_cast<std::size_t>(std::max<std::int64_t>(
                               0, flags.get_int("cache-mb", 64)))
                           << 20;
    cfg.core.telemetry.access_log_path = flags.get("access-log", "");
    cfg.core.telemetry.access_log_rotate_bytes =
        static_cast<std::size_t>(std::max<std::int64_t>(
            1, flags.get_int("access-log-rotate-mb", 64)))
        << 20;
    cfg.core.telemetry.slow_trace_us = static_cast<std::uint64_t>(
        std::max<std::int64_t>(0, flags.get_int("slow-trace-us", 0)));
    cfg.core.telemetry.slow_trace_dir = flags.get("trace-dir", "");
    cfg.core.telemetry.slow_trace_max = static_cast<std::size_t>(
        std::max<std::int64_t>(0, flags.get_int("slow-trace-max", 256)));
    if (cfg.core.telemetry.slow_trace_us > 0 &&
        cfg.core.telemetry.slow_trace_dir.empty()) {
      std::fprintf(stderr, "bmserve: --slow-trace-us needs --trace-dir DIR\n");
      return 2;
    }

    serve::Server server(std::move(cfg));
    g_server = &server;
    std::signal(SIGTERM, on_signal);
    std::signal(SIGINT, on_signal);
    std::signal(SIGUSR1, on_dump_signal);

    if (!socket_path.empty())
      std::printf("bmserve: listening on %s\n", socket_path.c_str());
    if (port >= 0)
      std::printf("bmserve: listening on 127.0.0.1:%d\n", server.tcp_port());
    std::fflush(stdout);

    server.run();  // returns after the graceful drain
    g_server = nullptr;

    if (!flags.get_bool("quiet", false)) {
      const serve::CoreStats stats = server.core().stats();
      std::printf("bmserve: drained\n%s", stats.to_text().c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bmserve: %s\n", e.what());
    return 1;
  }
}
