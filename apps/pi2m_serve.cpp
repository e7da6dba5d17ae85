// pi2m_serve — long-lived meshing daemon.
//
// Accepts meshing requests over a local AF_UNIX socket (newline-delimited
// JSON; see serve/protocol.hpp), runs them on a pool of executor threads
// above the shared MeshJob pipeline, and shares immutable state across
// requests: the content-addressed EDT/oracle cache and warm recycled
// arena blocks. SIGTERM/SIGINT drain gracefully — in-flight jobs finish,
// queued jobs run dry, then the process exits.
//
// Examples:
//   pi2m_serve --socket /tmp/pi2m.sock --executors 4 --threads-per-job 2
//   pi2m_submit --socket /tmp/pi2m.sock --phantom ball --size 48 --wait
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "pipeline/job_options.hpp"
#include "serve/server.hpp"

namespace {

constexpr double kMaxQueueCap = 1 << 20;
constexpr double kMaxEdtCacheMb = 1 << 20;  ///< 1 TiB; no shift overflow

void usage() {
  std::puts(
      "pi2m_serve - long-lived image-to-mesh daemon\n"
      "\n"
      "  --socket PATH           AF_UNIX socket to listen on (required)\n"
      "  --executors N           concurrent in-flight jobs, 1-256\n"
      "                          (default 4)\n"
      "  --queue-cap N           queued-job bound, 1-1048576; beyond it\n"
      "                          submissions are rejected with\n"
      "                          REJECTED_OVERLOAD (default 64)\n"
      "  --threads-per-job N     refinement workers per job when the\n"
      "                          request does not specify, 1-256\n"
      "                          (default 1)\n"
      "  --edt-cache-mb N        EDT/oracle cache budget in MiB,\n"
      "                          0-1048576 (default 256)\n"
      "  --manifest-dir DIR      write job_<id>.json run manifests here\n"
      "  --no-warm-arena         disable arena block recycling across jobs\n");
}

pi2m::serve::SocketServer* g_server = nullptr;

void on_signal(int) {
  if (g_server != nullptr) g_server->stop();  // async-signal-safe
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  pi2m::serve::ServiceConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", key.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    // A whole integer in [lo, hi], parsed as the job flags are.
    auto integer = [&](double lo, double hi) {
      double v = 0;
      const std::string why = pi2m::parse_number(next(), lo, hi, true, v);
      if (!why.empty()) {
        std::fprintf(stderr, "%s: %s\n", key.c_str(), why.c_str());
        std::exit(2);
      }
      return v;
    };
    if (key == "--help" || key == "-h") {
      usage();
      return 0;
    } else if (key == "--socket") {
      socket_path = next();
    } else if (key == "--executors") {
      cfg.executors = static_cast<int>(integer(1, pi2m::kMaxJobThreads));
    } else if (key == "--queue-cap") {
      cfg.queue_capacity = static_cast<std::size_t>(integer(1, kMaxQueueCap));
    } else if (key == "--threads-per-job") {
      cfg.default_threads = static_cast<int>(integer(1, pi2m::kMaxJobThreads));
    } else if (key == "--edt-cache-mb") {
      cfg.edt_cache_bytes = static_cast<std::size_t>(integer(0, kMaxEdtCacheMb))
                            << 20;
    } else if (key == "--manifest-dir") {
      cfg.manifest_dir = next();
    } else if (key == "--no-warm-arena") {
      cfg.warm_arena = false;
    } else {
      std::fprintf(stderr, "unknown option '%s' (try --help)\n", key.c_str());
      return 2;
    }
  }
  if (socket_path.empty()) {
    std::fprintf(stderr, "need --socket PATH (try --help)\n");
    return 2;
  }

  pi2m::serve::MeshService service(cfg);
  pi2m::serve::SocketServer server(service, socket_path);
  if (!server.ok()) {
    std::fprintf(stderr, "pi2m_serve: %s\n", server.error().c_str());
    return 1;
  }

  g_server = &server;
  struct sigaction sa{};
  sa.sa_handler = on_signal;
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
  signal(SIGPIPE, SIG_IGN);  // dead peers surface as write errors instead

  std::printf("pi2m_serve: listening on %s (%d executor(s), %d thread(s)/job, "
              "queue cap %zu)\n",
              socket_path.c_str(), cfg.executors, cfg.default_threads,
              cfg.queue_capacity);
  std::fflush(stdout);

  const bool ok = server.serve();  // drains the service before returning
  g_server = nullptr;
  if (!ok) {
    std::fprintf(stderr, "pi2m_serve: %s\n", server.error().c_str());
    return 1;
  }

  // Final registry dump for operators' logs: one 'name value' per line.
  const pi2m::telemetry::MetricsRegistry reg = service.metrics_snapshot();
  for (const auto& [name, m] : reg.all()) {
    switch (m.kind) {
      case pi2m::telemetry::MetricValue::Kind::U64:
        std::printf("%s %llu\n", name.c_str(),
                    static_cast<unsigned long long>(m.u));
        break;
      case pi2m::telemetry::MetricValue::Kind::F64:
        std::printf("%s %.9g\n", name.c_str(), m.d);
        break;
      case pi2m::telemetry::MetricValue::Kind::Bool:
        std::printf("%s %s\n", name.c_str(), m.b ? "true" : "false");
        break;
    }
  }
  std::printf("pi2m_serve: %s shutdown complete\n",
              server.drained() ? "drain" : "immediate");
  return 0;
}
