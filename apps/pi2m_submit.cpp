// pi2m_submit — protocol client for the pi2m_serve daemon.
//
// One invocation, one request: submit a meshing job (optionally waiting
// for its result), or poll/cancel/inspect by id. Talks the newline-
// delimited JSON protocol of serve/protocol.hpp over the daemon's AF_UNIX
// socket and prints the raw JSON response, so scripts can pipe it
// straight into a JSON parser.
//
// Examples:
//   pi2m_submit --socket /tmp/pi2m.sock --phantom ball --size 48 --wait
//   pi2m_submit --socket /tmp/pi2m.sock --status 3
//   pi2m_submit --socket /tmp/pi2m.sock --cancel 3
//   pi2m_submit --socket /tmp/pi2m.sock --stats
//   pi2m_submit --socket /tmp/pi2m.sock --shutdown
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "pipeline/job_options.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "telemetry/json_writer.hpp"

namespace {

void usage() {
  std::printf(
      "pi2m_submit - client for the pi2m_serve daemon\n"
      "\n"
      "connection:\n"
      "  --socket PATH           daemon socket (required)\n"
      "\n"
      "actions (default: submit a job):\n"
      "  --ping                  liveness check\n"
      "  --status ID             one job's state\n"
      "  --cancel ID             request cancellation\n"
      "  --result ID             fetch a finished job's manifest\n"
      "  --stats                 serve.* metrics snapshot\n"
      "  --shutdown              graceful drain (--shutdown-now: cancel all)\n"
      "\n"
      "submit:\n"
      "  --priority P            high|normal|low (default normal)\n"
      "  --wait                  poll until the job finishes, print the\n"
      "                          result response, exit non-zero on failure\n"
      "  (job flags below; paths are on the daemon host. A refused value\n"
      "  prints the BAD_REQUEST response the daemon would send, exit 2.)\n"
      "\n%s",
      pi2m::job_options_help(pi2m::Surface::Wire, pi2m::wire_job_defaults())
          .c_str());
}

struct Action {
  std::string socket;
  std::string op;  // "" = submit
  std::uint64_t id = 0;
  bool wait = false;
  std::string priority;
  pi2m::JobSpec job = pi2m::wire_job_defaults();
};

std::string build_request(const Action& a) {
  pi2m::telemetry::JsonWriter w;
  w.begin_object();
  if (!a.op.empty()) {
    if (a.op == "shutdown_now") {
      w.kv("op", "shutdown").kv("mode", "now");
    } else {
      w.kv("op", a.op);
      if (a.op == "status" || a.op == "cancel" || a.op == "result") {
        w.kv("id", a.id);
      }
    }
    w.end_object();
    return w.str();
  }
  w.kv("op", "submit");
  if (!a.priority.empty()) w.kv("priority", a.priority);
  w.key("job").raw(pi2m::serve::encode_job(a.job));
  w.end_object();
  return w.str();
}

/// One round-trip; prints the response line. Returns the parsed response
/// (null on transport failure, with exit diagnostics already printed).
pi2m::serve::JsonValue roundtrip(const std::string& socket,
                                 const std::string& request, bool quiet) {
  std::string response, error;
  if (!pi2m::serve::request_over_socket(socket, request, &response, &error)) {
    std::fprintf(stderr, "pi2m_submit: %s\n", error.c_str());
    return {};
  }
  if (!quiet) std::printf("%s\n", response.c_str());
  std::string perr;
  pi2m::serve::JsonValue v = pi2m::serve::json_parse(response, &perr);
  if (!v.is_object()) {
    std::fprintf(stderr, "pi2m_submit: bad response: %s\n", perr.c_str());
    return {};
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  Action a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    std::string error;
    if (pi2m::parse_job_flag(argc, argv, i, pi2m::Surface::Wire, a.job,
                             error)) {
      if (!error.empty()) {
        // The response the daemon gives a refused job, so scripts see one
        // failure shape whichever side caught the value.
        std::printf("%s\n", pi2m::serve::error_response(
                                 pi2m::serve::kBadRequest, error)
                                 .c_str());
        return 2;
      }
      continue;
    }
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", key.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (key == "--help" || key == "-h") {
      usage();
      return 0;
    } else if (key == "--socket") {
      a.socket = next();
    } else if (key == "--ping") {
      a.op = "ping";
    } else if (key == "--status") {
      a.op = "status";
      a.id = std::strtoull(next(), nullptr, 10);
    } else if (key == "--cancel") {
      a.op = "cancel";
      a.id = std::strtoull(next(), nullptr, 10);
    } else if (key == "--result") {
      a.op = "result";
      a.id = std::strtoull(next(), nullptr, 10);
    } else if (key == "--stats") {
      a.op = "stats";
    } else if (key == "--shutdown") {
      a.op = "shutdown";
    } else if (key == "--shutdown-now") {
      a.op = "shutdown_now";
    } else if (key == "--wait") {
      a.wait = true;
    } else if (key == "--priority") {
      a.priority = next();
    } else {
      std::fprintf(stderr, "unknown option '%s' (try --help)\n", key.c_str());
      return 2;
    }
  }
  if (a.socket.empty()) {
    std::fprintf(stderr, "need --socket PATH (try --help)\n");
    return 2;
  }
  if (a.op.empty() && a.job.input_path.empty() && a.job.phantom.empty()) {
    std::fprintf(stderr, "need an action or a job (--input/--phantom)\n");
    return 2;
  }

  const pi2m::serve::JsonValue res =
      roundtrip(a.socket, build_request(a), /*quiet=*/a.wait && a.op.empty());
  if (!res.is_object()) return 1;
  if (!res["ok"].as_bool()) return 1;

  if (!a.wait || !a.op.empty()) return 0;

  // --wait: poll status until terminal, then print the result response.
  const auto id = static_cast<std::uint64_t>(res["id"].as_int());
  pi2m::telemetry::JsonWriter sw;
  sw.begin_object().kv("op", "status").kv("id", id).end_object();
  const std::string status_req = sw.str();
  while (true) {
    const pi2m::serve::JsonValue st =
        roundtrip(a.socket, status_req, /*quiet=*/true);
    if (!st.is_object() || !st["ok"].as_bool()) return 1;
    const std::string& state = st["state"].as_string();
    if (state != "queued" && state != "running") break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  pi2m::telemetry::JsonWriter rw;
  rw.begin_object().kv("op", "result").kv("id", id).end_object();
  const pi2m::serve::JsonValue result =
      roundtrip(a.socket, rw.str(), /*quiet=*/false);
  if (!result.is_object() || !result["ok"].as_bool()) return 1;
  return result["state"].as_string() == "done" ? 0 : 1;
}
