#include "telemetry/run_manifest.hpp"

#include <cstdio>
#include <ctime>
#include <thread>

#include "telemetry/json_writer.hpp"

namespace pi2m::telemetry {

const char* build_git_describe() {
#ifdef PI2M_GIT_DESCRIBE
  return PI2M_GIT_DESCRIBE;
#else
  return "unknown";
#endif
}

std::string iso8601_utc_now() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
#if defined(_WIN32)
  gmtime_s(&tm, &now);
#else
  gmtime_r(&now, &tm);
#endif
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

std::string RunManifest::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.kv("schema", "pi2m-manifest");
  w.kv("schema_version", kSchemaVersion);
  w.kv("tool", tool);
  w.kv("git", git);
  w.kv("timestamp", timestamp);
  w.key("host").begin_object();
  w.kv("hardware_threads",
       static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  w.end_object();
  w.key("config").begin_object();
  for (const auto& [k, v] : config) {
    std::visit([&, &k = k](const auto& x) { w.kv(k, x); }, v);
  }
  w.end_object();
  w.key("phases").begin_object();
  for (const auto& [name, sec] : phases) w.kv(name, sec);
  w.end_object();
  w.key("metrics");
  metrics.write_json(w);
  if (!notes.empty()) w.kv("notes", notes);
  w.end_object();
  return w.str();
}

bool RunManifest::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const std::string json = to_json();
  bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  ok = std::fputc('\n', f) != EOF && ok;
  return std::fclose(f) == 0 && ok;
}

}  // namespace pi2m::telemetry
