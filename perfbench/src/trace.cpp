#include "trace.hpp"

#include <fstream>

#include "runtime/stats.hpp"
#include "telemetry/json_writer.hpp"

namespace perfbench {

SpanId Tracer::begin(std::uint64_t job, SpanId parent, const char* name) {
  if (!enabled_) return 0;
  const double t0 = pi2m::now_sec();
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back({job, parent, name, t0, t0});
  return static_cast<SpanId>(spans_.size());
}

void Tracer::end(SpanId id) {
  if (id == 0) return;
  const double t1 = pi2m::now_sec();
  std::lock_guard<std::mutex> lk(mu_);
  spans_[id - 1].t1 = t1;
}

SpanId Tracer::add(std::uint64_t job, SpanId parent, const char* name,
                   double t0, double t1) {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back({job, parent, name, t0, t1});
  return static_cast<SpanId>(spans_.size());
}

std::map<std::string, double> Tracer::self_times(std::uint64_t job) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<double> child(spans_.size(), 0.0);
  for (const Rec& r : spans_) {
    if (r.job == job && r.parent != 0) child[r.parent - 1] += r.t1 - r.t0;
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Rec& r = spans_[i];
    if (r.job == job) out[r.name] += (r.t1 - r.t0) - child[i];
  }
  return out;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::lock_guard<std::mutex> lk(mu_);
  const double origin = spans_.empty() ? 0.0 : spans_.front().t0;
  pi2m::telemetry::JsonWriter w;
  w.begin_object().key("traceEvents").begin_array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Rec& r = spans_[i];
    w.begin_object()
        .kv("name", r.name)
        .kv("ph", "X")
        .kv("pid", 1)
        .kv("tid", static_cast<std::uint64_t>(r.job))
        .kv("ts", (r.t0 - origin) * 1e6)
        .kv("dur", (r.t1 - r.t0) * 1e6)
        .key("args")
        .begin_object()
        .kv("id", static_cast<std::uint64_t>(i + 1))
        .kv("parent", static_cast<std::uint64_t>(r.parent))
        .end_object()
        .end_object();
  }
  w.end_array().end_object();
  std::ofstream f(path);
  f << w.str() << "\n";
  return static_cast<bool>(f);
}

}  // namespace perfbench
