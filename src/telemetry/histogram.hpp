// Lock-free log-bucketed latency histogram for service-level metrics.
//
// Fixed storage (one array of atomic counters), safe for concurrent
// record() from any thread, and cheap enough to sit on every job
// completion. Buckets are HDR-style: values are whole microseconds, the
// first kSub buckets hold 0..kSub-1 µs exactly, and every power of two
// above that is split into kSub = 8 equal-width sub-buckets, so a bucket
// is at most 1/8 of its lower bound wide.
//
// Percentiles are estimated from the bucket counts with the midpoint of
// the winning bucket (error at most 1/16 of the value from 8 µs up) and
// clamped to the recorded maximum, so no estimate ever exceeds max_sec.
// publish() emits the standard snapshot (count/sum/max + p50/p90/p95/p99)
// under a dotted prefix so the registry dump and run manifests carry
// service latency without bespoke plumbing.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>

#include "telemetry/metrics_registry.hpp"

namespace pi2m::telemetry {

class LatencyHistogram {
 public:
  static constexpr int kSubBits = 3;
  static constexpr int kSub = 1 << kSubBits;  ///< sub-buckets per octave
  /// Octaves 2^kSubBits .. 2^37 µs (~38 hours, more than any job latency);
  /// larger values land in the last bucket.
  static constexpr int kMaxOctave = 37;
  static constexpr int kBuckets = kSub + (kMaxOctave - kSubBits) * kSub;

  void record_sec(double seconds) {
    const double us = seconds * 1e6;
    const std::uint64_t ticks =
        us <= 1.0 ? 1 : static_cast<std::uint64_t>(us);
    buckets_[bucket_of(ticks)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_us_.fetch_add(ticks, std::memory_order_relaxed);
    std::uint64_t prev = max_us_.load(std::memory_order_relaxed);
    while (ticks > prev && !max_us_.compare_exchange_weak(
                               prev, ticks, std::memory_order_relaxed)) {
    }
  }

  struct Snapshot {
    std::uint64_t count = 0;
    double sum_sec = 0.0;
    double max_sec = 0.0;
    double p50_sec = 0.0;
    double p90_sec = 0.0;
    double p95_sec = 0.0;
    double p99_sec = 0.0;
  };

  [[nodiscard]] Snapshot snapshot() const {
    Snapshot s;
    std::array<std::uint64_t, kBuckets> b{};
    for (int i = 0; i < kBuckets; ++i) {
      b[i] = buckets_[i].load(std::memory_order_relaxed);
      s.count += b[i];
    }
    s.sum_sec = 1e-6 * static_cast<double>(
                           sum_us_.load(std::memory_order_relaxed));
    s.max_sec = 1e-6 * static_cast<double>(
                           max_us_.load(std::memory_order_relaxed));
    s.p50_sec = std::min(percentile(b, s.count, 0.50), s.max_sec);
    s.p90_sec = std::min(percentile(b, s.count, 0.90), s.max_sec);
    s.p95_sec = std::min(percentile(b, s.count, 0.95), s.max_sec);
    s.p99_sec = std::min(percentile(b, s.count, 0.99), s.max_sec);
    return s;
  }

  /// Publishes "<prefix>.count", ".sum_sec", ".max_sec", ".p50_sec",
  /// ".p90_sec", ".p95_sec", ".p99_sec".
  void publish(MetricsRegistry& reg, std::string_view prefix) const {
    const Snapshot s = snapshot();
    const std::string p(prefix);
    reg.set(p + ".count", s.count);
    reg.set(p + ".sum_sec", s.sum_sec);
    reg.set(p + ".max_sec", s.max_sec);
    reg.set(p + ".p50_sec", s.p50_sec);
    reg.set(p + ".p90_sec", s.p90_sec);
    reg.set(p + ".p95_sec", s.p95_sec);
    reg.set(p + ".p99_sec", s.p99_sec);
  }

 private:
  /// Bucket index of a value in µs: exact below kSub, else octave o (the
  /// value's top bit) and the next kSubBits bits as the sub-bucket.
  static int bucket_of(std::uint64_t ticks) {
    if (ticks < kSub) return static_cast<int>(ticks);
    const int o = 63 - std::countl_zero(ticks);
    if (o >= kMaxOctave) return kBuckets - 1;
    const int sub = static_cast<int>((ticks >> (o - kSubBits)) & (kSub - 1));
    return kSub + (o - kSubBits) * kSub + sub;
  }

  /// Midpoint of bucket i in µs (the inverse of bucket_of).
  static double bucket_mid_us(int i) {
    if (i < kSub) return static_cast<double>(i) + 0.5;
    const int shift = (i - kSub) / kSub;  // octave - kSubBits
    const double width = std::ldexp(1.0, shift);
    const double lo = static_cast<double>(kSub + (i - kSub) % kSub) * width;
    return lo + 0.5 * width;
  }

  static double percentile(const std::array<std::uint64_t, kBuckets>& b,
                           std::uint64_t count, double q) {
    if (count == 0) return 0.0;
    const auto rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(count)));
    std::uint64_t seen = 0;
    for (int i = 0; i < kBuckets; ++i) {
      seen += b[i];
      if (seen >= std::max<std::uint64_t>(rank, 1)) {
        return 1e-6 * bucket_mid_us(i);
      }
    }
    return 0.0;
  }

  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_us_{0};
  std::atomic<std::uint64_t> max_us_{0};
};

}  // namespace pi2m::telemetry
