// Host vector-capability probe and a portable fixed-lane helper.
//
// active_level() reports what the CPU offers (CPUID): kAvx2 when the host
// supports AVX2, kScalar otherwise. Nothing in the meshing path dispatches
// on it; it is recorded in benchmark host fingerprints so a result names
// the hardware that produced it. DVec4 gives data-parallel loops (the EDT
// sweeps) a fixed 4-lane shape the autovectorizer maps to SSE2/AVX code at
// the baseline target.
#pragma once

namespace pi2m::simd {

enum class Level : int {
  kScalar = 0,
  kAvx2 = 1,
};

/// The host's vector level, probed once.
inline Level active_level() {
#if defined(__x86_64__)
  static const Level detected =
      __builtin_cpu_supports("avx2") ? Level::kAvx2 : Level::kScalar;
  return detected;
#else
  return Level::kScalar;
#endif
}

inline const char* level_name(Level level) {
  return level == Level::kAvx2 ? "avx2" : "scalar";
}

// ---------------------------------------------------------------------------
// Portable fixed-width lane helper for code that wants data-parallel shape
// without per-function target attributes (EDT sweeps, distance loops). The
// ops below compile to SSE2 pairs at baseline -O2 and the fixed 4-lane
// structure keeps gcc's autovectorizer engaged.
// ---------------------------------------------------------------------------

struct DVec4 {
  double lane[4];

  static DVec4 splat(double v) { return {{v, v, v, v}}; }
  static DVec4 load(const double* p) { return {{p[0], p[1], p[2], p[3]}}; }
  void store(double* p) const {
    p[0] = lane[0];
    p[1] = lane[1];
    p[2] = lane[2];
    p[3] = lane[3];
  }

  friend DVec4 operator+(const DVec4& a, const DVec4& b) {
    return {{a.lane[0] + b.lane[0], a.lane[1] + b.lane[1],
             a.lane[2] + b.lane[2], a.lane[3] + b.lane[3]}};
  }
  friend DVec4 operator-(const DVec4& a, const DVec4& b) {
    return {{a.lane[0] - b.lane[0], a.lane[1] - b.lane[1],
             a.lane[2] - b.lane[2], a.lane[3] - b.lane[3]}};
  }
  friend DVec4 operator*(const DVec4& a, const DVec4& b) {
    return {{a.lane[0] * b.lane[0], a.lane[1] * b.lane[1],
             a.lane[2] * b.lane[2], a.lane[3] * b.lane[3]}};
  }

  /// Lanewise c.lane >= 0 ? a : b — a branchless select the compiler maps
  /// to a vector compare + blend.
  static DVec4 select_nonneg(const DVec4& c, const DVec4& a, const DVec4& b) {
    return {{c.lane[0] >= 0.0 ? a.lane[0] : b.lane[0],
             c.lane[1] >= 0.0 ? a.lane[1] : b.lane[1],
             c.lane[2] >= 0.0 ? a.lane[2] : b.lane[2],
             c.lane[3] >= 0.0 ? a.lane[3] : b.lane[3]}};
  }
};

}  // namespace pi2m::simd
