// Generation-tagged per-cell geometry cache (side arena).
//
// Motivation: a cell's derived geometry — circumsphere, EDT surface-distance
// lower bound, the inside-O test at the circumcenter, and the memoized
// closest-surface-point of the circumcenter — is a pure function of the
// cell's (immutable) vertex positions and the (static) input image. Yet the
// refinement loop recomputes all of it on every classify: at creation-time
// tagging, at every pop, on every conflict/stale retry, and once more for
// each of up to four neighbours in rule R3's scan. This arena memoizes those
// quantities per cell *slot*, keyed by the slot's generation counter.
//
// Safety argument (see DESIGN.md "Classification & oracle caching"):
//  * Entries are validated, never trusted: a reader presents the generation
//    it believes the cell has; anything else — an empty entry, an entry for
//    a previous occupant of a recycled slot, or an entry mid-write — fails
//    the tag comparison and reads as a miss. A stale read is therefore
//    *detected*, not consumed.
//  * Writers are exclusive per slot: publishing claims the tag word with a
//    CAS into a "filling" state (ready bit clear) that no other thread may
//    claim over, writes the payload, then release-stores the ready tag.
//    Claims are monotone in the generation, so a laggard thread holding a
//    stale generation can never downgrade a fresher entry.
//  * Readers follow the seqlock discipline (tag — payload — fence — tag),
//    with payload accessed through relaxed std::atomic_ref, so a reader
//    overlapping a writer for a *newer* generation of the same slot is
//    race-free and detects the overlap via the re-read tag.
//
// No locks, no waiting: a thread that loses a claim or hits a miss simply
// computes the geometry locally — the cache is an accelerator, never an
// obligation.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <optional>

#include "geometry/tetra.hpp"
#include "geometry/vec3.hpp"
#include "support/arena_pool.hpp"
#include "support/common.hpp"

namespace pi2m {

class CellGeomCache {
 public:
  /// Everything classify_cell derives from the cell alone (not from the
  /// mutable packing grids): circumsphere, the EDT lower bound on the
  /// circumcenter's distance to the surface, and whether the circumcenter
  /// lies inside O. `surf_lb` / `inside` are meaningful only when cs.valid.
  struct CoreView {
    Circumsphere cs;
    double surf_lb = 0.0;
    bool inside = false;
  };

  struct CounterTotals {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t csp_hits = 0;
    std::uint64_t csp_misses = 0;
  };

  /// Sized to the mesh's cell-slot capacity; chunks allocate on first touch
  /// (mirroring the cell arena), so memory tracks the live slot range.
  explicit CellGeomCache(std::size_t max_cells) : entries_(max_cells) {}

  /// Seqlock read of the core entry for (c, gen). True on hit. `tid` indexes
  /// the padded hit/miss counter slot (any small non-negative id works).
  bool load(CellId c, std::uint32_t gen, CoreView& out, int tid = 0) {
    Entry& e = entry(c);
    const std::uint64_t want_gen = std::uint64_t{gen};
    const std::uint64_t t1 = e.tag.load(std::memory_order_acquire);
    if ((t1 >> kCoreGenShift) != want_gen || (t1 & kReadyBit) == 0) {
      count(tid).misses.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    out.cs.center = {relaxed_load(e.cx), relaxed_load(e.cy),
                     relaxed_load(e.cz)};
    out.cs.radius2 = relaxed_load(e.r2);
    out.surf_lb = relaxed_load(e.surf_lb);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (e.tag.load(std::memory_order_relaxed) != t1) {
      count(tid).misses.fetch_add(1, std::memory_order_relaxed);
      return false;  // writer for a newer generation intervened
    }
    out.cs.valid = (t1 & kCsValidBit) != 0;
    out.inside = (t1 & kInsideBit) != 0;
    count(tid).hits.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  /// Publishes the core entry for (c, gen). A no-op when another writer
  /// holds the slot or a same-or-newer generation is already present.
  void store(CellId c, std::uint32_t gen, const CoreView& v) {
    Entry& e = entry(c);
    if (!claim(e.tag, gen, kCoreGenShift)) return;
    std::atomic_thread_fence(std::memory_order_release);
    relaxed_store(e.cx, v.cs.center.x);
    relaxed_store(e.cy, v.cs.center.y);
    relaxed_store(e.cz, v.cs.center.z);
    relaxed_store(e.r2, v.cs.radius2);
    relaxed_store(e.surf_lb, v.surf_lb);
    std::uint64_t done = (std::uint64_t{gen} << kCoreGenShift) | kReadyBit;
    if (v.cs.valid) done |= kCsValidBit;
    if (v.inside) done |= kInsideBit;
    e.tag.store(done, std::memory_order_release);
  }

  /// Seqlock read of the memoized closest_surface_point(circumcenter) for
  /// (c, gen). True on hit; `out` is nullopt when the oracle had no surface.
  bool load_closest(CellId c, std::uint32_t gen, std::optional<Vec3>& out,
                    int tid = 0) {
    Entry& e = entry(c);
    const std::uint64_t t1 = e.csp_tag.load(std::memory_order_acquire);
    if ((t1 >> kCspGenShift) != std::uint64_t{gen} || (t1 & kReadyBit) == 0) {
      count(tid).csp_misses.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    const Vec3 p{relaxed_load(e.px), relaxed_load(e.py), relaxed_load(e.pz)};
    std::atomic_thread_fence(std::memory_order_acquire);
    if (e.csp_tag.load(std::memory_order_relaxed) != t1) {
      count(tid).csp_misses.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    if ((t1 & kCspHasBit) != 0) {
      out = p;
    } else {
      out = std::nullopt;
    }
    count(tid).csp_hits.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  void store_closest(CellId c, std::uint32_t gen,
                     const std::optional<Vec3>& p) {
    Entry& e = entry(c);
    if (!claim(e.csp_tag, gen, kCspGenShift)) return;
    std::atomic_thread_fence(std::memory_order_release);
    const Vec3 v = p.value_or(Vec3{});
    relaxed_store(e.px, v.x);
    relaxed_store(e.py, v.y);
    relaxed_store(e.pz, v.z);
    std::uint64_t done = (std::uint64_t{gen} << kCspGenShift) | kReadyBit;
    if (p.has_value()) done |= kCspHasBit;
    e.csp_tag.store(done, std::memory_order_release);
  }

  [[nodiscard]] CounterTotals totals() const {
    CounterTotals t;
    for (const Slot& s : counters_) {
      t.hits += s.hits.load(std::memory_order_relaxed);
      t.misses += s.misses.load(std::memory_order_relaxed);
      t.csp_hits += s.csp_hits.load(std::memory_order_relaxed);
      t.csp_misses += s.csp_misses.load(std::memory_order_relaxed);
    }
    return t;
  }

 private:
  // Both tag words reserve bit 0 as the ready flag. A claimed-but-unpublished
  // word has the generation in place and bit 0 clear — indistinguishable from
  // "absent" to readers, unclaimable to other writers.
  static constexpr std::uint64_t kReadyBit = 1;
  static constexpr std::uint64_t kCsValidBit = 2;
  static constexpr std::uint64_t kInsideBit = 4;
  static constexpr int kCoreGenShift = 3;
  static constexpr std::uint64_t kCspHasBit = 2;
  static constexpr int kCspGenShift = 2;

  static constexpr std::size_t kCounterSlots = 64;

  struct Entry {
    std::atomic<std::uint64_t> tag{0};
    double cx = 0, cy = 0, cz = 0;
    double r2 = 0;
    double surf_lb = 0;
    std::atomic<std::uint64_t> csp_tag{0};
    double px = 0, py = 0, pz = 0;
  };

  struct alignas(64) Slot {
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
    std::atomic<std::uint64_t> csp_hits{0};
    std::atomic<std::uint64_t> csp_misses{0};
  };

  static double relaxed_load(const double& d) {
    return std::atomic_ref(const_cast<double&>(d))
        .load(std::memory_order_relaxed);
  }
  static void relaxed_store(double& d, double v) {
    std::atomic_ref(d).store(v, std::memory_order_relaxed);
  }

  /// Takes the tag from an absent/ready state of a strictly older generation
  /// to the filling state `gen << shift` (ready bit clear). Monotonicity plus
  /// the ready-bit requirement make writers exclusive: nobody can claim over
  /// an in-flight fill, and stale generations can never displace fresh ones.
  static bool claim(std::atomic<std::uint64_t>& tag, std::uint32_t gen,
                    int shift) {
    std::uint64_t t = tag.load(std::memory_order_relaxed);
    if ((t & kReadyBit) == 0 && t != 0) return false;  // writer in flight
    if ((t >> shift) >= std::uint64_t{gen}) return false;  // same or newer
    return tag.compare_exchange_strong(t, std::uint64_t{gen} << shift,
                                       std::memory_order_acq_rel,
                                       std::memory_order_relaxed);
  }

  Entry& entry(CellId c) { return entries_.ensure(c); }

  Slot& count(int tid) {
    return counters_[static_cast<std::size_t>(tid) & (kCounterSlots - 1)];
  }

  ChunkArray<Entry> entries_;
  std::array<Slot, kCounterSlots> counters_{};
};

}  // namespace pi2m
