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
//  * Readers follow the seqlock discipline (tag — payload — tag), with the
//    payload written by release and read by acquire std::atomic_ref
//    accesses (plain moves on x86; no fences, so ThreadSanitizer models
//    every step), so a reader overlapping a writer for a *newer* generation
//    of the same slot is race-free and detects the overlap via the re-read
//    tag.
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
  explicit CellGeomCache(std::size_t capacity) : entries_(capacity) {}

  /// Seqlock read of the core entry for (c, gen). True on hit. `tid` indexes
  /// the padded hit/miss counter slot (any small non-negative id works).
  bool load(CellId c, std::uint32_t gen, CoreView& out, int tid = 0) {
    std::array<double, 5> v;
    std::uint64_t tag = 0;
    const bool hit = read(entry(c).core, gen, kCoreGenShift, v, tag);
    (hit ? count(tid).hits : count(tid).misses)
        .fetch_add(1, std::memory_order_relaxed);
    if (!hit) return false;
    out.cs.center = {v[0], v[1], v[2]};
    out.cs.radius2 = v[3];
    out.cs.valid = (tag & kCsValidBit) != 0;
    out.surf_lb = v[4];
    out.inside = (tag & kInsideBit) != 0;
    return true;
  }

  /// Publishes the core entry for (c, gen). A no-op when another writer
  /// holds the slot or a same-or-newer generation is already present.
  void store(CellId c, std::uint32_t gen, const CoreView& v) {
    std::uint64_t flags = 0;
    if (v.cs.valid) flags |= kCsValidBit;
    if (v.inside) flags |= kInsideBit;
    publish(entry(c).core, gen, kCoreGenShift,
            {v.cs.center.x, v.cs.center.y, v.cs.center.z, v.cs.radius2,
             v.surf_lb},
            flags);
  }

  /// Seqlock read of the memoized closest_surface_point(circumcenter) for
  /// (c, gen). True on hit; `out` is nullopt when the oracle had no surface.
  bool load_closest(CellId c, std::uint32_t gen, std::optional<Vec3>& out,
                    int tid = 0) {
    std::array<double, 3> v;
    std::uint64_t tag = 0;
    const bool hit = read(entry(c).csp, gen, kCspGenShift, v, tag);
    (hit ? count(tid).csp_hits : count(tid).csp_misses)
        .fetch_add(1, std::memory_order_relaxed);
    if (!hit) return false;
    if ((tag & kCspHasBit) != 0) {
      out = Vec3{v[0], v[1], v[2]};
    } else {
      out = std::nullopt;
    }
    return true;
  }

  void store_closest(CellId c, std::uint32_t gen,
                     const std::optional<Vec3>& p) {
    const Vec3 v = p.value_or(Vec3{});
    publish(entry(c).csp, gen, kCspGenShift, {v.x, v.y, v.z},
            p.has_value() ? kCspHasBit : 0);
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

  /// One seqlocked record: a tag word and its payload.
  template <std::size_t N>
  struct Seq {
    std::atomic<std::uint64_t> tag{0};
    std::array<double, N> payload{};
  };

  struct Entry {
    Seq<5> core;  ///< circumcenter x/y/z, radius², surf_lb
    Seq<3> csp;   ///< closest surface point x/y/z
  };

  struct alignas(64) Slot {
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
    std::atomic<std::uint64_t> csp_hits{0};
    std::atomic<std::uint64_t> csp_misses{0};
  };

  /// Seqlock read (tag — payload — tag). Acquire payload loads keep the
  /// re-read of the tag after them; a payload word from a newer writer
  /// synchronizes with that writer's release store, which follows its claim,
  /// so the re-read sees the claim and reports the miss. True when the entry
  /// for `gen` was ready and unchanged across the read; `tag` then holds it.
  template <std::size_t N>
  static bool read(Seq<N>& s, std::uint32_t gen, int shift,
                   std::array<double, N>& out, std::uint64_t& tag) {
    tag = s.tag.load(std::memory_order_acquire);
    if ((tag >> shift) != std::uint64_t{gen} || (tag & kReadyBit) == 0) {
      return false;
    }
    for (std::size_t i = 0; i < N; ++i) {
      out[i] = std::atomic_ref(s.payload[i]).load(std::memory_order_acquire);
    }
    return s.tag.load(std::memory_order_relaxed) == tag;
  }

  /// Claims `s` for `gen`, writes the payload with release stores (none can
  /// move above the claim) and release-stores the ready tag with `flags`.
  template <std::size_t N>
  static void publish(Seq<N>& s, std::uint32_t gen, int shift,
                      const std::array<double, N>& in, std::uint64_t flags) {
    if (!claim(s.tag, gen, shift)) return;
    for (std::size_t i = 0; i < N; ++i) {
      std::atomic_ref(s.payload[i]).store(in[i], std::memory_order_release);
    }
    s.tag.store((std::uint64_t{gen} << shift) | kReadyBit | flags,
                std::memory_order_release);
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
