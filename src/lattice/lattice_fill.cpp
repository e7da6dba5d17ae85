#include "lattice/lattice_fill.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <numeric>

#include "check/oplog.hpp"
#include "support/common.hpp"
#include "support/parallel_for.hpp"

namespace pi2m {

const char* interior_name(InteriorFill k) {
  switch (k) {
    case InteriorFill::Delaunay: return "delaunay";
    case InteriorFill::Lattice: return "lattice";
  }
  return "?";
}

std::optional<InteriorFill> parse_interior_name(std::string_view s) {
  if (s == "delaunay") return InteriorFill::Delaunay;
  if (s == "lattice") return InteriorFill::Lattice;
  return std::nullopt;
}

namespace lattice {

namespace {

/// Doubled-integer lattice point keys, 21 bits per axis (even coordinates =
/// cube corners, odd = cube centers), z-major.
constexpr int kAxisBits = 21;
constexpr std::uint64_t kAxisMask = (std::uint64_t{1} << kAxisBits) - 1;

std::uint64_t pack_key(std::int64_t dx, std::int64_t dy, std::int64_t dz) {
  return (static_cast<std::uint64_t>(dz) << (2 * kAxisBits)) |
         (static_cast<std::uint64_t>(dy) << kAxisBits) |
         static_cast<std::uint64_t>(dx);
}

void unpack_key(std::uint64_t key, std::int64_t& dx, std::int64_t& dy,
                std::int64_t& dz) {
  dx = static_cast<std::int64_t>(key & kAxisMask);
  dy = static_cast<std::int64_t>((key >> kAxisBits) & kAxisMask);
  dz = static_cast<std::int64_t>((key >> (2 * kAxisBits)) & kAxisMask);
}

/// Occupancy clearance in cube-size units beyond the 2δ surface band:
/// (√3/2)a center-to-corner + √3·a guard-ring reach = (3√3/2)a ≈ 2.598a,
/// rounded up for fp slack. Every point of the guard zone G then sits at
/// true distance >= 2δ from ∂O, so surface sampling never collides with it.
constexpr double kBandCubes = 2.7;

/// Memory ceiling for the cube grid (label + erosion bytes per cube).
constexpr std::size_t kMaxCubes = std::size_t{1} << 24;

/// BRIO round count: rounds are added while the sparsest round would still
/// expect at least this many seeds.
constexpr std::size_t kBrioFirstRound = 64;

/// Rounds with at least this many seeds are inserted concurrently, one
/// Morton block per thread; smaller ones run on the calling thread, where
/// thread start-up and block-boundary conflicts would cost more than the
/// parallelism saves.
constexpr std::size_t kParallelRound = 2048;

/// splitmix64 finalizer: the fixed key hash that picks a seed's round.
std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Spreads the low 21 bits of v to every third bit (Morton interleave).
std::uint64_t spread3(std::uint64_t v) {
  v &= kAxisMask;
  v = (v | v << 32) & 0x1f00000000ffffull;
  v = (v | v << 16) & 0x1f0000ff0000ffull;
  v = (v | v << 8) & 0x100f00f00f00f00full;
  v = (v | v << 4) & 0x10c30c30c30c30c3ull;
  v = (v | v << 2) & 0x1249249249249249ull;
  return v;
}

std::uint64_t morton_of(std::uint64_t key) {
  std::int64_t dx, dy, dz;
  unpack_key(key, dx, dy, dz);
  return spread3(static_cast<std::uint64_t>(dx)) |
         spread3(static_cast<std::uint64_t>(dy)) << 1 |
         spread3(static_cast<std::uint64_t>(dz)) << 2;
}

/// Inserts one seed on the calling thread, retrying transient outcomes.
/// Seeding owns the mesh at this point (no concurrent operation), so
/// anything but Success is a kernel failure.
VertexId insert_seed(DelaunayMesh& mesh, const Vec3& p, CellId& hint,
                     OpScratch& scratch) {
  OpResult res;
  int attempts = 0;
  do {
    res = insert_point(mesh, p, VertexKind::Lattice, hint, 0, scratch);
  } while (res.status != OpStatus::Success &&
           res.status != OpStatus::Failed && ++attempts < 64);
  PI2M_CHECK(res.status == OpStatus::Success,
             "lattice interface seed insertion failed");
  hint = scratch.created.front();
  return res.new_vertex;
}

}  // namespace

Vec3 LatticeFill::cube_center(int i, int j, int k) const {
  return {origin_.x + (i + 0.5) * a_, origin_.y + (j + 0.5) * a_,
          origin_.z + (k + 0.5) * a_};
}

Vec3 LatticeFill::point_of(std::uint64_t key) const {
  std::int64_t dx, dy, dz;
  unpack_key(key, dx, dy, dz);
  const double h = 0.5 * a_;
  return {origin_.x + dx * h, origin_.y + dy * h, origin_.z + dz * h};
}

LatticeFill::LatticeFill(const IsosurfaceOracle& oracle, double delta,
                         double spacing, int threads) {
  PI2M_CHECK(delta > 0.0, "LatticeFill: delta must be positive");
  a_ = spacing > 0.0 ? spacing : 2.0 * delta;
  band_ = 2.0 * delta + kBandCubes * a_;

  const Aabb ib = oracle.image().bounds();
  origin_ = ib.lo;
  const Vec3 ext = ib.extent();
  auto dims_for = [&](double a) {
    std::array<std::int64_t, 3> d;
    d[0] = static_cast<std::int64_t>(std::floor(ext.x / a));
    d[1] = static_cast<std::int64_t>(std::floor(ext.y / a));
    d[2] = static_cast<std::int64_t>(std::floor(ext.z / a));
    return d;
  };
  auto d = dims_for(a_);
  while (d[0] > 0 && d[1] > 0 && d[2] > 0 &&
         (static_cast<std::size_t>(d[0]) * static_cast<std::size_t>(d[1]) *
                  static_cast<std::size_t>(d[2]) >
              kMaxCubes ||
          d[0] >= (1 << (kAxisBits - 1)) || d[1] >= (1 << (kAxisBits - 1)) ||
          d[2] >= (1 << (kAxisBits - 1)))) {
    a_ *= 2.0;
    band_ = 2.0 * delta + kBandCubes * a_;
    d = dims_for(a_);
  }
  ncx_ = static_cast<int>(std::max<std::int64_t>(0, d[0]));
  ncy_ = static_cast<int>(std::max<std::int64_t>(0, d[1]));
  ncz_ = static_cast<int>(std::max<std::int64_t>(0, d[2]));
  stats_.cube_size = a_;
  stats_.cubes_total = static_cast<std::size_t>(ncx_) *
                       static_cast<std::size_t>(ncy_) *
                       static_cast<std::size_t>(ncz_);
  if (stats_.cubes_total == 0) return;

  build_occupancy(oracle, threads);
  if (stats_.cubes_filled == 0) return;
  erode_deep(threads);
  collect_faces(threads);
  collect_seed_keys();
}

void LatticeFill::build_occupancy(const IsosurfaceOracle& oracle,
                                  int threads) {
  const std::size_t n = stats_.cubes_total;
  occ_.assign(n, Label{0});
  std::atomic<std::size_t> filled{0};
  parallel_blocks(n, threads, [&](std::size_t lo, std::size_t hi) {
    std::size_t local = 0;
    for (std::size_t ci = lo; ci < hi; ++ci) {
      const int i = static_cast<int>(ci % static_cast<std::size_t>(ncx_));
      const int j = static_cast<int>((ci / static_cast<std::size_t>(ncx_)) %
                                     static_cast<std::size_t>(ncy_));
      const int k = static_cast<int>(ci / (static_cast<std::size_t>(ncx_) *
                                           static_cast<std::size_t>(ncy_)));
      const Vec3 c = cube_center(i, j, k);
      // The EDT lower bound never overestimates, so `>= band_` certifies
      // the whole cube (and its guard ring) is deep inside one material:
      // the bound measures distance to ANY label change, internal
      // interfaces included, hence a deep cube is automatically uniform.
      if (oracle.surface_distance_lower_bound(c) < band_) continue;
      if (!oracle.inside(c)) continue;  // deep *outside* is also far from ∂O
      const Label lab = oracle.label_at(c);
      if (lab == 0) continue;
      occ_[ci] = lab;
      ++local;
    }
    filled.fetch_add(local, std::memory_order_relaxed);
  });
  stats_.cubes_filled = filled.load();
}

void LatticeFill::erode_deep(int threads) {
  // Chebyshev-radius-2 erosion of the occupancy bitmap, separable into
  // three radius-2 1D min passes; out-of-grid counts as unoccupied. A point
  // all of whose incident cubes survive erosion cannot belong to a
  // boundary disphenoid (those have an unoccupied cube within Chebyshev
  // distance 2 of both of their face's cubes) and needs no kernel seed.
  const std::size_t n = stats_.cubes_total;
  std::vector<std::uint8_t> a(n), b(n);
  for (std::size_t i = 0; i < n; ++i) a[i] = occ_[i] != 0 ? 1 : 0;

  const std::ptrdiff_t stride[3] = {
      1, ncx_, static_cast<std::ptrdiff_t>(ncx_) * ncy_};
  const int extent[3] = {ncx_, ncy_, ncz_};
  auto pass = [&](const std::vector<std::uint8_t>& src,
                  std::vector<std::uint8_t>& dst, int axis) {
    parallel_blocks(n, threads, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t ci = lo; ci < hi; ++ci) {
        const int coord[3] = {
            static_cast<int>(ci % static_cast<std::size_t>(ncx_)),
            static_cast<int>((ci / static_cast<std::size_t>(ncx_)) %
                             static_cast<std::size_t>(ncy_)),
            static_cast<int>(ci / (static_cast<std::size_t>(ncx_) *
                                   static_cast<std::size_t>(ncy_)))};
        std::uint8_t m = 1;
        for (int o = -2; o <= 2; ++o) {
          const int c = coord[axis] + o;
          if (c < 0 || c >= extent[axis]) {
            m = 0;
            break;
          }
          if (!src[static_cast<std::size_t>(
                  static_cast<std::ptrdiff_t>(ci) + o * stride[axis])]) {
            m = 0;
            break;
          }
        }
        dst[ci] = m;
      }
    });
  };
  pass(a, b, 0);
  pass(b, a, 1);
  pass(a, b, 2);
  deep_ = std::move(b);
}

void LatticeFill::collect_faces(int threads) {
  const std::size_t n = stats_.cubes_total;
  // Mirror parallel_blocks' chunking so per-block buffers merge in a
  // deterministic order regardless of thread scheduling.
  const std::size_t t =
      std::min<std::size_t>(static_cast<std::size_t>(std::max(1, threads)), n);
  const std::size_t chunk = (n + t - 1) / t;
  std::vector<std::vector<std::uint64_t>> parts(t);
  parallel_blocks(n, static_cast<int>(t), [&](std::size_t lo, std::size_t hi) {
    std::vector<std::uint64_t>& out = parts[lo / chunk];
    for (std::size_t ci = lo; ci < hi; ++ci) {
      const Label lab = occ_[ci];
      if (lab == 0) continue;
      const int i = static_cast<int>(ci % static_cast<std::size_t>(ncx_));
      const int j = static_cast<int>((ci / static_cast<std::size_t>(ncx_)) %
                                     static_cast<std::size_t>(ncy_));
      const int k = static_cast<int>(ci / (static_cast<std::size_t>(ncx_) *
                                           static_cast<std::size_t>(ncy_)));
      const std::size_t nb[3] = {
          i + 1 < ncx_ ? cube_index(i + 1, j, k) : std::size_t(-1),
          j + 1 < ncy_ ? cube_index(i, j + 1, k) : std::size_t(-1),
          k + 1 < ncz_ ? cube_index(i, j, k + 1) : std::size_t(-1)};
      for (int axis = 0; axis < 3; ++axis) {
        if (nb[axis] == std::size_t(-1) || occ_[nb[axis]] != lab) continue;
        out.push_back((static_cast<std::uint64_t>(ci) << 2) |
                      static_cast<std::uint64_t>(axis));
      }
    }
  });
  std::size_t total = 0;
  for (const auto& p : parts) total += p.size();
  faces_.reserve(total);
  for (const auto& p : parts) {
    faces_.insert(faces_.end(), p.begin(), p.end());
  }
  stats_.faces = faces_.size();
  stats_.tets = 4 * faces_.size();
}

void LatticeFill::collect_seed_keys() {
  // A disphenoid with a face on ∂L belongs to an instantiated face whose
  // two cubes both fail the radius-2 erosion (the missing neighbour tet
  // lives one cube over). Seeding all 6 lattice points of every such face
  // therefore covers every boundary disphenoid vertex; the over-seeding of
  // nearby interior points is harmless (they are BCC points too).
  for (const std::uint64_t f : faces_) {
    const std::size_t ci = static_cast<std::size_t>(f >> 2);
    const int axis = static_cast<int>(f & 3);
    const std::size_t plane = static_cast<std::size_t>(ncx_) *
                              static_cast<std::size_t>(ncy_);
    const int i = static_cast<int>(ci % static_cast<std::size_t>(ncx_));
    const int j = static_cast<int>((ci / static_cast<std::size_t>(ncx_)) %
                                   static_cast<std::size_t>(ncy_));
    const int k = static_cast<int>(ci / plane);
    const std::ptrdiff_t stride[3] = {1, ncx_,
                                      static_cast<std::ptrdiff_t>(plane)};
    const std::size_t cj = ci + static_cast<std::size_t>(stride[axis]);
    if (deep_[ci] && deep_[cj]) continue;

    std::int64_t c1[3] = {i, j, k};
    std::int64_t c2[3] = {i, j, k};
    ++c2[axis];
    seed_keys_.push_back(
        pack_key(2 * c1[0] + 1, 2 * c1[1] + 1, 2 * c1[2] + 1));
    seed_keys_.push_back(
        pack_key(2 * c2[0] + 1, 2 * c2[1] + 1, 2 * c2[2] + 1));
    const int u = (axis + 1) % 3, v = (axis + 2) % 3;
    std::int64_t base[3] = {2 * c1[0], 2 * c1[1], 2 * c1[2]};
    base[axis] += 2;
    for (int du = 0; du <= 2; du += 2) {
      for (int dv = 0; dv <= 2; dv += 2) {
        std::int64_t q[3] = {base[0], base[1], base[2]};
        q[u] += du;
        q[v] += dv;
        seed_keys_.push_back(pack_key(q[0], q[1], q[2]));
      }
    }
  }
  std::sort(seed_keys_.begin(), seed_keys_.end());
  seed_keys_.erase(std::unique(seed_keys_.begin(), seed_keys_.end()),
                   seed_keys_.end());
  stats_.interface_vertices = seed_keys_.size();

  // Insertion order (BRIO): a seed lands in the last round with
  // probability 1/2, the one before with 1/4, and so on, the first round
  // taking the remainder; each round is Morton-sorted. Sparse rounds first
  // keep cavities small on the cospherical lattice, where a sweep in key
  // order drags a wide front of degenerate cells along.
  const std::size_t n = seed_keys_.size();
  int rounds = 1;
  while ((n >> rounds) >= kBrioFirstRound) ++rounds;
  struct Slot {
    int round;
    std::uint64_t morton, key;
  };
  std::vector<Slot> order;
  order.reserve(n);
  for (const std::uint64_t key : seed_keys_) {
    const int from_last =
        std::min(std::countr_one(mix64(key)), rounds - 1);
    order.push_back({rounds - 1 - from_last, morton_of(key), key});
  }
  std::sort(order.begin(), order.end(), [](const Slot& a, const Slot& b) {
    return a.round != b.round ? a.round < b.round : a.morton < b.morton;
  });
  round_end_.assign(static_cast<std::size_t>(rounds), 0);
  for (std::size_t i = 0; i < n; ++i) {
    seed_keys_[i] = order[i].key;
    ++round_end_[static_cast<std::size_t>(order[i].round)];
  }
  std::partial_sum(round_end_.begin(), round_end_.end(), round_end_.begin());
}

bool LatticeFill::contains(const Vec3& p, Label* label) const {
  if (occ_.empty()) return false;
  const std::int64_t i =
      static_cast<std::int64_t>(std::floor((p.x - origin_.x) / a_));
  const std::int64_t j =
      static_cast<std::int64_t>(std::floor((p.y - origin_.y) / a_));
  const std::int64_t k =
      static_cast<std::int64_t>(std::floor((p.z - origin_.z) / a_));
  if (!cube_in_grid(i, j, k)) return false;
  const std::size_t ci = cube_index(static_cast<int>(i), static_cast<int>(j),
                                    static_cast<int>(k));
  const Label lab = occ_[ci];
  if (lab == 0) return false;
  // L is the union of center-to-face pyramids whose face is instantiated.
  // The pyramid containing p is the one toward the dominant axis of the
  // offset from the cube center; it is filled iff the neighbour across
  // that face is occupied with the same label.
  const Vec3 c = cube_center(static_cast<int>(i), static_cast<int>(j),
                             static_cast<int>(k));
  const double r[3] = {p.x - c.x, p.y - c.y, p.z - c.z};
  int axis = 0;
  double best = std::fabs(r[0]);
  for (int d = 1; d < 3; ++d) {
    const double m = std::fabs(r[d]);
    if (m > best) {
      best = m;
      axis = d;
    }
  }
  std::int64_t nb[3] = {i, j, k};
  nb[axis] += r[axis] >= 0.0 ? 1 : -1;
  if (!cube_in_grid(nb[0], nb[1], nb[2])) return false;
  if (occ_[cube_index(static_cast<int>(nb[0]), static_cast<int>(nb[1]),
                      static_cast<int>(nb[2]))] != lab) {
    return false;
  }
  if (label != nullptr) *label = lab;
  return true;
}

bool LatticeFill::protects(const Vec3& p) const {
  if (occ_.empty()) return false;
  const std::int64_t i =
      static_cast<std::int64_t>(std::floor((p.x - origin_.x) / a_));
  const std::int64_t j =
      static_cast<std::int64_t>(std::floor((p.y - origin_.y) / a_));
  const std::int64_t k =
      static_cast<std::int64_t>(std::floor((p.z - origin_.z) / a_));
  for (std::int64_t dk = -1; dk <= 1; ++dk) {
    for (std::int64_t dj = -1; dj <= 1; ++dj) {
      for (std::int64_t di = -1; di <= 1; ++di) {
        const std::int64_t ii = i + di, jj = j + dj, kk = k + dk;
        if (!cube_in_grid(ii, jj, kk)) continue;
        if (occ_[cube_index(static_cast<int>(ii), static_cast<int>(jj),
                            static_cast<int>(kk))] != 0) {
          return true;
        }
      }
    }
  }
  return false;
}

std::size_t LatticeFill::seed_interface(
    DelaunayMesh& mesh, const std::vector<OpScratch*>& scratch) {
  std::size_t deferred = 0;
  if (seed_keys_.empty()) return deferred;
  const int threads = static_cast<int>(scratch.size());
  PI2M_CHECK(threads >= 1, "seed_interface needs a scratch per thread");
  std::vector<VertexId> vid(seed_keys_.size(), kNoVertex);
  // Per-thread walk hint, carried across rounds: every round is a uniform
  // sample of the cloud, so block t covers about the same region each time.
  std::vector<CellId> hint(scratch.size(), any_alive_cell(mesh, 0));
  // Rule tag 7 in the op log: not one of R1-R6, identifies lattice
  // interface seeds in recorded runs (replay treats it as a plain insert).
  check::set_current_rule(7);
  std::size_t begin = 0;
  for (const std::size_t end : round_end_) {
    const std::size_t len = end - begin;
    if (threads > 1 && len >= kParallelRound) {
      // Mirrors parallel_blocks' chunking: block lo / chunk is thread tid.
      const std::size_t chunk = (len + scratch.size() - 1) / scratch.size();
      parallel_blocks(len, threads, [&](std::size_t lo, std::size_t hi) {
        const int tid = static_cast<int>(lo / chunk);
        check::set_current_rule(7);
        OpScratch& s = *scratch[static_cast<std::size_t>(tid)];
        CellId& h = hint[static_cast<std::size_t>(tid)];
        for (std::size_t i = begin + lo; i < begin + hi; ++i) {
          const OpResult r = insert_point(mesh, point_of(seed_keys_[i]),
                                          VertexKind::Lattice, h, tid, s);
          if (r.status != OpStatus::Success) continue;  // deferred
          vid[i] = r.new_vertex;
          h = s.created.front();
        }
      });
      for (std::size_t i = begin; i < end; ++i) {
        if (vid[i] == kNoVertex) ++deferred;
      }
    }
    // Small rounds whole, parallel rounds' deferred seeds: in order, on the
    // calling thread, with the rest of the mesh quiescent.
    for (std::size_t i = begin; i < end; ++i) {
      if (vid[i] != kNoVertex) continue;
      vid[i] = insert_seed(mesh, point_of(seed_keys_[i]), hint[0],
                           *scratch[0]);
    }
    begin = end;
  }
  check::set_current_rule(0);

  seeded_.reserve(seed_keys_.size());
  for (std::size_t i = 0; i < seed_keys_.size(); ++i) {
    seeded_.emplace(seed_keys_[i], vid[i]);
  }
  return deferred;
}

VertexId LatticeFill::seeded_vertex(std::uint64_t key) const {
  const auto it = seeded_.find(key);
  return it == seeded_.end() ? kNoVertex : it->second;
}

void LatticeFill::for_each_tet(
    const std::function<void(const std::array<std::uint64_t, 4>&,
                             const std::array<Vec3, 4>&, Label)>& fn) const {
  for (const std::uint64_t f : faces_) {
    const std::size_t ci = static_cast<std::size_t>(f >> 2);
    const int axis = static_cast<int>(f & 3);
    const int i = static_cast<int>(ci % static_cast<std::size_t>(ncx_));
    const int j = static_cast<int>((ci / static_cast<std::size_t>(ncx_)) %
                                   static_cast<std::size_t>(ncy_));
    const int k = static_cast<int>(ci / (static_cast<std::size_t>(ncx_) *
                                         static_cast<std::size_t>(ncy_)));
    const Label lab = occ_[ci];

    std::int64_t z1c[3] = {2 * i + 1, 2 * j + 1, 2 * k + 1};
    std::int64_t z2c[3] = {z1c[0], z1c[1], z1c[2]};
    z2c[axis] += 2;
    const int u = (axis + 1) % 3, v = (axis + 2) % 3;
    std::int64_t base[3] = {2 * i, 2 * j, 2 * k};
    base[axis] += 2;
    // Face corners wound clockwise as seen from the +axis side; with the
    // bipyramid apexes (z1, z2) prepended, (z1, z2, q[m], q[m+1]) is
    // positively oriented under the orient3d convention (verified by
    // lattice_test's exhaustive exact-predicate check).
    std::array<std::array<std::int64_t, 3>, 4> q;
    const int du[4] = {0, 0, 2, 2};
    const int dv[4] = {0, 2, 2, 0};
    for (int m = 0; m < 4; ++m) {
      q[m] = {base[0], base[1], base[2]};
      q[m][u] += du[m];
      q[m][v] += dv[m];
    }
    const std::uint64_t kz1 = pack_key(z1c[0], z1c[1], z1c[2]);
    const std::uint64_t kz2 = pack_key(z2c[0], z2c[1], z2c[2]);
    const Vec3 pz1 = point_of(kz1), pz2 = point_of(kz2);
    for (int m = 0; m < 4; ++m) {
      const int mm = (m + 1) & 3;
      const std::uint64_t ka = pack_key(q[m][0], q[m][1], q[m][2]);
      const std::uint64_t kb = pack_key(q[mm][0], q[mm][1], q[mm][2]);
      const std::array<std::uint64_t, 4> keys{kz1, kz2, ka, kb};
      const std::array<Vec3, 4> pos{pz1, pz2, point_of(ka), point_of(kb)};
      fn(keys, pos, lab);
    }
  }
}

}  // namespace lattice
}  // namespace pi2m
