#include "check/auditor.hpp"

#include <cmath>
#include <sstream>

#include "geometry/tetra.hpp"
#include "predicates/predicates.hpp"

namespace pi2m::check {

namespace {

/// splitmix64 finalizer: deterministic per-(cell, face) sampling decision
/// that is stable across runs and independent of audit call order.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

InvariantAuditor::InvariantAuditor(const DelaunayMesh& mesh,
                                   std::uint32_t insphere_sample)
    : mesh_(mesh), insphere_sample_(insphere_sample) {}

void InvariantAuditor::add_error(AuditReport& rep, std::string msg) const {
  rep.ok = false;
  ++rep.total_violations;
  if (rep.errors.size() < AuditReport::kMaxErrors) {
    rep.errors.push_back(std::move(msg));
  }
}

void InvariantAuditor::audit_cell(CellId c, AuditReport& rep) {
  const Cell& cl = mesh_.cell(c);
  ++rep.cells_checked;

  const std::uint32_t gen = mesh_.cell_gen(c);
  if ((gen & 1u) == 0) {
    // Only called on cells that looked alive a moment ago; with no
    // concurrent mutation (the audit contract) this cannot happen.
    std::ostringstream os;
    os << "cell " << c << ": even (retired) generation " << gen
       << " while enumerated as alive";
    add_error(rep, os.str());
    return;
  }

  // Vertex liveness.
  for (int i = 0; i < 4; ++i) {
    const VertexId v = cl.v[static_cast<std::size_t>(i)];
    if (v >= mesh_.vertex_count()) {
      std::ostringstream os;
      os << "cell " << c << ": vertex slot " << i << " out of range (" << v
         << ")";
      add_error(rep, os.str());
      return;
    }
    if (mesh_.vertex(v).dead.load(std::memory_order_acquire)) {
      std::ostringstream os;
      os << "cell " << c << ": references dead vertex " << v;
      add_error(rep, os.str());
      return;
    }
  }

  // Orientation (exact).
  const auto p = mesh_.positions(c);
  if (orient3d(p[0], p[1], p[2], p[3]) <= 0) {
    std::ostringstream os;
    os << "cell " << c << ": non-positive orientation";
    add_error(rep, os.str());
    return;
  }

  // Adjacency and hull conformity.
  for (int i = 0; i < 4; ++i) {
    const VertexId fa = cl.v[static_cast<std::size_t>(kFaceOf[i][0])];
    const VertexId fb = cl.v[static_cast<std::size_t>(kFaceOf[i][1])];
    const VertexId fc = cl.v[static_cast<std::size_t>(kFaceOf[i][2])];
    const CellId nb = cl.n[static_cast<std::size_t>(i)].load(
        std::memory_order_acquire);

    if (nb == kNoCell) {
      // Only the virtual-box hull may be open; its faces consist purely of
      // Box-kind corners.
      const bool hull = mesh_.vertex(fa).kind == VertexKind::Box &&
                        mesh_.vertex(fb).kind == VertexKind::Box &&
                        mesh_.vertex(fc).kind == VertexKind::Box;
      if (!hull) {
        std::ostringstream os;
        os << "cell " << c << " face " << i
           << ": open (kNoCell) neighbour on a non-hull face";
        add_error(rep, os.str());
      }
      continue;
    }

    if (nb >= mesh_.cell_slot_count() || !mesh_.cell_alive(nb)) {
      std::ostringstream os;
      os << "cell " << c << " face " << i << ": neighbour " << nb
         << (nb >= mesh_.cell_slot_count() ? " out of range" : " is retired");
      add_error(rep, os.str());
      continue;
    }

    const int mirror = mesh_.face_index_of(nb, fa, fb, fc);
    if (mirror < 0) {
      std::ostringstream os;
      os << "cell " << c << " face " << i << ": neighbour " << nb
         << " has no face with the same 3 vertices";
      add_error(rep, os.str());
      continue;
    }
    const CellId back = mesh_.cell(nb).n[static_cast<std::size_t>(mirror)].load(
        std::memory_order_acquire);
    if (back != c) {
      std::ostringstream os;
      os << "cell " << c << " face " << i << ": mirror slot of neighbour "
         << nb << " points at " << back << " (adjacency asymmetry)";
      add_error(rep, os.str());
      continue;
    }

    // Sampled exact local-Delaunay spot check. Deterministic in (cell ids,
    // generations), independent of call order; checking each interior face
    // from its lower-id side halves the work without losing coverage.
    if (insphere_sample_ != 0 && c < nb) {
      const std::uint64_t h =
          mix64((static_cast<std::uint64_t>(c) << 32) |
                static_cast<std::uint64_t>(gen + static_cast<std::uint32_t>(i)))
          ^ sample_state_;
      if (h % insphere_sample_ == 0) {
        const Cell& ncl = mesh_.cell(nb);
        const VertexId opp = ncl.v[static_cast<std::size_t>(mirror)];
        ++rep.insphere_checked;
        if (insphere(p[0], p[1], p[2], p[3], mesh_.position(opp)) > 0) {
          std::ostringstream os;
          os << "cell " << c << " face " << i << ": neighbour vertex " << opp
             << " strictly inside circumsphere (Delaunay violation)";
          add_error(rep, os.str());
        }
      }
    }
  }
}

AuditReport InvariantAuditor::audit_incremental() {
  AuditReport rep;
  const std::uint32_t slots = mesh_.cell_slot_count();
  if (checked_gen_.size() < slots) checked_gen_.resize(slots, 0);
  for (CellId c = 0; c < slots; ++c) {
    const std::uint32_t gen = mesh_.cell_gen(c);
    if (gen == checked_gen_[c]) continue;  // unchanged since last pass
    if ((gen & 1u) != 0) audit_cell(c, rep);
    // Cache retired generations too: a slot that stays retired is skipped
    // until it is recycled (gen bumps again).
    checked_gen_[c] = gen;
  }
  return rep;
}

AuditReport InvariantAuditor::audit_full() {
  checked_gen_.clear();
  AuditReport rep = audit_incremental();

  // Cavity closure: commits exchange a cavity for a star of identical total
  // volume, so the alive cells must always tile the virtual box exactly.
  const Aabb& b = mesh_.box();
  const Vec3 e = b.extent();
  const double box_vol = e.x * e.y * e.z;
  const double vol = mesh_.total_volume();
  // Relative tolerance only absorbs floating-point summation error over
  // ~1e6 cells; a leaked or overlapping cavity is off by whole tetrahedra.
  if (std::fabs(vol - box_vol) > 1e-9 * box_vol) {
    std::ostringstream os;
    os << "volume closure violated: alive cells sum to " << vol
       << ", virtual box is " << box_vol;
    add_error(rep, os.str());
  }
  return rep;
}

}  // namespace pi2m::check
