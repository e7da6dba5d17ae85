#include "imaging/isosurface.hpp"

#include <algorithm>
#include <cmath>

namespace pi2m {

IsosurfaceOracle::IsosurfaceOracle(const LabeledImage3D& img, int threads)
    : img_(&img),
      threads_(std::max(1, threads)),
      ft_(FeatureTransform::compute(img, threads_)),
      step_(0.45 * img.min_spacing()),
      voxel_diag_(norm(img.spacing())),
      inv_sp_{1.0 / img.spacing().x, 1.0 / img.spacing().y,
              1.0 / img.spacing().z} {}

Vec3 IsosurfaceOracle::bisect(Vec3 s, Label ls, Vec3 t) const {
  // 15 halvings of a sub-voxel bracket resolve the interface to ~3e-5
  // voxels, far below any geometric tolerance used by the refiner.
  for (int i = 0; i < 15; ++i) {
    const Vec3 m = 0.5 * (s + t);
    if (label_at(m) == ls) {
      s = m;
    } else {
      t = m;
    }
  }
  return 0.5 * (s + t);
}

Vec3 IsosurfaceOracle::refine_around_voxel(const Vec3& q) const {
  // q is (near) the center of a surface voxel: one of its 6 axis
  // neighbourhoods carries a different label. Bisect the closest such
  // bracket to land on the interface.
  const Label lq = label_at(q);
  const Vec3 sp = img_->spacing();
  const Vec3 probes[6] = {{sp.x, 0, 0},  {-sp.x, 0, 0}, {0, sp.y, 0},
                          {0, -sp.y, 0}, {0, 0, sp.z},  {0, 0, -sp.z}};
  for (const Vec3& pr : probes) {
    if (label_at(q + pr) != lq) return bisect(q, lq, q + pr);
  }
  return q;  // isolated voxel; its center is the best surface estimate
}

std::optional<Vec3> IsosurfaceOracle::first_transition_dda(
    const Vec3& a, const Vec3& b) const {
  // The nearest-neighbour label field is piecewise constant on the dual
  // grid: voxel (i,j,k) owns the box of half-spacing extent around its
  // center, so the field can only change value on the half-offset planes
  // x = org.x + (i±0.5)·sp.x (likewise y, z) and on the outer slab faces
  // (outside the slab everything is background). An Amanatides–Woo DDA
  // visits exactly the voxels the segment pierces — one integer label fetch
  // per crossed voxel, no world→index transform per sample — and the first
  // voxel whose label differs from the running label brackets the
  // transition, which the label-field bisection then refines exactly like
  // the reference sampling walk.
  const Vec3 dvec = b - a;
  const double len = norm(dvec);
  if (len <= 1e-12) return std::nullopt;
  const Vec3 dir = dvec / len;

  const LabeledImage3D& img = *img_;
  const Vec3 sp = img.spacing();
  const Vec3 org = img.origin();
  const int n[3] = {img.nx(), img.ny(), img.nz()};
  const double av[3] = {a.x, a.y, a.z};
  const double dv[3] = {dir.x, dir.y, dir.z};
  const double spv[3] = {sp.x, sp.y, sp.z};
  const double orgv[3] = {org.x, org.y, org.z};
  const double invv[3] = {inv_sp_.x, inv_sp_.y, inv_sp_.z};

  // Clip [0, len] against the label slab (voxel ownership boxes): outside
  // it the field is uniformly background.
  double t_in = 0.0, t_out = len;
  for (int ax = 0; ax < 3; ++ax) {
    const double lo = orgv[ax] - 0.5 * spv[ax];
    const double hi = orgv[ax] + (n[ax] - 0.5) * spv[ax];
    if (std::abs(dv[ax]) < 1e-300) {
      if (av[ax] < lo || av[ax] >= hi) return std::nullopt;  // all background
      continue;
    }
    double t0 = (lo - av[ax]) / dv[ax];
    double t1 = (hi - av[ax]) / dv[ax];
    if (t0 > t1) std::swap(t0, t1);
    t_in = std::max(t_in, t0);
    t_out = std::min(t_out, t1);
  }
  const Label l0 = label_at(a);
  if (t_in >= t_out) return std::nullopt;  // never enters the grid: all bg

  // DDA state at the entry point.
  const Vec3 pe = a + t_in * dir;
  const double pev[3] = {pe.x, pe.y, pe.z};
  int c[3];
  int step[3];
  double t_max[3], t_delta[3];
  for (int ax = 0; ax < 3; ++ax) {
    const double f = (pev[ax] - orgv[ax]) * invv[ax] + 0.5;
    c[ax] = std::clamp(static_cast<int>(std::floor(f)), 0, n[ax] - 1);
    if (dv[ax] > 1e-300) {
      step[ax] = 1;
      t_delta[ax] = spv[ax] / dv[ax];
      t_max[ax] = (orgv[ax] + (c[ax] + 0.5) * spv[ax] - av[ax]) / dv[ax];
    } else if (dv[ax] < -1e-300) {
      step[ax] = -1;
      t_delta[ax] = -spv[ax] / dv[ax];
      t_max[ax] = (orgv[ax] + (c[ax] - 0.5) * spv[ax] - av[ax]) / dv[ax];
    } else {
      step[ax] = 0;
      t_delta[ax] = t_max[ax] = 1e300;
    }
  }
  const double t_end = std::min(t_out, len);
  const Label* data = img.raw().data();
  const std::ptrdiff_t stride[3] = {
      1, n[0], static_cast<std::ptrdiff_t>(n[0]) * n[1]};
  std::ptrdiff_t idx = c[2] * stride[2] + c[1] * stride[1] + c[0];

  Label lprev = l0;
  Vec3 prev = a;  // last point known to carry label lprev
  double t_enter = t_in;
  while (true) {
    const double t_exit =
        std::min(std::min(t_max[0], t_max[1]), std::min(t_max[2], t_end));
    const Label lcur = data[idx];
    if (lcur != lprev) {
      // The field is piecewise constant on the ownership boxes, so the
      // transition sits EXACTLY on the plane the ray just crossed at
      // t_enter (for the first span: the slab entry, where the clipped-away
      // part is uniformly background). No bisection needed — the reference
      // walk's bisect converges to this same plane point.
      return a + t_enter * dir;
    }
    prev = a + (0.5 * (t_enter + t_exit)) * dir;
    if (t_exit >= t_end) break;
    const int ax = (t_max[0] <= t_max[1]) ? (t_max[0] <= t_max[2] ? 0 : 2)
                                          : (t_max[1] <= t_max[2] ? 1 : 2);
    c[ax] += step[ax];
    if (c[ax] < 0 || c[ax] >= n[ax]) break;  // numeric-edge exit guard
    idx += step[ax] * stride[ax];
    t_enter = t_exit;
    t_max[ax] += t_delta[ax];
  }

  // Tail: the segment leaves the slab into (uniform) background before
  // reaching b — the transition is exactly the slab exit plane.
  if (t_end < len && lprev != 0) return a + t_end * dir;
  // Endpoint: b lies inside the last visited voxel except for exact-boundary
  // rounding cases; mirror the reference walk's final label_at(b) check.
  if (label_at(b) != lprev) return bisect(prev, lprev, b);
  return std::nullopt;
}

std::optional<Vec3> IsosurfaceOracle::closest_surface_point(
    const Vec3& p) const {
  if (!ft_.has_surface()) return std::nullopt;
  const Voxel v = img_->nearest_voxel(p);
  const Voxel f = ft_.nearest_surface_voxel(v);
  const Vec3 q = img_->voxel_center(f);

  // Walk from p toward (and slightly past) the surface voxel center looking
  // for the label transition; q is a surface voxel so a transition exists
  // within one voxel of it in some direction — walking the ray overshoots by
  // a voxel diagonal to be safe.
  const Vec3 d = q - p;
  const double len = norm(d);
  const double overshoot = 2.0 * img_->min_spacing();
  if (len <= 1e-12) return refine_around_voxel(q);

  // Candidate 1: exact projection of p onto the interface faces of the
  // surface voxel's ownership box (the faces shared with a neighbour of
  // differing label — ∂O locally IS those faces on the dual grid). This
  // dominates the reference walk's refine_around_voxel fallback, which
  // bisects to the *center* of one such face.
  double best2 = 1e300;
  Vec3 best{};
  bool have_face = false;
  {
    const LabeledImage3D& img = *img_;
    const Vec3 sp = img.spacing();
    const int n[3] = {img.nx(), img.ny(), img.nz()};
    const int fc[3] = {f.x, f.y, f.z};
    const double qv[3] = {q.x, q.y, q.z};
    const double pv[3] = {p.x, p.y, p.z};
    const double spv[3] = {sp.x, sp.y, sp.z};
    const Label* data = img.raw().data();
    const std::ptrdiff_t stride[3] = {
        1, n[0], static_cast<std::ptrdiff_t>(n[0]) * n[1]};
    const std::ptrdiff_t fidx =
        fc[2] * stride[2] + fc[1] * stride[1] + fc[0];
    const Label lq = data[fidx];
    // The box-clamped coordinates are shared by every candidate whose
    // face is on another axis: hoist them (and their squared offsets)
    // once, then evaluate all six face candidates as a flat
    // distance/comparison sweep — only the label gate stays per
    // candidate. Per-candidate term order matches the historical
    // accumulation loop, so the selected candidate is unchanged.
    double cl[3], e2[3];
    for (int oax = 0; oax < 3; ++oax) {
      cl[oax] = std::clamp(pv[oax], qv[oax] - 0.5 * spv[oax],
                           qv[oax] + 0.5 * spv[oax]);
      const double dd = cl[oax] - pv[oax];
      e2[oax] = dd * dd;
    }
    for (int cand6 = 0; cand6 < 6; ++cand6) {
      const int ax = cand6 >> 1;
      const int s = (cand6 & 1) ? 1 : -1;
      const int nc = fc[ax] + s;
      const Label ln = (nc < 0 || nc >= n[ax])
                           ? Label{0}  // outside the slab: background
                           : data[fidx + s * stride[ax]];
      if (ln == lq) continue;
      const double face = qv[ax] + 0.5 * s * spv[ax];  // the face plane
      const double fd = face - pv[ax];
      const double fterm = fd * fd;
      const double d2 = (ax == 0 ? fterm : e2[0]) +
                        (ax == 1 ? fterm : e2[1]) +
                        (ax == 2 ? fterm : e2[2]);
      if (d2 < best2) {
        best2 = d2;
        best = {ax == 0 ? face : cl[0], ax == 1 ? face : cl[1],
                ax == 2 ? face : cl[2]};
        have_face = true;
      }
    }
  }
  // Candidate 2: the first ∂O crossing of the ray toward (and past) q —
  // in thin-sliver geometry it can undercut every face of q's box.
  const Vec3 end = p + ((len + overshoot) / len) * d;
  if (auto hit = first_transition_dda(p, end)) {
    if (!have_face || distance2(p, *hit) < best2) return hit;
  }
  if (have_face) return best;
  // Isolated surface voxel with no differing axis neighbour and no ray
  // transition: its center is the best available estimate (matches
  // refine_around_voxel's fallback).
  return q;
}

std::optional<Vec3> IsosurfaceOracle::closest_surface_point_reference(
    const Vec3& p) const {
  if (!ft_.has_surface()) return std::nullopt;
  const Voxel v = img_->nearest_voxel(p);
  const Voxel f = ft_.nearest_surface_voxel(v);
  const Vec3 q = img_->voxel_center(f);

  const Vec3 d = q - p;
  const double len = norm(d);
  const double overshoot = 2.0 * img_->min_spacing();
  const Label lp = label_at(p);
  if (len <= 1e-12) return refine_around_voxel(q);

  const Vec3 dir = d / len;
  Vec3 prev = p;
  Label lprev = lp;
  // t = i·step keeps long walks on the exact sample lattice; the previous
  // t += step accumulation drifted by one ulp per step, which over hundreds
  // of samples shifted brackets relative to the fixed-lattice semantics.
  for (std::size_t i = 1;; ++i) {
    const double t = static_cast<double>(i) * step_;
    if (t > len + overshoot) break;
    const Vec3 cur = p + t * dir;
    const Label lcur = label_at(cur);
    if (lcur != lprev) return bisect(prev, lprev, cur);
    prev = cur;
  }
  // No transition along the ray (the interface lies sideways of the surface
  // voxel, e.g. when p itself sits in the surface shell): refine around the
  // surface voxel center instead.
  return refine_around_voxel(q);
}

std::optional<Vec3> IsosurfaceOracle::segment_surface_intersection(
    const Vec3& a, const Vec3& b) const {
  return first_transition_dda(a, b);
}

std::optional<Vec3> IsosurfaceOracle::segment_surface_intersection_reference(
    const Vec3& a, const Vec3& b) const {
  const double len = distance(a, b);
  if (len <= 1e-12) return std::nullopt;
  const Vec3 dir = (b - a) / len;
  Vec3 prev = a;
  Label lprev = label_at(a);
  for (std::size_t i = 1;; ++i) {
    const double t = static_cast<double>(i) * step_;  // exact sample lattice
    if (t >= len) break;
    const Vec3 cur = a + t * dir;
    const Label lcur = label_at(cur);
    if (lcur != lprev) return bisect(prev, lprev, cur);
    prev = cur;
  }
  if (label_at(b) != lprev) return bisect(prev, lprev, b);
  return std::nullopt;
}

bool IsosurfaceOracle::ball_intersects_surface(const Vec3& c, double r) const {
  const auto q = closest_surface_point(c);
  if (!q) return false;
  return distance(c, *q) <= r;
}

}  // namespace pi2m
