#include "imaging/phantom.hpp"

#include <cmath>
#include <functional>
#include <random>
#include <utility>

namespace pi2m::phantom {
namespace {

/// Ellipsoid membership test: ((p-c)/r)^2 <= 1 componentwise-scaled.
bool in_ellipsoid(const Vec3& p, const Vec3& c, const Vec3& r) {
  const double u = (p.x - c.x) / r.x;
  const double v = (p.y - c.y) / r.y;
  const double w = (p.z - c.z) / r.z;
  return u * u + v * v + w * w <= 1.0;
}

/// Capsule (cylinder with spherical caps) from a to b with radius r.
bool in_capsule(const Vec3& p, const Vec3& a, const Vec3& b, double r) {
  const Vec3 ab = b - a;
  const double len2 = norm2(ab);
  double t = len2 > 0.0 ? dot(p - a, ab) / len2 : 0.0;
  t = std::clamp(t, 0.0, 1.0);
  return distance2(p, a + t * ab) <= r * r;
}

}  // namespace

LabeledImage3D from_function(int nx, int ny, int nz, Vec3 spacing,
                             const std::function<Label(const Vec3&)>& f) {
  LabeledImage3D img(nx, ny, nz, spacing);
  for (int z = 0; z < nz; ++z) {
    for (int y = 0; y < ny; ++y) {
      for (int x = 0; x < nx; ++x) {
        const Voxel v{x, y, z};
        img.at(v) = f(img.voxel_center(v));
      }
    }
  }
  return img;
}

LabeledImage3D ball(int n, double radius_frac) {
  const Vec3 c{(n - 1) * 0.5, (n - 1) * 0.5, (n - 1) * 0.5};
  const double r = radius_frac * (n - 1) * 0.5;
  return from_function(n, n, n, {1, 1, 1}, [&](const Vec3& p) -> Label {
    return distance2(p, c) <= r * r ? 1 : 0;
  });
}

LabeledImage3D ellipsoid(int n) {
  const Vec3 c{(n - 1) * 0.5, (n - 1) * 0.5, (n - 1) * 0.5};
  // Distinct semi-axes so no lattice plane aligns with a symmetry plane,
  // while keeping ~25% of the volume foreground (interior-dominated).
  const Vec3 r{0.44 * (n - 1), 0.38 * (n - 1), 0.31 * (n - 1)};
  return from_function(n, n, n, {1, 1, 1}, [&](const Vec3& p) -> Label {
    return in_ellipsoid(p, c, r) ? 1 : 0;
  });
}

LabeledImage3D thick_shell(int n) {
  const Vec3 c{(n - 1) * 0.5, (n - 1) * 0.5, (n - 1) * 0.5};
  const double r_outer = 0.45 * (n - 1), r_core = 0.28 * (n - 1);
  return from_function(n, n, n, {1, 1, 1}, [&](const Vec3& p) -> Label {
    const double d2 = distance2(p, c);
    if (d2 <= r_core * r_core) return 1;
    if (d2 <= r_outer * r_outer) return 2;
    return 0;
  });
}

LabeledImage3D concentric_shells(int n) {
  const Vec3 c{(n - 1) * 0.5, (n - 1) * 0.5, (n - 1) * 0.5};
  const double r_outer = 0.42 * n, r_inner = 0.22 * n;
  return from_function(n, n, n, {1, 1, 1}, [&](const Vec3& p) -> Label {
    const double d2 = distance2(p, c);
    if (d2 <= r_inner * r_inner) return 2;
    if (d2 <= r_outer * r_outer) return 1;
    return 0;
  });
}

LabeledImage3D abdominal(int nx, int ny, int nz, Vec3 spacing) {
  const Vec3 ext{nx * spacing.x, ny * spacing.y, nz * spacing.z};
  const Vec3 c = 0.5 * Vec3{(nx - 1) * spacing.x, (ny - 1) * spacing.y,
                            (nz - 1) * spacing.z};
  const Vec3 body_r{0.42 * ext.x, 0.38 * ext.y, 0.46 * ext.z};
  const Vec3 liver_c = c + Vec3{0.16 * ext.x, 0.05 * ext.y, 0.06 * ext.z};
  const Vec3 liver_r{0.18 * ext.x, 0.16 * ext.y, 0.14 * ext.z};
  const Vec3 kidl_c = c + Vec3{-0.18 * ext.x, -0.10 * ext.y, -0.08 * ext.z};
  const Vec3 kidr_c = c + Vec3{0.18 * ext.x, -0.12 * ext.y, -0.14 * ext.z};
  const Vec3 kid_r{0.07 * ext.x, 0.055 * ext.y, 0.10 * ext.z};
  const Vec3 spine_a = c + Vec3{0.0, -0.22 * ext.y, -0.40 * ext.z};
  const Vec3 spine_b = c + Vec3{0.0, -0.22 * ext.y, 0.40 * ext.z};
  const double spine_r = 0.05 * std::min(ext.x, ext.y);

  return from_function(nx, ny, nz, spacing, [=](const Vec3& p) -> Label {
    if (!in_ellipsoid(p, c, body_r)) return 0;
    if (in_capsule(p, spine_a, spine_b, spine_r)) return 4;
    if (in_ellipsoid(p, kidl_c, kid_r) || in_ellipsoid(p, kidr_c, kid_r))
      return 3;
    if (in_ellipsoid(p, liver_c, liver_r)) return 2;
    return 1;
  });
}

LabeledImage3D knee(int nx, int ny, int nz, Vec3 spacing) {
  const Vec3 ext{nx * spacing.x, ny * spacing.y, nz * spacing.z};
  const Vec3 c = 0.5 * Vec3{(nx - 1) * spacing.x, (ny - 1) * spacing.y,
                            (nz - 1) * spacing.z};
  // Femur comes in from the top, tibia from the bottom, slightly offset;
  // a cartilage gap region separates them; a soft-tissue sleeve wraps all.
  const double bone_r = 0.11 * std::min(ext.x, ext.y);
  const Vec3 femur_a = c + Vec3{0.02 * ext.x, 0.0, 0.46 * ext.z};
  const Vec3 femur_b = c + Vec3{0.0, 0.0, 0.06 * ext.z};
  const Vec3 tibia_a = c + Vec3{-0.02 * ext.x, 0.0, -0.46 * ext.z};
  const Vec3 tibia_b = c + Vec3{0.0, 0.0, -0.07 * ext.z};
  const Vec3 sleeve_r{0.34 * ext.x, 0.30 * ext.y, 0.47 * ext.z};
  const Vec3 cart_c = c;
  const Vec3 cart_r{0.16 * ext.x, 0.14 * ext.y, 0.075 * ext.z};

  return from_function(nx, ny, nz, spacing, [=](const Vec3& p) -> Label {
    if (!in_ellipsoid(p, c, sleeve_r)) return 0;
    if (in_capsule(p, femur_a, femur_b, bone_r)) return 1;
    if (in_capsule(p, tibia_a, tibia_b, bone_r)) return 2;
    if (in_ellipsoid(p, cart_c, cart_r)) return 3;
    return 4;
  });
}

LabeledImage3D head_neck(int nx, int ny, int nz, Vec3 spacing) {
  const Vec3 ext{nx * spacing.x, ny * spacing.y, nz * spacing.z};
  const Vec3 c = 0.5 * Vec3{(nx - 1) * spacing.x, (ny - 1) * spacing.y,
                            (nz - 1) * spacing.z};
  const Vec3 head_c = c + Vec3{0, 0, 0.18 * ext.z};
  const double head_r = 0.30 * std::min({ext.x, ext.y, ext.z});
  const Vec3 lobe_l = head_c + Vec3{-0.35 * head_r, 0, 0.1 * head_r};
  const Vec3 lobe_rr = head_c + Vec3{0.35 * head_r, 0, 0.1 * head_r};
  const Vec3 lobe_rad{0.42 * head_r, 0.55 * head_r, 0.5 * head_r};
  const Vec3 neck_a = head_c + Vec3{0, 0, -0.6 * head_r};
  const Vec3 neck_b = c + Vec3{0, 0, -0.46 * ext.z};
  const double neck_r = 0.42 * head_r;
  const Vec3 airway_a = head_c + Vec3{0, 0.1 * head_r, 0};
  const Vec3 airway_b = neck_b + Vec3{0, 0.1 * head_r, 0};
  const double airway_r = 0.12 * head_r;

  return from_function(nx, ny, nz, spacing, [=](const Vec3& p) -> Label {
    if (in_capsule(p, airway_a, airway_b, airway_r)) return 0;  // void
    if (in_ellipsoid(p, lobe_l, lobe_rad)) return 2;
    if (in_ellipsoid(p, lobe_rr, lobe_rad)) return 3;
    if (distance2(p, head_c) <= head_r * head_r) return 1;
    if (in_capsule(p, neck_a, neck_b, neck_r)) return 4;
    return 0;
  });
}

LabeledImage3D vessels(int n, int levels) {
  // Recursive branching capsule tree from the bottom face upward.
  struct Segment {
    Vec3 a, b;
    double r;
  };
  std::vector<Segment> segs;
  const double len0 = 0.38 * n, r0 = 0.055 * n;
  std::function<void(Vec3, Vec3, double, double, int)> grow =
      [&](Vec3 base, Vec3 dir, double len, double r, int depth) {
        const Vec3 tip = base + len * dir;
        segs.push_back({base, tip, r});
        if (depth <= 0) return;
        // Two children branching at ~35 degrees in perpendicular planes.
        const Vec3 axis = std::fabs(dir.z) < 0.9 ? Vec3{0, 0, 1} : Vec3{1, 0, 0};
        const Vec3 side = normalized(cross(dir, axis));
        for (const double s : {+0.62, -0.62}) {
          const Vec3 child_dir = normalized(dir + s * side);
          grow(tip, child_dir, 0.72 * len, 0.75 * r, depth - 1);
        }
      };
  grow({0.5 * n, 0.5 * n, 0.08 * n}, {0, 0, 1}, len0, r0, levels);

  return from_function(n, n, n, {1, 1, 1}, [&](const Vec3& p) -> Label {
    double best = 1e300;
    for (const Segment& s : segs) {
      const Vec3 ab = s.b - s.a;
      const double len2 = norm2(ab);
      double t = len2 > 0 ? dot(p - s.a, ab) / len2 : 0.0;
      t = std::clamp(t, 0.0, 1.0);
      best = std::min(best, distance(p, s.a + t * ab) - s.r);
    }
    if (best <= -0.35 * r0) return 1;            // lumen
    if (best <= 0.0) return 2;                   // vessel wall
    // Surrounding tissue block (leaves a margin to the image border).
    const double m = 0.06 * n;
    if (p.x > m && p.x < n - 1 - m && p.y > m && p.y < n - 1 - m &&
        p.z > m && p.z < n - 1 - m) {
      return 3;
    }
    return 0;
  });
}

LabeledImage3D random_blobs(int n, unsigned seed, int num_blobs,
                            int num_labels) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> pos(0.25 * n, 0.75 * n);
  std::uniform_real_distribution<double> rad(0.10 * n, 0.28 * n);
  std::uniform_int_distribution<int> lab(1, std::max(1, num_labels));

  struct Blob {
    Vec3 c, r;
    Label l;
  };
  std::vector<Blob> blobs;
  blobs.reserve(static_cast<std::size_t>(num_blobs));
  for (int i = 0; i < num_blobs; ++i) {
    blobs.push_back({{pos(rng), pos(rng), pos(rng)},
                     {rad(rng), rad(rng), rad(rng)},
                     static_cast<Label>(lab(rng))});
  }
  LabeledImage3D img = from_function(
      n, n, n, {1, 1, 1}, [&](const Vec3& p) -> Label {
        for (const Blob& b : blobs) {
          if (in_ellipsoid(p, b.c, b.r)) return b.l;
        }
        return 0;
      });
  // Guarantee at least one foreground voxel so downstream code never sees an
  // empty object.
  const Voxel mid{n / 2, n / 2, n / 2};
  if (img.labels_present().empty()) img.at(mid) = 1;
  return img;
}

std::optional<LabeledImage3D> by_name(std::string_view name, int n) {
  using Make = LabeledImage3D (*)(int);
  static constexpr std::pair<std::string_view, Make> kNamed[] = {
      {"ball", [](int m) { return ball(m); }},
      {"shells", concentric_shells},
      {"abdominal", [](int m) { return abdominal(m, m, m); }},
      {"knee", [](int m) { return knee(m, m, m); }},
      {"head_neck", [](int m) { return head_neck(m, m, m); }},
      {"vessels", [](int m) { return vessels(m); }},
      {"ellipsoid", ellipsoid},
      {"thick_shell", thick_shell},
  };
  for (const auto& [key, make] : kNamed) {
    if (key == name) return make(n);
  }
  return std::nullopt;
}

}  // namespace pi2m::phantom
