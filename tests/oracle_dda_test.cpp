// Parity of the voxel-DDA oracle walks against the reference scalar
// sampling walks (imaging/isosurface.cpp). The DDA is exact per crossed
// voxel while the reference samples every 0.45·min_spacing, so the precise
// contract is:
//   * any transition the reference detects, the DDA detects at the same or
//     an earlier ray parameter (reference samples are a subset of the
//     continuum the DDA covers) — a DDA miss here is a hard failure;
//   * the DDA may additionally find genuine transitions the reference
//     stepped over (features thinner than the sampling step / corner
//     clips), verified by probing the labels on both sides of the hit;
//   * every hit either walk reports lies on a real label change.
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "imaging/isosurface.hpp"
#include "imaging/phantom.hpp"

namespace pi2m {
namespace {

double t_of(const Vec3& a, const Vec3& b, const Vec3& hit) {
  const Vec3 dir = (b - a) / distance(a, b);
  return dot(hit - a, dir);
}

/// True when the label field really changes across `hit` along a→b.
bool genuine_crossing(const IsosurfaceOracle& o, const Vec3& a, const Vec3& b,
                      const Vec3& hit) {
  const Vec3 dir = (b - a) / distance(a, b);
  const double eps = 5e-3 * o.image().min_spacing();
  return o.label_at(hit - eps * dir) != o.label_at(hit + eps * dir);
}

/// Core parity assertion for one segment.
void check_segment(const IsosurfaceOracle& o, const Vec3& a, const Vec3& b,
                   int* ref_hits, int* extra_dda_hits) {
  const auto ref = o.segment_surface_intersection_reference(a, b);
  const auto dda = o.segment_surface_intersection(a, b);
  const double tol = 1e-3 * o.image().min_spacing();
  if (ref.has_value()) {
    ++*ref_hits;
    ASSERT_TRUE(dda.has_value())
        << "DDA missed a reference-detected crossing";
    EXPECT_LE(t_of(a, b, *dda), t_of(a, b, *ref) + tol)
        << "DDA hit later than the reference (not the first transition)";
    EXPECT_TRUE(genuine_crossing(o, a, b, *dda));
  } else if (dda.has_value()) {
    // Sub-step feature the reference stepped over: must be a real change.
    ++*extra_dda_hits;
    EXPECT_TRUE(genuine_crossing(o, a, b, *dda));
  }
}

class SegmentParity : public ::testing::TestWithParam<unsigned> {};

TEST_P(SegmentParity, RandomSegmentsOnBlobs) {
  const LabeledImage3D img = phantom::random_blobs(24, GetParam(), 3, 2);
  const IsosurfaceOracle oracle(img, 1);
  std::mt19937 rng(GetParam() * 131 + 17);
  std::uniform_real_distribution<double> u(-3.0, 27.0);
  int ref_hits = 0, extra = 0;
  for (int i = 0; i < 500; ++i) {
    const Vec3 a{u(rng), u(rng), u(rng)}, b{u(rng), u(rng), u(rng)};
    check_segment(oracle, a, b, &ref_hits, &extra);
  }
  EXPECT_GT(ref_hits, 50);  // the sweep exercised real crossings
}

INSTANTIATE_TEST_SUITE_P(Seeds, SegmentParity,
                         ::testing::Values(1u, 2u, 3u, 4u));

TEST(OracleDda, AnisotropicSpacingParity) {
  const LabeledImage3D img =
      phantom::abdominal(32, 32, 32, /*spacing=*/{0.7, 1.0, 1.4});
  const IsosurfaceOracle oracle(img, 1);
  std::mt19937 rng(99);
  std::uniform_real_distribution<double> ux(-2.0, 24.0);
  std::uniform_real_distribution<double> uy(-2.0, 34.0);
  std::uniform_real_distribution<double> uz(-2.0, 47.0);
  int ref_hits = 0, extra = 0;
  for (int i = 0; i < 400; ++i) {
    const Vec3 a{ux(rng), uy(rng), uz(rng)}, b{ux(rng), uy(rng), uz(rng)};
    check_segment(oracle, a, b, &ref_hits, &extra);
  }
  EXPECT_GT(ref_hits, 40);
}

TEST(OracleDda, AxisAlignedRaysAgreeTightly) {
  // Through-center axis rays on a ball phantom hit a well-separated
  // interface: both walks must refine to the same point.
  const LabeledImage3D img = phantom::ball(32);
  const IsosurfaceOracle oracle(img, 1);
  const Vec3 c = 0.5 * (img.bounds().lo + img.bounds().hi);
  const Vec3 dirs[6] = {{1, 0, 0},  {-1, 0, 0}, {0, 1, 0},
                        {0, -1, 0}, {0, 0, 1},  {0, 0, -1}};
  for (const Vec3& d : dirs) {
    const Vec3 a = c;
    const Vec3 b = c + 40.0 * d;
    const auto ref = oracle.segment_surface_intersection_reference(a, b);
    const auto dda = oracle.segment_surface_intersection(a, b);
    ASSERT_TRUE(ref.has_value());
    ASSERT_TRUE(dda.has_value());
    EXPECT_LT(distance(*ref, *dda), 0.05 * img.min_spacing());
  }
}

TEST(OracleDda, SubVoxelAndDegenerateSegments) {
  const LabeledImage3D img = phantom::random_blobs(24, 7, 3, 2);
  const IsosurfaceOracle oracle(img, 1);
  std::mt19937 rng(1234);
  std::uniform_real_distribution<double> u(0.0, 24.0);
  std::uniform_real_distribution<double> tiny(-0.4, 0.4);
  int ref_hits = 0, extra = 0, found = 0;
  for (int i = 0; i < 3000; ++i) {
    const Vec3 a{u(rng), u(rng), u(rng)};
    const Vec3 b = a + Vec3{tiny(rng), tiny(rng), tiny(rng)};
    check_segment(oracle, a, b, &ref_hits, &extra);
    if (oracle.segment_surface_intersection(a, b).has_value()) ++found;
  }
  EXPECT_GT(found, 20);  // sub-voxel crossings were actually exercised

  // Zero-length segment: no transition by definition.
  const Vec3 p{12.0, 12.0, 12.0};
  EXPECT_FALSE(oracle.segment_surface_intersection(p, p).has_value());
  EXPECT_FALSE(
      oracle.segment_surface_intersection_reference(p, p).has_value());
}

TEST(OracleDda, SegmentsOutsideTheVolume) {
  const LabeledImage3D img = phantom::ball(24);
  const IsosurfaceOracle oracle(img, 1);
  // Entirely outside the slab (uniform background): never a transition.
  EXPECT_FALSE(oracle
                   .segment_surface_intersection({-30, -30, -30},
                                                 {-30, 60, -30})
                   .has_value());
  EXPECT_FALSE(
      oracle.segment_surface_intersection({-5, -5, -5}, {-6, 30, -5})
          .has_value());
  // Crossing the whole volume from outside to outside: enters the ball and
  // leaves it; the first transition is the entry interface.
  const auto hit =
      oracle.segment_surface_intersection({-10, 11.5, 11.5}, {40, 11.5, 11.5});
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(genuine_crossing(oracle, {-10, 11.5, 11.5}, {40, 11.5, 11.5},
                               *hit));
  // Segment ending inside the object from outside: endpoint label differs.
  const auto hit2 =
      oracle.segment_surface_intersection({-10, 11.5, 11.5}, {11.5, 11.5, 11.5});
  EXPECT_TRUE(hit2.has_value());
}

class ClosestPointParity : public ::testing::TestWithParam<unsigned> {};

TEST_P(ClosestPointParity, DdaNeverFartherThanReference) {
  const LabeledImage3D img = phantom::random_blobs(24, GetParam() + 50, 3, 2);
  const IsosurfaceOracle oracle(img, 1);
  std::mt19937 rng(GetParam() * 7 + 1);
  std::uniform_real_distribution<double> u(-2.0, 26.0);
  const double tol = 2e-2 * img.min_spacing();
  int checked = 0;
  for (int i = 0; i < 400; ++i) {
    const Vec3 p{u(rng), u(rng), u(rng)};
    const auto dda = oracle.closest_surface_point(p);
    const auto ref = oracle.closest_surface_point_reference(p);
    ASSERT_EQ(dda.has_value(), ref.has_value());
    if (!dda.has_value()) continue;
    ++checked;
    const double d_dda = distance(p, *dda);
    const double d_ref = distance(p, *ref);
    // The DDA walks the same ray and finds the continuum-first transition:
    // it can only match the reference or beat it (thin features the
    // sampling walk stepped over); both fall back to the same
    // refine-around-voxel point when the ray has no transition at all.
    EXPECT_LE(d_dda, d_ref + tol)
        << "DDA closest point farther than reference at (" << p.x << ","
        << p.y << "," << p.z << ")";
  }
  EXPECT_GT(checked, 300);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClosestPointParity,
                         ::testing::Values(1u, 2u, 3u));

}  // namespace
}  // namespace pi2m
