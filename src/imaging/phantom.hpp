// Procedural multi-label phantoms.
//
// The paper evaluates on segmented medical atlases (IRCAD abdominal CT, SPL
// knee MR, SPL head-neck CT) that are not redistributable here. These
// generators produce multi-label segmented images with the same structural
// challenges — curved outer isosurfaces, nested tissue interfaces, thin
// layers, multiple disjoint components — so every code path (multi-material
// surface recovery, R1-R6, removals) is exercised. See DESIGN.md
// "Substitutions".
#pragma once

#include <functional>
#include <optional>
#include <string_view>

#include "imaging/image3d.hpp"

namespace pi2m::phantom {

/// Samples an implicit labeling function onto a voxel grid. The function
/// receives world coordinates of each voxel center.
LabeledImage3D from_function(int nx, int ny, int nz, Vec3 spacing,
                             const std::function<Label(const Vec3&)>& f);

/// Single-label ball centered in the volume, radius = `radius_frac` of the
/// half-extent. The simplest smooth 2-manifold; used by quickstart & tests.
LabeledImage3D ball(int n, double radius_frac = 0.7);

/// Two-label concentric shells (sphere inside a thicker sphere): smallest
/// input with an internal material interface.
LabeledImage3D concentric_shells(int n);

/// Volume-dominated family: a solid anisotropic ellipsoid (label 1) filling
/// most of the volume. The vast majority of elements are deep interior —
/// the stress case for the hybrid BCC interior fill and its benchmark
/// input (--interior=lattice vs delaunay).
LabeledImage3D ellipsoid(int n);

/// Volume-dominated two-material variant: a large ball whose thick outer
/// shell (label 2) wraps a solid core (label 1). Both regions have deep
/// interiors, so the lattice fill must keep the internal interface
/// unstructured while filling two material bulks.
LabeledImage3D thick_shell(int n);

/// "Abdominal"-style phantom: a large ellipsoidal body (label 1) containing
/// an off-center liver-like ellipsoid (2), two kidney-like ellipsoids (3),
/// and a spine-like cylinder (4). Mirrors the multi-organ structure of the
/// IRCAD abdominal atlas used for Tables 1 & 4a and Figures 5-6.
LabeledImage3D abdominal(int nx, int ny, int nz,
                         Vec3 spacing = {1.0, 1.0, 1.0});

/// "Knee"-style phantom: two long bone-like capsules (femur/tibia, labels
/// 1, 2) meeting at an articulated joint with a thin cartilage layer (3)
/// and a surrounding soft-tissue sleeve (4). Mirrors the SPL knee atlas
/// (Table 4b, Table 6).
LabeledImage3D knee(int nx, int ny, int nz, Vec3 spacing = {1.0, 1.0, 1.0});

/// "Head-neck"-style phantom: cranial sphere (1) with two internal lobes
/// (2, 3), an airway-like tube void, and a neck cylinder (4). Mirrors the
/// SPL head-neck atlas (Table 6).
LabeledImage3D head_neck(int nx, int ny, int nz, Vec3 spacing = {1.0, 1.0, 1.0});

/// Random blobby multi-label image (union of random ellipsoids), for
/// property tests: seedable, always has at least one foreground voxel.
LabeledImage3D random_blobs(int n, unsigned seed, int num_blobs = 4,
                            int num_labels = 3);

/// "Vascular" phantom: a branching tree of thin tubes (vessel wall label 2
/// around a lumen label 1) inside a tissue block (3). Exercises the thin,
/// curved, high-curvature structures of the paper's blood-flow-simulation
/// motivation (§1) — the hardest case for isosurface recovery.
LabeledImage3D vessels(int n, int levels = 3);

/// The phantom a job names, on an n^3 grid: ball, shells, abdominal, knee,
/// head_neck, vessels, ellipsoid or thick_shell. nullopt for any other name.
std::optional<LabeledImage3D> by_name(std::string_view name, int n);

}  // namespace pi2m::phantom
