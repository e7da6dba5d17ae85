// Mesh export: VTK legacy (volume + labels, loadable in ParaView), OFF
// (boundary surface), and Medit .mesh (volume + labels, loadable in gmsh).
// Every writer returns false, and writes nothing, for a mesh whose parallel
// arrays disagree (points vs point_kinds, tets vs tet_labels).
#pragma once

#include <string>

#include "core/pi2m.hpp"

namespace pi2m::io {

/// Legacy-ASCII VTK unstructured grid with per-cell tissue labels.
/// Returns false on I/O failure. Coordinates print as %.9g.
bool write_vtk(const TetMesh& mesh, const std::string& path);

/// OFF file of the boundary (isosurface) triangles only.
bool write_off_surface(const TetMesh& mesh, const std::string& path);

/// Medit .mesh format (vertices, tetrahedra with label refs, boundary tris).
bool write_medit(const TetMesh& mesh, const std::string& path);

/// Binary STL of the boundary (isosurface) triangles.
bool write_stl_surface(const TetMesh& mesh, const std::string& path);

}  // namespace pi2m::io
