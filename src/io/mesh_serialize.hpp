// Binary serialization of extracted meshes (.p2m): a compact round-trip
// format so large meshes can be cached between pipeline stages without the
// precision loss and size of text formats.
#pragma once

#include <optional>
#include <string>

#include "core/pi2m.hpp"

namespace pi2m::io {

/// Writes the mesh in the versioned binary .p2m format. Returns false on
/// I/O failure or when the parallel arrays disagree in size (a file
/// load_mesh would reject).
bool save_mesh(const TetMesh& mesh, const std::string& path);

/// Reads a .p2m file; nullopt (with `error` filled when given) on any
/// malformed or version-incompatible input.
std::optional<TetMesh> load_mesh(const std::string& path,
                                 std::string* error = nullptr);

}  // namespace pi2m::io
