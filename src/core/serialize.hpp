// Binary serialization of semi-local kernels.
//
// A kernel is tiny relative to the O(mn) work that produced it, which makes
// precomputing kernels for a corpus and answering substring queries later a
// natural workflow. These are the stream, file and byte-string entry points;
// the one on-disk format, v3 (block-compressed bit-packed entries behind a
// seekable per-block checksum index), is defined in core/kernel_codec.hpp.
//
// Loaders accept v3 only: any other version field -- the unchecksummed v1,
// the raw v2 that earlier stores wrote -- throws "unsupported version"
// (falling back to a weaker format on a corrupted version field would defeat
// the checksum). Readers validate structure, checksums and permutation-ness;
// any corruption throws std::runtime_error.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "core/kernel.hpp"

namespace semilocal {

/// Writes `kernel` to a binary stream. Throws std::runtime_error on I/O
/// failure.
void save_kernel(std::ostream& out, const SemiLocalKernel& kernel);

/// Reads a kernel written by save_kernel. Throws std::runtime_error on I/O
/// failure, bad magic/version, checksum mismatch or corrupted permutation
/// data.
SemiLocalKernel load_kernel(std::istream& in);

/// File-path convenience wrappers.
void save_kernel_file(const std::string& path, const SemiLocalKernel& kernel);
SemiLocalKernel load_kernel_file(const std::string& path);

/// In-memory wrappers: the kernel store serializes to/from byte strings so
/// all its actual I/O goes through the engine's Env seam (engine/env.hpp).
/// load_kernel_bytes parses the view in place -- no copy of the payload.
std::string save_kernel_bytes(const SemiLocalKernel& kernel);
SemiLocalKernel load_kernel_bytes(std::string_view bytes);

}  // namespace semilocal
