// Format v3: block-compressed kernel serialization (see DESIGN.md §10).
//
// A kernel permutation of order N stores fine in 4N bytes as a raw u32
// array, but a permutation entry only needs ⌈log2 N⌉ bits -- and the
// kernels produced by string comparison are locally smooth, so per-block
// delta coding usually beats even that. Format v3 exploits both: the
// row->col array is cut into fixed-size blocks, each encoded independently
// (bit-packed raw values or zigzag deltas, whichever is smaller) behind a
// seekable block index with a per-block FNV-1a checksum. Independent blocks
// buy three things:
//
//   * compressed-resident serving -- a CompressedKernel answers dominance
//     queries by decoding only the blocks a scan touches, so the LRU can
//     hold kernels at their compressed size and still serve them;
//   * torn-read containment -- any flipped or missing byte is caught by the
//     checksum of the block (or header) that owns it, never mis-decoded;
//   * mmap friendliness -- the struct parses in place over a read-only
//     mapping (no allocation proportional to file size on open).
//
// Wire layout (little-endian):
//
//   [ 0,  8) magic "SLKERNL\0"
//   [ 8, 12) u32 version = 3
//   [12, 20) i64 m
//   [20, 28) i64 n
//   [28, 32) u32 block_entries          (entries per block, last may be short)
//   [32, 36) u32 num_blocks             (must equal ceil((m+n)/block_entries))
//   [36, 44) u64 FNV-1a over bytes [0, 36) and the block index region
//   [44, 44 + 24*num_blocks)  block index records:
//            u64 payload offset | u32 encoded bytes | u8 mode | u8 bits |
//            u16 reserved = 0   | u64 FNV-1a of the encoded block bytes
//   then the payload blocks, contiguous; the file ends exactly there.
//
// Block modes: 0 = raw bit-packed entries; 1 = zigzag deltas (the first
// entry delta-coded against its own row number -- the identity permutation
// costs 1 bit/entry). Every field is validated and every checksum verified
// eagerly at open(), so decoding afterwards cannot fail on I/O corruption.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/kernel.hpp"

namespace semilocal {

inline constexpr std::array<char, 8> kKernelMagic = {'S', 'L', 'K', 'E',
                                                     'R', 'N', 'L', '\0'};
inline constexpr std::uint32_t kKernelFormatV3 = 3;

/// Largest supported braid order: keeps payload allocations bounded and the
/// entry values representable in int32.
inline constexpr std::int64_t kMaxKernelOrder = std::int64_t{1} << 31;

/// Entries per v3 block. 4096 entries keep a block's decode scratch inside
/// L1/L2 while amortizing the 24-byte index record to <0.05 bits/entry.
inline constexpr std::uint32_t kDefaultBlockEntries = 4096;
inline constexpr std::uint32_t kMaxBlockEntries = std::uint32_t{1} << 20;

/// 64-bit FNV-1a, the repo-wide corruption check.
inline constexpr std::uint64_t kFnv64Basis = 0xcbf29ce484222325ULL;
std::uint64_t fnv1a64(std::uint64_t hash, const void* data, std::size_t size);

/// Peeks at serialized kernel bytes: 0 if too short to carry a header or the
/// magic mismatches, the raw version field otherwise (which may still be an
/// unsupported version -- the loaders decide).
std::uint32_t kernel_format_version(std::string_view bytes);

/// Size of a raw encoding of a kernel of this order (a 36-byte header plus
/// one u32 per entry); the baseline that compression_ratio stats are
/// measured against.
[[nodiscard]] constexpr std::size_t raw_kernel_bytes(Index order) {
  return 36 + 4 * static_cast<std::size_t>(order);
}

/// Encodes `kernel` into format-v3 bytes.
std::string encode_kernel_v3(const SemiLocalKernel& kernel,
                             std::uint32_t block_entries = kDefaultBlockEntries);

class CompressedKernel;
using CompressedKernelPtr = std::shared_ptr<const CompressedKernel>;

/// A validated, still-compressed kernel: parses v3 bytes in place and
/// answers dominance counts by streaming individual blocks through a scratch
/// buffer. Immutable after open(), so any number of threads may query one
/// instance concurrently.
class CompressedKernel {
 public:
  /// Parses and fully validates `bytes` (header, index, every block
  /// checksum). `owner` keeps the backing storage -- typically a memory
  /// mapping -- alive for the lifetime of the object; pass nullptr only if
  /// the caller guarantees `bytes` outlives it. Throws std::runtime_error
  /// on any structural problem or checksum mismatch.
  static CompressedKernelPtr open(std::string_view bytes,
                                  std::shared_ptr<const void> owner);

  /// Same, taking ownership of a byte string (the whole-file-read fallback).
  static CompressedKernelPtr open(std::string bytes);

  [[nodiscard]] Index m() const { return static_cast<Index>(m_); }
  [[nodiscard]] Index n() const { return static_cast<Index>(n_); }
  [[nodiscard]] Index order() const { return static_cast<Index>(m_ + n_); }
  /// Whole-file size: what a compressed-resident cache entry is charged.
  [[nodiscard]] std::size_t encoded_bytes() const { return bytes_.size(); }
  [[nodiscard]] std::uint32_t blocks() const {
    return static_cast<std::uint32_t>(blocks_.size());
  }

  /// Dominance count sigma(i, j) = |{(r, c) : r >= i, c < j}| by streaming
  /// the blocks covering rows [i, order). Decodes at most
  /// ceil((order - i) / block_entries) blocks; `blocks_decoded` (optional)
  /// is incremented per block. Throws std::out_of_range outside [0, order].
  Index sigma(Index i, Index j,
              std::atomic<std::uint64_t>* blocks_decoded = nullptr) const;

  /// Full decode back to a kernel (validates permutation-ness).
  SemiLocalKernel decode(std::atomic<std::uint64_t>* blocks_decoded = nullptr) const;

 private:
  struct Block {
    std::size_t offset = 0;        ///< into the payload region
    std::uint32_t encoded_bytes = 0;
    std::uint32_t entries = 0;
    std::uint8_t mode = 0;
    std::uint8_t bits = 0;
  };

  CompressedKernel() = default;

  /// Decodes block `b` (entries rows starting at row_base) into `out`.
  void decode_block(std::size_t b, std::int32_t* out) const;

  std::string_view bytes_;
  std::shared_ptr<const void> owner_;
  std::int64_t m_ = 0;
  std::int64_t n_ = 0;
  std::uint32_t block_entries_ = kDefaultBlockEntries;
  std::string_view payload_;
  std::vector<Block> blocks_;
};

}  // namespace semilocal
