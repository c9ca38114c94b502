// Content-addressed identity of a comparison job.
//
// The engine keys every kernel by the *contents* of the two input strings,
// not by caller-supplied names: two requests for the same (a, b) pair -- from
// different connections, or the same corpus record under two ids -- hit the
// same cache entry and the same on-disk kernel file. A key is the pair of
// 64-bit digests of the symbol data plus both lengths; lengths are kept
// explicit so hash collisions between strings of different sizes are
// structurally impossible and so the store can size-check files cheaply.
//
// The digest runs on every request (and again in the router), so it hashes
// 64-bit words, not bytes: each word is two 32-bit symbols, built
// arithmetically so the result does not depend on the host byte order, and
// four independent multiply-rotate lanes take 8 symbols per step. The lanes
// merge, the length folds in, a tail of up to 7 symbols is absorbed, and a
// final avalanche spreads every input bit over the whole digest. The result
// equals XXH64 (seed 0) of the symbols' little-endian bytes. A byte-serial
// hash chains four dependent multiplies per symbol: on one Xeon core the
// word-wise digest costs ~0.5 ns per symbol against ~6.5 ns (bench_query's
// pair_key rows).
//
// Upgrading: the digest names every kernel file, and stores written under
// the earlier FNV-1a digest use different names. They are never hit: each
// pair is recomputed once on first use and stored under its new name, and
// the old `*.slk` files can be deleted.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "util/types.hpp"

namespace semilocal {

/// Identity of an ordered (a, b) comparison. Equality-comparable, hashable,
/// and renderable as a fixed-width hex string for on-disk filenames.
struct PairKey {
  std::uint64_t hash_a = 0;
  std::uint64_t hash_b = 0;
  Index len_a = 0;
  Index len_b = 0;

  friend bool operator==(const PairKey&, const PairKey&) = default;

  /// 32 hex digits (hash_a, hash_b); stable across runs and platforms.
  [[nodiscard]] std::string hex() const;
};

/// Digests the symbol data of both strings into a PairKey.
PairKey make_pair_key(SequenceView a, SequenceView b);

/// make_pair_key of two sequences still in wire form (one byte per symbol,
/// as a request payload carries them): equal to make_pair_key of the decoded
/// sequences, without decoding them. The shard router keys on it.
PairKey make_wire_pair_key(std::string_view a, std::string_view b);

/// 64-bit digest of a symbol sequence (the one make_pair_key uses per side).
std::uint64_t sequence_digest(SequenceView s);

struct PairKeyHash {
  std::size_t operator()(const PairKey& k) const noexcept {
    // hash_a/hash_b are already well-mixed digests; fold in the lengths.
    std::uint64_t h = k.hash_a ^ (k.hash_b * 0x9e3779b97f4a7c15ULL);
    h ^= static_cast<std::uint64_t>(k.len_a) + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    h ^= static_cast<std::uint64_t>(k.len_b) + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    return static_cast<std::size_t>(h);
  }
};

}  // namespace semilocal
