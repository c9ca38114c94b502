// Brute-force reference implementations used only by the test suite.
//
// These oracles are deliberately the most literal transcription of the
// definitions in the paper, with no algorithmic cleverness, so that every
// fast implementation in the library can be validated against them on small
// inputs.
#pragma once

#include <cstdint>
#include <string>

#include "braid/monge.hpp"
#include "core/kernel.hpp"
#include "util/types.hpp"

namespace semilocal::testing {

/// Wildcard symbol for the padded string b^pad of Definition 3.3: matches
/// every symbol including itself.
inline constexpr Symbol kWildcard = -1'000'000;

/// Plain quadratic LCS by dynamic programming; `kWildcard` in either input
/// matches anything.
Index lcs_oracle(SequenceView a, SequenceView b);

/// The (m+n+1) x (m+n+1) semi-local LCS matrix H_{a,b} computed directly
/// from Definition 3.3: H(i,j) = LCS(a, b_pad[i, j+m)) for i < j+m and
/// j + m - i otherwise, where b_pad = ?^m b ?^m.
DenseMatrix semi_local_h_oracle(SequenceView a, SequenceView b);

/// A random test string over a small alphabet (uniform), convenience wrapper
/// with a distinct seed stream from library generators.
Sequence random_string(Index length, Symbol alphabet, std::uint64_t seed);

/// Direct sums on permutations: an identity block of order k before /
/// after `p`.
Permutation prepend_identity(const Permutation& p, Index k);
Permutation append_identity(const Permutation& p, Index k);

/// Theorem 3.4 as written: P_{a'a'',b} = (Id_{m''} (+) P') (.) (P'' (+)
/// Id_{m'}), one steady-ant product at the padded order m' + m'' + n. The
/// library's compose_horizontal must match it bit for bit.
SemiLocalKernel padded_compose_horizontal(const SemiLocalKernel& first,
                                          const SemiLocalKernel& second);

/// The b-concatenation counterpart: flip both, compose padded, flip back.
SemiLocalKernel padded_compose_vertical(const SemiLocalKernel& first,
                                        const SemiLocalKernel& second);

/// A well-formed kernel file in the retired raw format v2 (magic, u32
/// version 2, i64 m, i64 n, the u32 row->col array, then a 64-bit FNV-1a
/// checksum over m, n and the array), for tests that loaders and the store
/// turn it away like any foreign file.
std::string raw_v2_kernel_bytes(const SemiLocalKernel& kernel);

}  // namespace semilocal::testing
