// Immutable query accelerator for a semi-local kernel.
//
// SemiLocalKernel answers each query with one O(m + n) dominance scan of its
// permutation. A caller that asks many windows of one kernel builds a
// QueryIndex next to it instead: built once in O(n log n), immutable
// afterwards, so any number of threads may query it concurrently with no
// synchronization. Queries run in O(log n) through a flattened
// single-allocation wavelet tree (dominance/wavelet_tree.hpp) and the
// coordinate formulas of core/query_formulas.hpp that the kernel's own
// methods use. It is the one query accelerator: the engine attaches one to
// each served kernel that pays for it (CachedKernel::wants_index), and the
// library's window sweeps (align/, semilocal_cli compare --profile, the
// examples) hold one beside their kernel.
#pragma once

#include <algorithm>
#include <cstddef>

#include "core/kernel.hpp"
#include "core/query_formulas.hpp"
#include "dominance/wavelet_tree.hpp"
#include "util/types.hpp"

namespace semilocal {

class QueryIndex {
 public:
  /// Builds the index from the kernel permutation: O(n log n) time and bits.
  explicit QueryIndex(const SemiLocalKernel& kernel)
      : tree_(kernel.permutation()), m_(kernel.m()), n_(kernel.n()) {}

  [[nodiscard]] Index m() const { return m_; }
  [[nodiscard]] Index n() const { return n_; }
  [[nodiscard]] Index order() const { return m_ + n_; }

  /// Dominance count sigma(i, j), O(log n).
  [[nodiscard]] Index sigma(Index i, Index j) const { return tree_.count(i, j); }

  /// Element H(i, j) of the semi-local LCS matrix, i, j in [0, m+n].
  [[nodiscard]] Index h(Index i, Index j) const {
    check_h_range(order(), i, j);
    return h_from_sigma(m_, i, j, sigma(i, j));
  }

  /// LCS(a, b): the global score.
  [[nodiscard]] Index lcs() const { return answer(lcs_query(m_, n_)); }

  /// string-substring: LCS(a, b[j0, j1)), 0 <= j0 <= j1 <= n.
  [[nodiscard]] Index string_substring(Index j0, Index j1) const {
    return answer(string_substring_query(m_, n_, j0, j1));
  }

  /// substring-string: LCS(a[i0, i1), b), 0 <= i0 <= i1 <= m.
  [[nodiscard]] Index substring_string(Index i0, Index i1) const {
    return answer(substring_string_query(m_, n_, i0, i1));
  }

  /// prefix-suffix: LCS(a[0, k), b[l, n)).
  [[nodiscard]] Index prefix_suffix(Index k, Index l) const {
    return answer(prefix_suffix_query(m_, n_, k, l));
  }

  /// suffix-prefix: LCS(a[s, m), b[0, j)).
  [[nodiscard]] Index suffix_prefix(Index s, Index j) const {
    return answer(suffix_prefix_query(m_, n_, s, j));
  }

  /// Answers `count` lowered queries at once: out[t] = H(q.i, q.j) - q.correction.
  /// Routes through the wavelet tree's interleaved batch descent, which
  /// overlaps several queries' rank-load chains -- the fast path for the
  /// batched protocol op (one frame, many windows over one pair). Queries
  /// must already be range-checked (the lowering formulas throw otherwise).
  void answer_many(const HQuery* queries, Index* out, std::size_t count) const {
    constexpr std::size_t kChunk = 128;
    Index is[kChunk];
    Index js[kChunk];
    Index sigmas[kChunk];
    std::size_t done = 0;
    while (done < count) {
      const std::size_t chunk = std::min(kChunk, count - done);
      for (std::size_t t = 0; t < chunk; ++t) {
        is[t] = queries[done + t].i;
        js[t] = queries[done + t].j;
      }
      tree_.count_many(is, js, sigmas, chunk);
      for (std::size_t t = 0; t < chunk; ++t) {
        const HQuery& q = queries[done + t];
        out[done + t] = h_from_sigma(m_, q.i, q.j, sigmas[t]) - q.correction;
      }
      done += chunk;
    }
  }

  /// Heap bytes the index occupies.
  [[nodiscard]] std::size_t resident_bytes() const { return tree_.resident_bytes(); }

  /// Bytes an index over a kernel of this order will occupy, computable
  /// before building it -- the LRU cache charges entries for their index up
  /// front so the accounting never changes underneath it.
  [[nodiscard]] static std::size_t projected_bytes(Index order) {
    return FlatWaveletTree::projected_bytes(order);
  }

 private:
  [[nodiscard]] Index answer(const HQuery& q) const {
    return h_from_sigma(m_, q.i, q.j, sigma(q.i, q.j)) - q.correction;
  }

  FlatWaveletTree tree_;
  Index m_ = 0;
  Index n_ = 0;
};

// ---------------------------------------------------------------------------
// Grid-aware planner primitive for alignment plots.
//
// A plot row against a strip kernel (m = window) asks for width-w windows
// b[j0, j0 + w) at stride `step`; string_substring_query lowers window j0 to
// H(w + j0, j0 + w), i.e. every query in the row sits on the main diagonal:
// cell = w - sigma(i, i) with i = w + j0. Adjacent windows share all of
// their rank structure except the `step` strands that enter and leave, so
// instead of k independent O(log n) wavelet descents the row needs ONE
// anchoring descent and then a seam walk over the permutation arrays:
//
//   sigma(i+s, i+s) = sigma(i, i)
//                     - |{ r in [i, i+s) : col_of(r) <  i   }|   (rows leaving)
//                     + |{ c in [i, i+s) : row_of(c) >= i+s }|   (cols entering)
//
// Both correction terms are contiguous array sweeps, so a whole plot row is
// two linear passes over the permutation -- cache-friendly and branch-light.
// The engine takes the anchor from one O(m + n) dominance scan of the
// permutation -- far cheaper than building an index for a single sigma(i, i).

/// Fills out[t] = sigma(start + t*step, start + t*step) for t in [0, count),
/// given out[0]'s value `anchor_sigma` = sigma(start, start). 2*step array
/// probes per subsequent diagonal point. Requires start + (count-1)*step <=
/// order.
inline void strided_diagonal_sigma(Index anchor_sigma, const Permutation& perm,
                                   Index start, Index step, std::size_t count,
                                   Index* out) {
  if (count == 0) return;
  const auto& col_of = perm.row_to_col();
  const auto& row_of = perm.col_to_row();
  Index i = start;
  Index sigma = anchor_sigma;
  out[0] = sigma;
  for (std::size_t t = 1; t < count; ++t) {
    const Index ni = i + step;
    Index drop = 0;
    Index gain = 0;
    for (Index r = i; r < ni; ++r) {
      drop += (col_of[static_cast<std::size_t>(r)] < i) ? 1 : 0;
      gain += (row_of[static_cast<std::size_t>(r)] >= ni) ? 1 : 0;
    }
    sigma += gain - drop;
    i = ni;
    out[t] = sigma;
  }
}

/// The same walk anchored by one wavelet descent of `index` (tests, benches).
inline void strided_diagonal_sigma(const QueryIndex& index, const Permutation& perm,
                                   Index start, Index step, std::size_t count,
                                   Index* out) {
  if (count > 0) {
    strided_diagonal_sigma(index.sigma(start, start), perm, start, step, count, out);
  }
}

/// Whether the seam walk beats independent interleaved descents for this
/// stride: the walk costs ~2*step contiguous probes per cell, a descent
/// ~2*ceil(log2(order)) dependent rank loads. The 2x headroom favors the
/// walk's sequential access pattern over the descent's pointer chasing.
[[nodiscard]] inline bool strided_walk_profitable(Index order, Index step) {
  Index levels = 0;
  while ((Index{1} << levels) < order) ++levels;
  return step <= 2 * levels;
}

}  // namespace semilocal
