// The semi-local LCS kernel P_{a,b} and its query interface.
//
// For strings a (|a| = m) and b (|b| = n), the kernel is a permutation
// matrix of order m + n that implicitly represents the whole
// (m+n+1) x (m+n+1) LCS matrix H_{a,b} of Definition 3.3:
//
//   H(i, j) = j - i + m - sigma(i, j),
//   sigma(i, j) = |{(r, c) nonzero in P_{a,b} : r >= i, c < j}|.
//
// Index semantics of the kernel (matching Listing 1): row r is the strand
// entering the LCS grid at start position r, where start positions number
// the left edge bottom-to-top 0..m-1 followed by the top edge left-to-right
// m..m+n-1; column c is the exit position, numbering the bottom edge
// left-to-right 0..n-1 followed by the right edge bottom-to-top n..n+m-1.
//
// Queries answer all four semi-local sub-problems (Definition 3.2). The
// kernel is a plain value -- a permutation plus m and n -- and each query is
// one stateless O(m + n) dominance scan of the permutation, so any number of
// threads may query one shared kernel. A caller that asks many windows of
// one kernel builds a QueryIndex (core/query_index.hpp) next to it for
// O(log n) answers.
#pragma once

#include "braid/monge.hpp"
#include "braid/permutation.hpp"
#include "braid/steady_ant.hpp"
#include "util/types.hpp"

namespace semilocal {

/// Implicit semi-local LCS solution for a fixed string pair.
class SemiLocalKernel {
 public:
  SemiLocalKernel() = default;

  /// Wraps a kernel permutation of order m + n. Throws if sizes disagree.
  SemiLocalKernel(Permutation kernel, Index m, Index n);

  [[nodiscard]] Index m() const { return m_; }
  [[nodiscard]] Index n() const { return n_; }
  [[nodiscard]] Index order() const { return m_ + n_; }
  [[nodiscard]] const Permutation& permutation() const { return kernel_; }

  /// Element H(i, j) of the semi-local LCS matrix, i, j in [0, m+n]; one
  /// O(m + n) scan, like every query below.
  [[nodiscard]] Index h(Index i, Index j) const;

  /// LCS(a, b): the global score.
  [[nodiscard]] Index lcs() const { return h(m_, n_); }

  /// string-substring: LCS(a, b[j0, j1)), 0 <= j0 <= j1 <= n.
  [[nodiscard]] Index string_substring(Index j0, Index j1) const;

  /// substring-string: LCS(a[i0, i1), b), 0 <= i0 <= i1 <= m.
  [[nodiscard]] Index substring_string(Index i0, Index i1) const;

  /// prefix-suffix: LCS(a[0, k), b[l, n)).
  [[nodiscard]] Index prefix_suffix(Index k, Index l) const;

  /// suffix-prefix: LCS(a[s, m), b[0, j)).
  [[nodiscard]] Index suffix_prefix(Index s, Index j) const;

  /// Full H matrix (size (m+n+1)^2), for tests and visualisation.
  [[nodiscard]] DenseMatrix to_h_matrix() const;

  /// Kernel for the swapped pair: P_{b,a} from P_{a,b} (Theorem 3.5, the
  /// "flip": a 180-degree rotation of the permutation matrix).
  [[nodiscard]] SemiLocalKernel flipped() const;

 private:
  Permutation kernel_;
  Index m_ = 0;
  Index n_ = 0;
};

/// Kernel composition along a-concatenation (Theorem 3.4): from P_{a',b} and
/// P_{a'',b} builds P_{a'a'',b} = (Id_{m''} (+) P') (.) (P'' (+) Id_{m'}).
/// `ws` (optional) supplies reusable steady-ant scratch.
SemiLocalKernel compose_horizontal(const SemiLocalKernel& first,
                                   const SemiLocalKernel& second,
                                   const SteadyAntOptions& opts = {},
                                   AntWorkspace* ws = nullptr);

/// Kernel composition along b-concatenation: from P_{a,b'} and P_{a,b''}
/// builds P_{a,b'b''} by flipping, composing horizontally, flipping back.
SemiLocalKernel compose_vertical(const SemiLocalKernel& first,
                                 const SemiLocalKernel& second,
                                 const SteadyAntOptions& opts = {},
                                 AntWorkspace* ws = nullptr);

/// Direct sum helpers on permutations: identity block before / after.
Permutation prepend_identity(const Permutation& p, Index k);
Permutation append_identity(const Permutation& p, Index k);

}  // namespace semilocal
