// Permutation matrices == reduced sticky braids.
//
// An n x n permutation matrix represents a reduced sticky braid of order n
// (Section 3 of the paper): the nonzero (r, c) records a strand entering at
// index r and exiting at index c. The library stores a permutation as the
// pair of inverse maps row->col and col->row, i.e. exactly the "two lists of
// size N" representation the paper's memory analysis assumes.
//
// Dominance convention used throughout the library:
//   sigma(i, j) = |{ (r, c) nonzero : r >= i, c < j }|      (lower-left)
// with i, j in [0, n]. Under this convention the distribution matrix of the
// sticky product P (.) Q is the (min,+) product of the distribution matrices
// of P and Q (see monge.hpp), and the semi-local LCS matrix satisfies
//   H(i, j) = j - i + m - sigma_{P_{a,b}}(i, j).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "util/types.hpp"

namespace semilocal {

/// Dense permutation of [0, n): both directions of the bijection.
class Permutation {
 public:
  /// Entry type; 32-bit as braids of order up to ~2^31 are supported.
  using Entry = std::int32_t;

  /// Sentinel for "no nonzero in this row/column" while under construction.
  static constexpr Entry kNone = -1;

  Permutation() = default;

  /// Creates an empty (all kNone) permutation of order n.
  explicit Permutation(Index n);

  /// The identity braid: strand i exits at i.
  static Permutation identity(Index n);

  /// The reversal braid: strand i exits at n-1-i (every pair crossed once).
  static Permutation reversal(Index n);

  /// Builds from a row->col vector; validates it is a permutation.
  static Permutation from_row_to_col(std::vector<Entry> row_to_col);

  /// Uniformly random permutation (Fisher-Yates) -- the workload of the
  /// paper's braid-multiplication experiments (Figure 4).
  static Permutation random(Index n, std::uint64_t seed);

  [[nodiscard]] Index size() const { return static_cast<Index>(row_to_col_.size()); }

  /// Column of the nonzero in `row` (kNone if unset).
  [[nodiscard]] Entry col_of(Index row) const { return row_to_col_[static_cast<std::size_t>(row)]; }

  /// Row of the nonzero in `col` (kNone if unset).
  [[nodiscard]] Entry row_of(Index col) const { return col_to_row_[static_cast<std::size_t>(col)]; }

  /// Places a nonzero at (row, col); overwrites nothing -- both slots must
  /// currently be empty (enforced in debug builds).
  void set(Index row, Index col);

  /// True iff every row and every column holds exactly one nonzero.
  [[nodiscard]] bool is_complete() const;

  /// Inverse permutation == matrix transpose.
  [[nodiscard]] Permutation inverse() const;

  /// Reverses both coordinates: nonzero (r, c) -> (n-1-r, n-1-c). This is
  /// the index substitution of the paper's flip theorem (Theorem 3.5).
  [[nodiscard]] Permutation rotate180() const;

  /// Dominance count sigma(i, j) = |{(r, c) : r >= i, c < j}| computed in
  /// O(n) with no precomputation: the one-shot scan behind unindexed queries
  /// and plot-row anchors (use dominance/ for repeated queries).
  [[nodiscard]] Index dominance_sum(Index i, Index j) const;

  /// All nonzeros as (row, col), in row order.
  [[nodiscard]] std::vector<std::pair<Index, Index>> nonzeros() const;

  /// Direct access to the underlying maps (read-only).
  [[nodiscard]] const std::vector<Entry>& row_to_col() const { return row_to_col_; }
  [[nodiscard]] const std::vector<Entry>& col_to_row() const { return col_to_row_; }

  friend bool operator==(const Permutation&, const Permutation&) = default;

 private:
  std::vector<Entry> row_to_col_;
  std::vector<Entry> col_to_row_;
};

}  // namespace semilocal
