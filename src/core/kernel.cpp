#include "core/kernel.hpp"

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/query_formulas.hpp"

namespace semilocal {

SemiLocalKernel::SemiLocalKernel(Permutation kernel, Index m, Index n)
    : kernel_(std::move(kernel)), m_(m), n_(n) {
  if (m < 0 || n < 0) throw std::invalid_argument("SemiLocalKernel: negative lengths");
  if (kernel_.size() != m + n) {
    throw std::invalid_argument("SemiLocalKernel: kernel order must be m + n");
  }
}

Index SemiLocalKernel::h(Index i, Index j) const {
  check_h_range(order(), i, j);
  return h_from_sigma(m_, i, j, kernel_.dominance_sum(i, j));
}

Index SemiLocalKernel::string_substring(Index j0, Index j1) const {
  const HQuery q = string_substring_query(m_, n_, j0, j1);
  return h(q.i, q.j) - q.correction;
}

Index SemiLocalKernel::substring_string(Index i0, Index i1) const {
  const HQuery q = substring_string_query(m_, n_, i0, i1);
  return h(q.i, q.j) - q.correction;
}

Index SemiLocalKernel::prefix_suffix(Index k, Index l) const {
  const HQuery q = prefix_suffix_query(m_, n_, k, l);
  return h(q.i, q.j) - q.correction;
}

Index SemiLocalKernel::suffix_prefix(Index s, Index j) const {
  const HQuery q = suffix_prefix_query(m_, n_, s, j);
  return h(q.i, q.j) - q.correction;
}

DenseMatrix SemiLocalKernel::to_h_matrix() const {
  const DenseMatrix sigma_m = distribution_matrix(kernel_);
  DenseMatrix h(order() + 1, order() + 1, 0);
  for (Index i = 0; i <= order(); ++i) {
    for (Index j = 0; j <= order(); ++j) {
      h.at(i, j) = h_from_sigma(m_, i, j, sigma_m.at(i, j));
    }
  }
  return h;
}

SemiLocalKernel SemiLocalKernel::flipped() const {
  return SemiLocalKernel(kernel_.rotate180(), n_, m_);
}

SemiLocalKernel compose_horizontal(const SemiLocalKernel& first,
                                   const SemiLocalKernel& second,
                                   const SteadyAntOptions& opts, AntWorkspace* ws) {
  if (first.n() != second.n()) {
    throw std::invalid_argument("compose_horizontal: kernels must share b");
  }
  using Entry = std::int32_t;
  const Index m1 = first.m();
  const Index m2 = second.m();
  const Index n = first.n();
  const auto& p1 = first.permutation().row_to_col();
  const auto& p2 = second.permutation().row_to_col();
  const auto at = [](Index i) { return static_cast<std::size_t>(i); };
  // Composed rows: the left edge of a'' (0..m2-1), then the first grid's
  // rows shifted by m2. Composed columns: the second grid's exits, then
  // the first grid's right edge shifted by m2.
  std::vector<Entry> out(at(m1 + m2 + n));
  // Only the n strands crossing the junction (the bottom edge of the first
  // grid) can meet twice. A strand entering the second grid from the left
  // has met no junction strand yet, and one leaving the first grid on the
  // right meets none again, so both exits are read off their own kernel.
  for (Index r = 0; r < m2; ++r) out[at(r)] = p2[at(r)];
  // Junction strands in start order: their composed rows and the junction
  // position each reaches.
  std::vector<Entry> rows(at(n));
  std::vector<Entry> enter(at(n));
  Index k = 0;
  for (Index r = 0; r < m1 + n; ++r) {
    const Entry c = p1[at(r)];
    if (c < n) {
      rows[at(k)] = static_cast<Entry>(m2 + r);
      enter[at(k++)] = c;
    } else {
      out[at(m2 + r)] = static_cast<Entry>(c + m2);
    }
  }
  // Junction position j leaves the second grid at column p2[m2 + j]; rank
  // those n columns in exit order.
  std::vector<Entry> rank_of(at(m2 + n), -1);  // -1: not a junction exit
  for (Index j = 0; j < n; ++j) rank_of[at(p2[at(m2 + j)])] = 0;
  std::vector<Entry> col_of_rank(at(n));
  Index t = 0;
  for (Index c = 0; c < m2 + n; ++c) {
    if (rank_of[at(c)] < 0) continue;
    col_of_rank[at(t)] = static_cast<Entry>(c);
    rank_of[at(c)] = static_cast<Entry>(t++);
  }
  std::vector<Entry> leave(at(n));
  for (Index j = 0; j < n; ++j) leave[at(j)] = rank_of[at(p2[at(m2 + j)])];
  // The junction strands' sticky product: start order -> exit rank.
  const std::vector<Entry> z = multiply_row_to_col(enter, leave, opts, ws);
  for (Index i = 0; i < n; ++i) out[at(rows[at(i)])] = col_of_rank[at(z[at(i)])];
  return SemiLocalKernel(Permutation::from_row_to_col(std::move(out)), m1 + m2, n);
}

SemiLocalKernel compose_vertical(const SemiLocalKernel& first,
                                 const SemiLocalKernel& second,
                                 const SteadyAntOptions& opts, AntWorkspace* ws) {
  if (first.m() != second.m()) {
    throw std::invalid_argument("compose_vertical: kernels must share a");
  }
  return compose_horizontal(first.flipped(), second.flipped(), opts, ws).flipped();
}

}  // namespace semilocal
