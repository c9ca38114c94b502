#include "align/distance.hpp"

#include <algorithm>
#include <stdexcept>

#include "lcs/dp.hpp"

namespace semilocal {

Index levenshtein(SequenceView a, SequenceView b) {
  if (a.size() > b.size()) std::swap(a, b);
  const Index m = static_cast<Index>(a.size());
  const Index n = static_cast<Index>(b.size());
  std::vector<Index> prev(static_cast<std::size_t>(m) + 1);
  std::vector<Index> cur(static_cast<std::size_t>(m) + 1);
  for (Index i = 0; i <= m; ++i) prev[static_cast<std::size_t>(i)] = i;
  for (Index j = 1; j <= n; ++j) {
    cur[0] = j;
    const Symbol y = b[static_cast<std::size_t>(j - 1)];
    for (Index i = 1; i <= m; ++i) {
      const Index sub = (a[static_cast<std::size_t>(i - 1)] == y) ? 0 : 1;
      cur[static_cast<std::size_t>(i)] =
          std::min({prev[static_cast<std::size_t>(i)] + 1,
                    cur[static_cast<std::size_t>(i - 1)] + 1,
                    prev[static_cast<std::size_t>(i - 1)] + sub});
    }
    std::swap(prev, cur);
  }
  return prev[static_cast<std::size_t>(m)];
}

Index indel_distance(SequenceView a, SequenceView b) {
  return static_cast<Index>(a.size()) + static_cast<Index>(b.size()) -
         2 * lcs_score_dp(a, b);
}

Index WindowDistances::window(Index j0, Index j1) const {
  return index_.m() + (j1 - j0) - 2 * index_.string_substring(j0, j1);
}

Index WindowDistances::prefix_suffix(Index k, Index l) const {
  return k + (index_.n() - l) - 2 * index_.prefix_suffix(k, l);
}

std::pair<Index, Index> WindowDistances::best_window(Index width, Index stride) const {
  if (width < 0 || width > index_.n()) {
    throw std::invalid_argument("best_window: width outside [0, n]");
  }
  if (stride <= 0) throw std::invalid_argument("best_window: stride must be positive");
  Index best_start = 0;
  Index best = window(0, width);
  for (Index j0 = stride; j0 + width <= index_.n(); j0 += stride) {
    const Index d = window(j0, j0 + width);
    if (d < best) {
      best = d;
      best_start = j0;
    }
  }
  return {best_start, best};
}

std::vector<Index> WindowDistances::end_position_profile(Index slack) const {
  if (slack < 0) throw std::invalid_argument("end_position_profile: negative slack");
  const Index m = index_.m();
  const Index n = index_.n();
  std::vector<Index> profile(static_cast<std::size_t>(n) + 1, 0);
  for (Index j1 = 0; j1 <= n; ++j1) {
    // Candidate window starts: widths within [m - slack, m + slack],
    // clipped; the optimal width for matching a pattern of length m is
    // within an indel-count of the distance itself.
    const Index lo = std::max<Index>(0, j1 - (m + slack));
    const Index hi = std::max<Index>(0, j1 - std::max<Index>(0, m - slack));
    Index best = window(hi, j1);
    for (Index j0 = lo; j0 <= hi; ++j0) {
      best = std::min(best, window(j0, j1));
    }
    profile[static_cast<std::size_t>(j1)] = best;
  }
  return profile;
}

}  // namespace semilocal
