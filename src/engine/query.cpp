#include "engine/query.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "core/query_formulas.hpp"

namespace semilocal {

namespace {

HQuery lower_window(Index m, Index n, const WindowQuery& w) {
  switch (w.kind) {
    case QueryKind::kLcs:
      return lcs_query(m, n);
    case QueryKind::kStringSubstring:
      return string_substring_query(m, n, w.x, w.y);
    case QueryKind::kSubstringString:
      return substring_string_query(m, n, w.x, w.y);
  }
  throw std::invalid_argument("answer_query_batch: unknown query kind");
}

// Answers one lowered query off a compressed-resident entry by streaming
// blocks. Chosen over the indexed/scan paths for compressed entries: both of
// those would force a full decode (and the index additionally a build) for
// an entry the store deliberately kept small.
Index compressed_answer(const CompressedKernel& blob, const HQuery& q,
                        QueryCounters* counters) {
  const Index sigma =
      blob.sigma(q.i, q.j, counters ? &counters->blocks_decoded : nullptr);
  if (counters) counters->compressed.fetch_add(1, std::memory_order_relaxed);
  return h_from_sigma(blob.m(), q.i, q.j, sigma) - q.correction;
}

}  // namespace

Index answer_query(const CachedKernel& entry, QueryKind kind, Index x, Index y,
                   bool use_index, QueryCounters* counters) {
  const WindowQuery window{kind, x, y};
  Index value = 0;
  (void)answer_query_batch(entry, &window, &value, 1, use_index, counters);
  return value;
}

bool answer_query_batch(const CachedKernel& entry, const WindowQuery* windows,
                        Index* out, std::size_t count, bool use_index,
                        QueryCounters* counters, bool may_build) {
  if (count == 0) return true;
  const QueryIndex* index = entry.index_if_built();
  if (index == nullptr && entry.is_compressed()) {
    const CompressedKernel& blob = *entry.compressed();
    for (std::size_t t = 0; t < count; ++t) {
      out[t] = compressed_answer(
          blob, lower_window(blob.m(), blob.n(), windows[t]), counters);
    }
    return true;
  }
  if (!use_index) {
    index = nullptr;
  } else if (index == nullptr && entry.wants_index(count)) {
    if (!may_build) return false;
    index = &entry.index(counters ? &counters->index_builds : nullptr);
  }
  if (index == nullptr) {
    const SemiLocalKernel& kernel = entry.kernel();
    for (std::size_t t = 0; t < count; ++t) {
      const HQuery q = lower_window(kernel.m(), kernel.n(), windows[t]);
      out[t] = kernel.h(q.i, q.j) - q.correction;
    }
    if (counters) counters->scanned.fetch_add(count, std::memory_order_relaxed);
    return true;
  }
  if (count == 1) {
    const HQuery q = lower_window(index->m(), index->n(), windows[0]);
    out[0] = h_from_sigma(index->m(), q.i, q.j, index->sigma(q.i, q.j)) - q.correction;
  } else {
    constexpr std::size_t kChunk = 128;
    HQuery lowered[kChunk];
    std::size_t done = 0;
    while (done < count) {
      const std::size_t chunk = std::min(kChunk, count - done);
      for (std::size_t t = 0; t < chunk; ++t) {
        lowered[t] = lower_window(index->m(), index->n(), windows[done + t]);
      }
      index->answer_many(lowered, out + done, chunk);
      done += chunk;
    }
  }
  if (counters) counters->indexed.fetch_add(count, std::memory_order_relaxed);
  return true;
}

void answer_plot_row(const CachedKernel& entry, Index col0, Index step, Index window,
                     std::size_t count, Index* out, bool use_planner,
                     QueryCounters* counters) {
  if (count == 0) return;
  if (entry.m() != window) {
    throw std::out_of_range("answer_plot_row: entry is not a strip of the window width");
  }
  const Index n = entry.n();
  const Index last_j0 = col0 + static_cast<Index>(count - 1) * step;
  if (col0 < 0 || last_j0 + window > n) {
    throw std::out_of_range("answer_plot_row: row runs off the end of b");
  }
  if (counters) counters->plot_windows.fetch_add(count, std::memory_order_relaxed);
  if (use_planner && strided_walk_profitable(entry.order(), step)) {
    // On the diagonal: window b[j0, j0+w) sits at H(w + j0, j0 + w), so the
    // whole row is sigma(i, i) at stride `step` -- one anchor, then the seam
    // walk (core/query_index.hpp). The anchor is one permutation scan: strips
    // are acquired without an index, and building one for a single sigma
    // costs several times the comb. A compressed strip decodes once, unindexed.
    const Permutation& perm = entry.kernel().permutation();
    const Index start = window + col0;
    strided_diagonal_sigma(perm.dominance_sum(start, start), perm, start, step, count,
                           out);
    for (std::size_t v = 0; v < count; ++v) out[v] = window - out[v];
    if (counters) {
      counters->plot_reused_descents.fetch_add(count - 1, std::memory_order_relaxed);
    }
    return;
  }
  // Naive lowering: `count` independent string-substring windows through the
  // ordinary batch path (interleaved descents, or compressed streaming).
  std::vector<WindowQuery> windows(count);
  for (std::size_t v = 0; v < count; ++v) {
    const Index j0 = col0 + static_cast<Index>(v) * step;
    windows[v] = {QueryKind::kStringSubstring, j0, j0 + window};
  }
  answer_query_batch(entry, windows.data(), out, count, /*use_index=*/true, counters);
}

}  // namespace semilocal
