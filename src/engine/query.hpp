// Thread-safe queries over shared cached kernels.
//
// Three interchangeable answer paths, all safe for any number of threads on
// one shared kernel:
//
//   * Indexed (the warm serving path): O(log n) dominance counts through the
//     entry's shared immutable QueryIndex, built exactly once via
//     std::call_once by the ask that first wants it and then read
//     lock-free. One-window asks are scanned instead until they have cost
//     about one build (CachedKernel::wants_index); the ask that reaches
//     that, every later ask and every batch of two or more windows use
//     the index.
//   * Compressed (compressed-resident entries): the dominance count streamed
//     block-by-block off the entry's CompressedKernel -- O(m + n) work like
//     the scan but touching only compressed bytes plus one block's scratch,
//     so cold-tail entries answer without ever being decoded in full.
//   * Scan: the kernel's own query methods, each one stateless O(m + n)
//     dominance scan of the immutable permutation -- no hidden state, no
//     synchronization, and for a one-shot query cheaper than building any
//     structure.
//
// answer_query() routes between them and feeds the queries_indexed /
// queries_scanned / queries_compressed counters the stats endpoint surfaces.
// Alignment-plot rows (answer_plot_row) at a profitable stride never build
// or read an index: they walk the strip's permutation from one scanned
// anchor.
// All coordinate formulas come from core/query_formulas.hpp, the header
// SemiLocalKernel and QueryIndex share (Definition 3.2 / 3.3 of the paper).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

#include "core/kernel.hpp"
#include "core/query_formulas.hpp"
#include "engine/lru_cache.hpp"
#include "util/types.hpp"

namespace semilocal {

/// The query kinds the serving path answers off a cached kernel.
enum class QueryKind : std::uint8_t {
  kLcs = 0,              ///< LCS(a, b); window arguments ignored
  kStringSubstring = 1,  ///< LCS(a, b[x, y))
  kSubstringString = 2,  ///< LCS(a[x, y), b)
};

/// The counters surfaced through the JSON stats endpoint.
struct QueryCounters {
  /// Queries answered via QueryIndex. Plot cells count only in
  /// plot_windows (and walked ones in plot_reused_descents), never here or
  /// in `scanned`.
  std::atomic<std::uint64_t> indexed{0};
  /// Queries answered via the per-window O(m+n) scan.
  std::atomic<std::uint64_t> scanned{0};
  std::atomic<std::uint64_t> index_builds{0};  ///< QueryIndex constructions
  std::atomic<std::uint64_t> compressed{0};    ///< queries streamed off v3 blocks
  std::atomic<std::uint64_t> blocks_decoded{0};  ///< v3 blocks decoded by queries
  std::atomic<std::uint64_t> plot_tiles{0};      ///< alignment-plot tiles emitted
  /// Plot cells answered, off strips or directly (lcs_window_band).
  std::atomic<std::uint64_t> plot_windows{0};
  /// Descents the seam walk saved: strip plots only.
  std::atomic<std::uint64_t> plot_reused_descents{0};
};

/// Plain-value snapshot of QueryCounters for EngineStats.
struct QueryStats {
  std::uint64_t indexed = 0;
  std::uint64_t scanned = 0;
  std::uint64_t index_builds = 0;
  std::uint64_t compressed = 0;
  std::uint64_t blocks_decoded = 0;
  std::uint64_t plot_tiles = 0;
  std::uint64_t plot_windows = 0;
  std::uint64_t plot_reused_descents = 0;
};

/// One window of a batched query: a query kind plus its two window
/// coordinates (ignored for kLcs). This is the unit the batched protocol op
/// carries k of per frame.
struct WindowQuery {
  QueryKind kind = QueryKind::kLcs;
  Index x = 0;
  Index y = 0;
};

/// Answers one query off a shared cached entry. With `use_index` the entry's
/// QueryIndex answers in O(log n), built first if this ask wants it (see
/// the header comment); otherwise the O(m + n) scan answers statelessly.
/// The engine always passes true; false is the scan reference that tests
/// and benches compare against. `counters` (optional) receives the routing
/// decision. Throws
/// std::out_of_range on a bad window.
Index answer_query(const CachedKernel& entry, QueryKind kind, Index x, Index y,
                   bool use_index, QueryCounters* counters = nullptr);

/// Answers `count` windows over one shared entry into `out`. The indexed
/// path lowers all windows up front and runs the QueryIndex's interleaved
/// batch descent (several wavelet descents in flight), which is what makes
/// the batched protocol op faster than `count` single calls; the scan path
/// degenerates to a loop. With `may_build` false -- a caller that must not
/// block, the reactor -- the call never builds: when the answer needs an
/// index that is not built yet, it answers nothing and returns false, and
/// the caller hands the ask to a scheduler worker. Returns true otherwise. Throws std::out_of_range on any bad window.
bool answer_query_batch(const CachedKernel& entry, const WindowQuery* windows,
                        Index* out, std::size_t count, bool use_index,
                        QueryCounters* counters = nullptr, bool may_build = true);

/// One streamed chunk of an alignment plot: a (rows x cols) sub-rectangle of
/// the grid, origin (row0, col0) in *grid* coordinates, cells row-major
/// little-endian (u16 raw scores for quant 16, u8 scaled to [0, 255] for
/// quant 8). `last` marks the final frame of the plot's response stream.
struct PlotTile {
  Index row0 = 0;
  Index col0 = 0;
  std::uint32_t rows = 0;
  std::uint32_t cols = 0;
  std::uint8_t quant = 16;
  bool last = false;
  std::string cells;

  friend bool operator==(const PlotTile&, const PlotTile&) = default;
};

/// Answers one plot row against a strip entry (kernel of (a-window, b),
/// m == window): out[v] = LCS(strip, b[col0 + v*step, +window)) for v in
/// [0, count). With `use_planner` and a stride the heuristic
/// likes, the whole row costs one O(m + n) permutation scan for the anchor
/// plus a seam walk, and counts only in plot_windows / plot_reused_descents
/// (queries_scanned means per-window scan fallbacks). This path never builds
/// or reads an index; a compressed entry decodes its kernel once (a plot
/// touches every block anyway). Otherwise
/// every window lowers independently through answer_query_batch -- the
/// ablation the bench gates against -- which builds the index if the row
/// has two or more windows. Bumps plot_windows /
/// plot_reused_descents.
void answer_plot_row(const CachedKernel& entry, Index col0, Index step, Index window,
                     std::size_t count, Index* out, bool use_planner,
                     QueryCounters* counters = nullptr);

}  // namespace semilocal
