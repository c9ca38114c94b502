// The comparison engine: store + cache + scheduler behind one facade.
//
// A ComparisonEngine is the long-lived object a server holds: it owns the
// kernel store (disk tier + LRU cache), the batching scheduler, the query
// counters, and the latency samples, and exposes the query layer that
// answers LCS-score and substring-LCS requests straight off cached kernels.
// The flow per request:
//
//   request --> content hash --> cache hit? ----------------> answer
//                                  | miss
//                                  v
//                            disk hit? (load, promote) -----> answer
//                                  | miss
//                                  v
//                            scheduler (coalesce, batch,
//                            bounded queue) --> compute -----> store.put
//
// Repeated pairs therefore cost one computation for the lifetime of the
// store -- the engine stats counters make that auditable (computed stays at
// the number of distinct pairs while requests grows).
//
// A global score alone never builds a kernel: score_async answers it off a
// cached kernel when there is one, and otherwise from a score memo or a
// score job -- the paper's bit-parallel combing, O(mn/w) word operations
// instead of an O(mn) comb plus an index. The first request that needs the
// kernel (a window, a batch, a plot strip) builds it.
//
// A cached entry can carry a shared immutable QueryIndex (built once, read
// lock-free; see engine/query.hpp), so on the warm path queries cost
// O(log n) instead of the O(m + n) dominance scan. Who asks for a kernel
// decides whether it gets an index: query acquisitions (entry, entry_async,
// kernel, lcs, the window calls) have a scheduler worker build it right
// after the compute when `index_queries` is set; plot strips and corpus
// upsert kernels (braid_async) skip it -- a strip needs one anchoring
// sigma(i, i), which one O(m + n) scan answers, a tail strip is only
// composed, and a published pair may never be queried. A later query on
// such a pair builds the index lazily, once.
// `index_queries = false` forces the scan path -- the ablation knob the
// benchmarks flip.
#pragma once

#include <atomic>
#include <functional>
#include <future>
#include <vector>

#include "engine/kernel_store.hpp"
#include "engine/latency.hpp"
#include "engine/query.hpp"
#include "engine/scheduler.hpp"

namespace semilocal {

struct EngineOptions {
  KernelStoreOptions store;
  SchedulerOptions scheduler;
  /// Route queries through each entry's QueryIndex (O(log n), built once).
  /// false = always use the O(m + n) dominance scan.
  bool index_queries = true;
  /// Alignment plots: share the wavelet descent across each grid row via the
  /// strided seam walk. false = lower every cell as an independent window
  /// query -- the ablation knob the plot bench flips.
  bool plot_planner = true;
  /// Target cells per streamed plot tile (clamped to kMaxPlotTileCells).
  /// Small values force multi-tile streams; tests use that to exercise
  /// reassembly and backpressure.
  Index plot_tile_cells = Index{1} << 16;
  /// Filesystem + clock the whole engine runs on (store I/O, scheduler and
  /// lookup latency clocks). nullptr = real_env(). A non-null store.env /
  /// scheduler.env takes precedence for that component.
  Env* env = nullptr;
};

/// stats_json format version; bumped when fields change meaning (additions
/// do not bump it). Emitted for readers of the JSON; the router's health
/// probe reads only pid and uptime_ms, and checks no version.
inline constexpr std::int64_t kStatsVersion = 2;

struct EngineStats {
  std::uint64_t requests = 0;  ///< kernel acquisitions and score_async calls
  KernelStoreStats store;
  SchedulerStats scheduler;
  QueryStats queries;
  LatencyRecorder::Percentiles latency;
  /// Identity fields for health probes: a restarted backend shows a new pid
  /// and a reset uptime, which shardctl status and the router prober report.
  std::uint64_t uptime_ms = 0;
  std::int64_t pid = 0;

  /// Fraction of requests served from the in-memory cache.
  [[nodiscard]] double cache_hit_rate() const {
    return requests == 0
               ? 0.0
               : static_cast<double>(store.cache.hits) / static_cast<double>(requests);
  }
};

/// The stats endpoint's JSON rendering (one flat object; used by
/// semilocal_serve's kStats op and pinned by the fault-injection tests).
/// Includes the degradation counters: store_write_failures,
/// store_quarantined, store_pending_persists, and degraded_mode (1 while
/// any entry is cache-only awaiting a persist retry).
std::string stats_json(const EngineStats& stats);

/// Compact identity document answered on Op::kHealth: stats_version, pid,
/// uptime_ms, requests. A prober that remembers (pid, uptime_ms) can tell a
/// restarted backend (new pid, or the same pid with a smaller uptime) from a
/// live one without pulling the full stats object.
std::string health_json(const EngineStats& stats);

class ComparisonEngine {
 public:
  explicit ComparisonEngine(EngineOptions options = {});

  /// The cached entry (kernel + its once-built QueryIndex) of (a, b):
  /// cache, then disk, then scheduled compute. Blocking; throws
  /// EngineOverloaded under backpressure.
  CachedKernelPtr entry(SequenceView a, SequenceView b);

  /// Non-blocking variant: the future resolves when the entry is ready.
  /// Cache and disk hits return an already-resolved future.
  std::shared_future<CachedKernelPtr> entry_async(SequenceView a, SequenceView b);

  /// The bare kernel of (a, b). Same acquisition path as entry().
  KernelPtr kernel(SequenceView a, SequenceView b);

  /// entry_async for a kernel that is composed, walked, or may never be
  /// queried: a computed kernel gets no eager QueryIndex build. Corpus
  /// upserts use it. A query on the pair later builds the index lazily,
  /// once.
  std::shared_future<CachedKernelPtr> braid_async(SequenceView a, SequenceView b);

  /// LCS(a, b) without building a kernel, in this order: a cached kernel
  /// answers it (the same single store probe, counters and latency sample
  /// as entry_async); then the score memo; then the pair's kernel already in
  /// flight, read once it resolves (the returned future is deferred and
  /// waits for it in get()); else a score job is queued, and duplicate
  /// misses coalesce onto it. Score jobs never write the store. Throws
  /// EngineOverloaded under backpressure.
  std::shared_future<Index> score_async(SequenceView a, SequenceView b);

  /// Query layer: answers off the (possibly cached) entry, routed through
  /// the QueryIndex or the dominance scan per `index_queries`. lcs() is
  /// kernel-backed (it computes and caches the kernel); score_async is the
  /// score-only path.
  Index lcs(SequenceView a, SequenceView b);
  Index string_substring(SequenceView a, SequenceView b, Index j0, Index j1);
  Index substring_string(SequenceView a, SequenceView b, Index i0, Index i1);

  /// One window off an already-acquired entry (serving fast path: acquire
  /// once, answer many). Routing and counters as above.
  Index answer(const CachedKernel& entry, QueryKind kind, Index x, Index y);

  /// k windows over one pair: acquires the entry once, answers all windows
  /// through the interleaved batch descent (or the scan loop when indexing
  /// is off). This backs the batched protocol op.
  std::vector<Index> answer_batch(SequenceView a, SequenceView b,
                                  const std::vector<WindowQuery>& windows);

  /// Same, off an already-acquired entry (the server's batch handler).
  std::vector<Index> answer_batch(const CachedKernel& entry,
                                  const std::vector<WindowQuery>& windows);

  /// Streams the alignment plot of `spec` over (a, b): cell (u, v) =
  /// LCS(a[row0 + u*step, +window), b[col0 + v*step, +window)), delivered
  /// row-major as quantized tiles of at most plot_tile_cells cells each
  /// through `emit` (the final tile has `last` set). The grid never
  /// materializes whole: each grid row needs one strip kernel (a-window, b),
  /// acquired through the normal cache/scheduler path with a bounded
  /// prefetch fan-out, so rows compute in parallel across workers and
  /// repeated plots hit the LRU. `emit` returning false cancels the stream
  /// (no further tiles, no terminal frame). Throws std::out_of_range on a
  /// bad spec/extent and EngineOverloaded under scheduler backpressure.
  /// Strips are acquired without a QueryIndex: a profitable stride anchors
  /// each row's seam walk on one permutation scan (see answer_plot_row).
  /// `drain_inline` runs queued compute on this thread (workers = 0 mode).
  void alignment_plot(SequenceView a, SequenceView b, const PlotSpec& spec,
                      const std::function<bool(PlotTile&&)>& emit,
                      bool drain_inline = false);

  [[nodiscard]] EngineStats stats() const;

  /// Runs queued work on the calling thread (see KernelScheduler::drain).
  std::size_t drain() { return scheduler_.drain(); }

  [[nodiscard]] KernelStore& store() { return store_; }

 private:
  /// entry_async with the content key already computed. The alignment-plot
  /// planner digests `b` once per plot instead of once per grid row.
  /// `key` must equal make_pair_key(a, b). `index` asks the
  /// scheduler to build a computed kernel's QueryIndex eagerly.
  std::shared_future<CachedKernelPtr> entry_async_keyed(const PairKey& key,
                                                        SequenceView a, SequenceView b,
                                                        bool index);

  EngineOptions options_;
  Env* env_;
  KernelStore store_;
  LatencyRecorder latency_;
  QueryCounters counters_;
  KernelScheduler scheduler_;
  std::uint64_t start_ns_ = 0;  ///< construction time; stats() uptime base
  std::atomic<std::uint64_t> requests_{0};
};

}  // namespace semilocal
