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
// A pair is combed once, on its second ask, for the lifetime of the store
// -- the engine stats counters make that auditable (computed stays at most
// the number of distinct pairs while requests grows).
//
// One window alone never builds a kernel on a pair's first ask: score_then
// answers it off a cached kernel when there is one; otherwise a global
// score comes from a score memo or a score job, and the first one-window
// ask of a pair from a window job over just the window's slices, (a, b[x,
// y)) or (a[x, y), b) -- the paper's bit-parallel combing, O(mn/w) word
// operations instead of an O(mn) comb plus a scan. The scheduler's score
// memo marks the pair asked, so its next one-window ask combs the kernel
// (or joins one in flight), and every later ask reuses it. A batch of two
// or more windows, a plot strip and the library calls (lcs(),
// string_substring(), answer_batch() ...) comb the kernel at once. A corpus
// upsert combs only the tail strips of the pairs it resumes; its other
// pairs wait for these reads.
//
// A cached entry can carry a shared immutable QueryIndex (built once, read
// lock-free; see engine/query.hpp), so on the warm path queries cost
// O(log n) instead of the O(m + n) dominance scan. The entry decides when to
// build it, from the queries asked of it (CachedKernel::wants_index): a
// batch of two or more windows builds the index (once) and uses it;
// one-window asks are scanned until they have cost about one build, and
// the ask that reaches that builds it. So a pair asked a few windows pays
// no build, and plot strips and corpus upsert strips, which are walked or
// composed, never build one. A build runs where the
// answer is computed: on the caller of
// this facade, or on a scheduler worker when serving -- never on the
// reactor. No serving thread blocks on compute: entry_then and score_then
// hand the scheduler a continuation, and plot_work streams a plot as loop
// work; the future-returning calls and alignment_plot drive those paths.
#pragma once

#include <atomic>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <vector>

#include "engine/kernel_store.hpp"
#include "engine/latency.hpp"
#include "engine/query.hpp"
#include "engine/scheduler.hpp"

namespace semilocal {

class LoopWork;

struct EngineOptions {
  KernelStoreOptions store;
  SchedulerOptions scheduler;
  /// Alignment plots: a window of at most 64 symbols is computed directly,
  /// 16 grid rows per task (lcs_window_band, when the pair's dense
  /// alphabet has at most 256 symbols); a wider one shares the wavelet
  /// descent across each grid row of its strip via the strided seam walk.
  /// false = comb strips at every window and lower every cell as an
  /// independent window query -- the ablation knob the plot bench flips.
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
  /// Engine asks: entry_then calls (entry_async, entry(), kernel() and the
  /// library queries go through it; so does each plot strip, while a direct
  /// plot asks nothing) and score_then calls (score_async included).
  std::uint64_t requests = 0;
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

  /// entry_async's continuation form: a cache or disk hit returns the entry
  /// (`then` is dropped); else nullptr, and `then` runs on the thread that
  /// computes the pair. Throws EngineOverloaded under backpressure.
  CachedKernelPtr entry_then(SequenceView a, SequenceView b, EntryThen then);

  /// The bare kernel of (a, b). Same acquisition path as entry().
  KernelPtr kernel(SequenceView a, SequenceView b);

  /// LCS(a, b) without building a kernel; the future form of score_then.
  std::shared_future<Index> score_async(SequenceView a, SequenceView b);

  /// One window of (a, b) -- `query`; kLcs is the global score -- in this
  /// order: a cached kernel (the same single store probe, counters and
  /// latency sample as entry_then; a task on a worker when the answer needs
  /// its QueryIndex built); then, for kLcs, the score memo, the pair's job
  /// in flight, else a new score job, onto which duplicate misses coalesce;
  /// for a one-window kind, a window job over just the window's slices on
  /// the pair's first ask, else the pair's kernel, combed once (or joined
  /// in flight) and cached, which later asks reuse. An answer at hand is
  /// returned (`then` is dropped); otherwise `then` gets it on the
  /// completing thread. Score jobs never write the store. Throws
  /// EngineOverloaded under backpressure, std::out_of_range on a bad
  /// window.
  std::optional<Index> score_then(SequenceView a, SequenceView b, const WindowQuery& query,
                                  ScoreThen then);

  /// Runs `task` on a scheduler worker (or in drain()), counted against the
  /// queue bound: throws EngineOverloaded when it is full.
  void submit_task(std::function<void()> task) { scheduler_.submit_task(std::move(task)); }

  /// Query layer: answers off the (possibly cached) entry, routed through
  /// the QueryIndex or the dominance scan per CachedKernel::wants_index.
  /// These are kernel-backed (they compute and cache the kernel);
  /// score_then and score_async are the score path.
  Index lcs(SequenceView a, SequenceView b);
  Index string_substring(SequenceView a, SequenceView b, Index j0, Index j1);
  Index substring_string(SequenceView a, SequenceView b, Index i0, Index i1);

  /// One window off an already-acquired entry (serving fast path: acquire
  /// once, answer many). Routing and counters as above.
  Index answer(const CachedKernel& entry, QueryKind kind, Index x, Index y);

  /// windows[0, count) off an already-acquired entry into `out` (the
  /// server's path for single windows and batches alike). With `may_build`
  /// false -- a caller that must not block, the reactor -- it never builds:
  /// when the answer needs the entry's QueryIndex built first, it answers
  /// nothing and returns false, and the caller hands the ask to a worker
  /// (submit_task). Returns true otherwise.
  bool answer_windows(const CachedKernel& entry, const WindowQuery* windows, Index* out,
                      std::size_t count, bool may_build);

  /// k windows over one pair: acquires the entry once, answers all windows
  /// through the interleaved batch descent (or the scan loop when indexing
  /// is off). This backs the batched protocol op.
  std::vector<Index> answer_batch(SequenceView a, SequenceView b,
                                  const std::vector<WindowQuery>& windows);

  /// Same, off an already-acquired entry (the server's batch handler).
  std::vector<Index> answer_batch(const CachedKernel& entry,
                                  const std::vector<WindowQuery>& windows);

  /// The alignment plot of `spec` over (a, b) as loop work: cell (u, v) =
  /// LCS(a[row0 + u*step, +window), b[col0 + v*step, +window)), framed
  /// row-major as tiles of at most plot_tile_cells cells each (the final
  /// tile has `last` set). The grid never materializes whole. A window of
  /// at most 64 symbols (plot_planner on) is computed directly: one task
  /// per band of 16 rows, at most four bands ahead of the emit cursor,
  /// nothing cached. Otherwise each grid row needs one strip kernel
  /// (a-window, b), acquired through the normal cache/scheduler path at
  /// most 16 rows ahead of the emit cursor and answered on the worker that
  /// completed it (one task for the rows whose strips were cached), so rows
  /// compute in parallel and repeated plots hit the LRU. kPause stops both
  /// the tiles and the top-ups until resume(). EngineOverloaded at a
  /// top-up, or a failed strip or band, ends the stream with its frame.
  /// Strips are acquired without a QueryIndex: a profitable stride anchors
  /// each row's seam walk on one permutation scan (see answer_plot_row).
  /// `drain_inline` drains the scheduler after each top-up (workers = 0).
  /// Throws std::out_of_range on a bad spec or extent.
  std::unique_ptr<LoopWork> plot_work(Sequence a, Sequence b, const PlotSpec& spec,
                                      bool drain_inline = false);

  /// Runs plot_work on a private event loop on the calling thread, each
  /// tile to `emit`; `emit` returning false cancels the stream. Throws
  /// std::out_of_range on a bad spec/extent, EngineOverloaded under
  /// backpressure, std::runtime_error when a strip or band fails.
  void alignment_plot(SequenceView a, SequenceView b, const PlotSpec& spec,
                      const std::function<bool(PlotTile&&)>& emit,
                      bool drain_inline = false);

  [[nodiscard]] EngineStats stats() const;

  /// Runs queued work on the calling thread (see KernelScheduler::drain).
  std::size_t drain() { return scheduler_.drain(); }

  [[nodiscard]] KernelStore& store() { return store_; }

 private:
  class PlotStream;

  /// entry_then with the content key already computed (a plot digests `b`
  /// once, not per grid row). `key` must equal make_pair_key(a, b).
  CachedKernelPtr entry_then_keyed(const PairKey& key, SequenceView a, SequenceView b,
                                   EntryThen then);

  /// score_then off a held entry: the answer, when it needs no index
  /// build; else nullopt, and a task builds the index and answers `then`.
  std::optional<Index> answer_then(CachedKernelPtr entry, const WindowQuery& query,
                                   ScoreThen then);

  /// Calls `then` with `query`'s answer off `entry` (built index and all),
  /// or with `failure` or the answer's own.
  void answer_to(const CachedKernelPtr& entry, std::exception_ptr failure,
                 const WindowQuery& query, const ScoreThen& then);

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
