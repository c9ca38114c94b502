#include "engine/engine.hpp"

#include <unistd.h>

#include <algorithm>
#include <deque>

#include "util/json.hpp"

namespace semilocal {
namespace {

template <typename T>
std::shared_future<T> ready_future(T value) {
  std::promise<T> promise;
  promise.set_value(std::move(value));
  return promise.get_future().share();
}

/// The engine-level env (if any) flows into each component that has not
/// been given its own.
EngineOptions with_env(EngineOptions options) {
  if (options.env != nullptr) {
    if (options.store.env == nullptr) options.store.env = options.env;
    if (options.scheduler.env == nullptr) options.scheduler.env = options.env;
  }
  return options;
}

}  // namespace

ComparisonEngine::ComparisonEngine(EngineOptions options)
    : options_(with_env(std::move(options))),
      env_(options_.env ? options_.env : &real_env()),
      store_(options_.store),
      scheduler_(store_, options_.scheduler, &latency_),
      start_ns_(env_->now_ns()) {}

std::shared_future<CachedKernelPtr> ComparisonEngine::entry_async(SequenceView a,
                                                                  SequenceView b) {
  return entry_async_keyed(make_pair_key(a, b), a, b);
}

std::shared_future<CachedKernelPtr> ComparisonEngine::entry_async_keyed(
    const PairKey& key, SequenceView a, SequenceView b) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t lookup_ns = env_->now_ns();
  if (CachedKernelPtr hit = store_.find(key)) {
    latency_.record(static_cast<double>(env_->now_ns() - lookup_ns) / 1e6);
    return ready_future(std::move(hit));
  }
  return scheduler_.submit(key, Sequence(a.begin(), a.end()),
                           Sequence(b.begin(), b.end()));
}

std::shared_future<Index> ComparisonEngine::score_async(SequenceView a, SequenceView b) {
  const PairKey key = make_pair_key(a, b);
  requests_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t lookup_ns = env_->now_ns();
  if (CachedKernelPtr hit = store_.find(key)) {
    latency_.record(static_cast<double>(env_->now_ns() - lookup_ns) / 1e6);
    const WindowQuery lcs;
    Index value = 0;
    if (answer_windows(*hit, &lcs, &value, 1, /*may_build=*/false)) {
      return ready_future(value);
    }
    // The score needs the hit's index built: a deferred future, so whoever
    // may block (a pump, this facade's caller) builds it in get().
    return std::async(std::launch::deferred, [this, hit = std::move(hit)] {
             return answer(*hit, QueryKind::kLcs, 0, 0);
           }).share();
  }
  ScoreTicket ticket = scheduler_.submit_score(key, a, b);
  if (ticket.score.valid()) return ticket.score;
  return std::async(std::launch::deferred, [this, entry = std::move(ticket.entry)] {
           return answer(*entry.get(), QueryKind::kLcs, 0, 0);
         }).share();
}

CachedKernelPtr ComparisonEngine::entry(SequenceView a, SequenceView b) {
  return entry_async(a, b).get();
}

KernelPtr ComparisonEngine::kernel(SequenceView a, SequenceView b) {
  return entry(a, b)->kernel_ptr();
}

Index ComparisonEngine::answer(const CachedKernel& entry, QueryKind kind, Index x,
                               Index y) {
  return answer_query(entry, kind, x, y, options_.index_queries, &counters_);
}

bool ComparisonEngine::answer_windows(const CachedKernel& entry, const WindowQuery* windows,
                                      Index* out, std::size_t count, bool may_build) {
  return answer_query_batch(entry, windows, out, count, options_.index_queries, &counters_,
                            may_build);
}

Index ComparisonEngine::lcs(SequenceView a, SequenceView b) {
  return answer(*entry(a, b), QueryKind::kLcs, 0, 0);
}

Index ComparisonEngine::string_substring(SequenceView a, SequenceView b, Index j0,
                                         Index j1) {
  return answer(*entry(a, b), QueryKind::kStringSubstring, j0, j1);
}

Index ComparisonEngine::substring_string(SequenceView a, SequenceView b, Index i0,
                                         Index i1) {
  return answer(*entry(a, b), QueryKind::kSubstringString, i0, i1);
}

std::vector<Index> ComparisonEngine::answer_batch(
    SequenceView a, SequenceView b, const std::vector<WindowQuery>& windows) {
  const CachedKernelPtr held = entry(a, b);
  return answer_batch(*held, windows);
}

std::vector<Index> ComparisonEngine::answer_batch(
    const CachedKernel& held, const std::vector<WindowQuery>& windows) {
  std::vector<Index> values(windows.size());
  (void)answer_windows(held, windows.data(), values.data(), windows.size(),
                       /*may_build=*/true);
  return values;
}

void ComparisonEngine::alignment_plot(SequenceView a, SequenceView b,
                                      const PlotSpec& spec,
                                      const std::function<bool(PlotTile&&)>& emit,
                                      bool drain_inline) {
  if (const char* err = validate_plot_spec(spec)) throw std::out_of_range(err);
  if (const char* err = validate_plot_extent(spec, static_cast<Index>(a.size()),
                                             static_cast<Index>(b.size()))) {
    throw std::out_of_range(err);
  }
  const Index tile_cells = std::clamp<Index>(options_.plot_tile_cells, 1, kMaxPlotTileCells);
  const Index tile_cols = std::min(spec.cols, tile_cells);
  const Index tile_rows = std::max<Index>(1, tile_cells / tile_cols);
  const std::size_t cell_bytes = spec.quant == 16 ? 2 : 1;
  const auto cols = static_cast<std::size_t>(spec.cols);

  // Bounded strip prefetch: grid rows ahead of the cursor go to the
  // scheduler so workers comb them in parallel; the bound keeps a huge plot
  // from flooding the scheduler's admission queue.
  const Index lookahead = std::min<Index>(spec.rows, 16);
  std::deque<std::shared_future<CachedKernelPtr>> ahead;
  Index next_submit = 0;
  // One digest of b covers every grid row; only the window-sized strip of a
  // is re-digested per row, which saves hashing |b| symbols per row.
  const std::uint64_t hash_b = sequence_digest(b);
  const auto top_up = [&] {
    while (next_submit < spec.rows && static_cast<Index>(ahead.size()) < lookahead) {
      const Index start = spec.row_start(next_submit);
      const SequenceView strip_a = a.subspan(static_cast<std::size_t>(start),
                                             static_cast<std::size_t>(spec.window));
      const PairKey key{.hash_a = sequence_digest(strip_a),
                        .hash_b = hash_b,
                        .len_a = spec.window,
                        .len_b = static_cast<Index>(b.size())};
      ahead.push_back(entry_async_keyed(key, strip_a, b));
      ++next_submit;
    }
    if (drain_inline) scheduler_.drain();
  };

  // Emits one horizontal band (band_rows full grid rows of raw scores) as
  // one or more quantized tiles. Returns false when the consumer cancels.
  const auto flush_band = [&](Index band_row0, Index band_rows,
                              const std::vector<Index>& band, bool last_band) {
    for (Index c0 = 0; c0 < spec.cols; c0 += tile_cols) {
      const Index tc = std::min(tile_cols, spec.cols - c0);
      PlotTile tile;
      tile.row0 = band_row0;
      tile.col0 = c0;
      tile.rows = static_cast<std::uint32_t>(band_rows);
      tile.cols = static_cast<std::uint32_t>(tc);
      tile.quant = spec.quant;
      tile.last = last_band && c0 + tc == spec.cols;
      tile.cells.resize(static_cast<std::size_t>(band_rows) *
                        static_cast<std::size_t>(tc) * cell_bytes);
      auto* dst = reinterpret_cast<unsigned char*>(tile.cells.data());
      for (Index r = 0; r < band_rows; ++r) {
        const Index* src = band.data() + static_cast<std::size_t>(r) * cols +
                           static_cast<std::size_t>(c0);
        for (Index c = 0; c < tc; ++c) {
          if (spec.quant == 16) {
            const auto v = static_cast<std::uint16_t>(src[c]);
            *dst++ = static_cast<unsigned char>(v & 0xff);
            *dst++ = static_cast<unsigned char>(v >> 8);
          } else {
            *dst++ = static_cast<unsigned char>((src[c] * 255 + spec.window / 2) /
                                                spec.window);
          }
        }
      }
      counters_.plot_tiles.fetch_add(1, std::memory_order_relaxed);
      if (!emit(std::move(tile))) return false;
    }
    return true;
  };

  std::vector<Index> band(static_cast<std::size_t>(tile_rows) * cols);
  Index band_row0 = 0;
  Index band_fill = 0;
  top_up();
  for (Index u = 0; u < spec.rows; ++u) {
    const CachedKernelPtr strip = ahead.front().get();
    ahead.pop_front();
    top_up();
    answer_plot_row(*strip, spec.col0, spec.step, spec.window, cols,
                    band.data() + static_cast<std::size_t>(band_fill) * cols,
                    options_.plot_planner, options_.index_queries, &counters_);
    ++band_fill;
    if (band_fill == tile_rows || u + 1 == spec.rows) {
      if (!flush_band(band_row0, band_fill, band, u + 1 == spec.rows)) return;
      band_row0 = u + 1;
      band_fill = 0;
    }
  }
}

std::string stats_json(const EngineStats& s) {
  return Json()
      .begin_object()
      .field("stats_version", kStatsVersion)
      .field("pid", s.pid)
      .field("uptime_ms", s.uptime_ms)
      .field("requests", s.requests)
      .field("cache_hits", s.store.cache.hits)
      .field("cache_misses", s.store.cache.misses)
      .field("cache_evictions", s.store.cache.evictions)
      .field("cache_entries", s.store.cache.entries)
      .field("cache_bytes", s.store.cache.bytes)
      .field("disk_hits", s.store.disk_hits)
      .field("disk_errors", s.store.disk_errors)
      .field("disk_writes", s.store.disk_writes)
      .field("store_write_failures", s.store.write_failures)
      .field("store_quarantined", s.store.quarantined)
      .field("store_tmp_swept", s.store.tmp_swept)
      .field("store_pending_persists", s.store.pending_persists)
      .field("degraded_mode", s.store.degraded() ? 1 : 0)
      .field("computed", s.scheduler.computed)
      .field("scores_computed", s.scheduler.scores_computed)
      .field("score_memo_hits", s.scheduler.score_memo_hits)
      .field("coalesced", s.scheduler.coalesced)
      .field("rejected", s.scheduler.rejected)
      .field("batches", s.scheduler.batches)
      .field("queue_depth", s.scheduler.queue_depth)
      .field("cache_hit_rate", s.cache_hit_rate())
      .field("store_bytes_on_disk", s.store.bytes_on_disk)
      .field("store_bytes_resident", s.store.cache.bytes)
      .field("compression_ratio", s.store.compression_ratio())
      .field("compressed_entries", s.store.cache.compressed_entries)
      .field("compressed_bytes", s.store.cache.compressed_bytes)
      .field("compressed_loads", s.store.compressed_loads)
      .field("promotions", s.store.promotions)
      .field("blocks_decoded", s.store.blocks_decoded + s.queries.blocks_decoded)
      .field("mmap_fallbacks", s.store.mmap_fallbacks)
      .field("queries_indexed", s.queries.indexed)
      .field("queries_scanned", s.queries.scanned)
      .field("queries_compressed", s.queries.compressed)
      .field("index_builds", s.queries.index_builds)
      .field("plot_tiles", s.queries.plot_tiles)
      .field("plot_windows", s.queries.plot_windows)
      .field("plot_reused_descents", s.queries.plot_reused_descents)
      .field("latency_count", s.latency.count)
      .field("p50_ms", s.latency.p50_ms)
      .field("p90_ms", s.latency.p90_ms)
      .field("p99_ms", s.latency.p99_ms)
      .end_object()
      .str();
}

std::string health_json(const EngineStats& s) {
  return Json()
      .begin_object()
      .field("stats_version", kStatsVersion)
      .field("pid", s.pid)
      .field("uptime_ms", s.uptime_ms)
      .field("requests", s.requests)
      .end_object()
      .str();
}

EngineStats ComparisonEngine::stats() const {
  return EngineStats{
      .requests = requests_.load(std::memory_order_relaxed),
      .store = store_.stats(),
      .scheduler = scheduler_.stats(),
      .queries =
          QueryStats{.indexed = counters_.indexed.load(std::memory_order_relaxed),
                     .scanned = counters_.scanned.load(std::memory_order_relaxed),
                     .index_builds =
                         counters_.index_builds.load(std::memory_order_relaxed),
                     .compressed =
                         counters_.compressed.load(std::memory_order_relaxed),
                     .blocks_decoded =
                         counters_.blocks_decoded.load(std::memory_order_relaxed),
                     .plot_tiles = counters_.plot_tiles.load(std::memory_order_relaxed),
                     .plot_windows =
                         counters_.plot_windows.load(std::memory_order_relaxed),
                     .plot_reused_descents = counters_.plot_reused_descents.load(
                         std::memory_order_relaxed)},
      .latency = latency_.snapshot(),
      .uptime_ms = (env_->now_ns() - start_ns_) / 1'000'000,
      .pid = static_cast<std::int64_t>(::getpid())};
}

}  // namespace semilocal
