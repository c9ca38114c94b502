#include "engine/engine.hpp"

#include <unistd.h>

#include <algorithm>
#include <deque>
#include <map>
#include <mutex>
#include <stdexcept>

#include "bitlcs/encoding.hpp"
#include "engine/loop.hpp"
#include "engine/service.hpp"
#include "lcs/bitparallel.hpp"
#include "util/json.hpp"

namespace semilocal {
namespace {

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
  auto promise = std::make_shared<std::promise<CachedKernelPtr>>();
  std::shared_future<CachedKernelPtr> future = promise->get_future().share();
  if (CachedKernelPtr hit = entry_then(a, b, fulfil(promise))) {
    promise->set_value(std::move(hit));
  }
  return future;
}

CachedKernelPtr ComparisonEngine::entry_then(SequenceView a, SequenceView b, EntryThen then) {
  return entry_then_keyed(make_pair_key(a, b), a, b, std::move(then));
}

CachedKernelPtr ComparisonEngine::entry_then_keyed(const PairKey& key, SequenceView a,
                                                   SequenceView b, EntryThen then) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t lookup_ns = env_->now_ns();
  if (CachedKernelPtr hit = store_.find(key)) {
    latency_.record(static_cast<double>(env_->now_ns() - lookup_ns) / 1e6);
    return hit;
  }
  return scheduler_.submit(key, Sequence(a.begin(), a.end()), Sequence(b.begin(), b.end()),
                           std::move(then));
}

std::shared_future<Index> ComparisonEngine::score_async(SequenceView a, SequenceView b) {
  auto promise = std::make_shared<std::promise<Index>>();
  std::shared_future<Index> future = promise->get_future().share();
  if (const std::optional<Index> now = score_then(a, b, WindowQuery{}, fulfil(promise))) {
    promise->set_value(*now);
  }
  return future;
}

std::optional<Index> ComparisonEngine::score_then(SequenceView a, SequenceView b,
                                                  const WindowQuery& query, ScoreThen then) {
  const PairKey key = make_pair_key(a, b);
  requests_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t lookup_ns = env_->now_ns();
  if (CachedKernelPtr hit = store_.find(key)) {
    latency_.record(static_cast<double>(env_->now_ns() - lookup_ns) / 1e6);
    return answer_then(std::move(hit), query, std::move(then));
  }
  if (query.kind == QueryKind::kLcs) return scheduler_.submit_score(key, a, b, std::move(then));
  // One window: the pair's first ask scores just the window's slices. The
  // lowering checks the window (std::out_of_range) before anything queues.
  const auto m = static_cast<Index>(a.size());
  const auto n = static_cast<Index>(b.size());
  const bool in_b = query.kind == QueryKind::kStringSubstring;
  (void)(in_b ? string_substring_query(m, n, query.x, query.y)
              : substring_string_query(m, n, query.x, query.y));
  const auto slice = [&query](SequenceView s) {
    return s.subspan(static_cast<std::size_t>(query.x),
                     static_cast<std::size_t>(query.y - query.x));
  };
  if (scheduler_.submit_window(key, in_b ? a : slice(a), in_b ? slice(b) : b, then)) {
    return std::nullopt;
  }
  // Asked before, or in flight: comb the kernel (or join its job), which
  // later asks reuse, and answer off it.
  CachedKernelPtr hit = scheduler_.submit(
      key, Sequence(a.begin(), a.end()), Sequence(b.begin(), b.end()),
      [this, query, then](const CachedKernelPtr& entry, std::exception_ptr failure) {
        answer_to(entry, std::move(failure), query, then);
      });
  if (!hit) return std::nullopt;
  return answer_then(std::move(hit), query, std::move(then));
}

std::optional<Index> ComparisonEngine::answer_then(CachedKernelPtr entry,
                                                   const WindowQuery& query, ScoreThen then) {
  Index value = 0;
  if (answer_windows(*entry, &query, &value, 1, /*may_build=*/false)) return value;
  // The answer needs the entry's index built: a worker builds it.
  submit_task([this, entry = std::move(entry), query, then = std::move(then)] {
    answer_to(entry, nullptr, query, then);
  });
  return std::nullopt;
}

void ComparisonEngine::answer_to(const CachedKernelPtr& entry, std::exception_ptr failure,
                                 const WindowQuery& query, const ScoreThen& then) {
  Index value = 0;
  try {
    if (failure) std::rethrow_exception(failure);
    value = answer(*entry, query.kind, query.x, query.y);
  } catch (...) {
    failure = std::current_exception();
  }
  then(value, failure);
}

CachedKernelPtr ComparisonEngine::entry(SequenceView a, SequenceView b) {
  return entry_async(a, b).get();
}

KernelPtr ComparisonEngine::kernel(SequenceView a, SequenceView b) {
  return entry(a, b)->kernel_ptr();
}

Index ComparisonEngine::answer(const CachedKernel& entry, QueryKind kind, Index x,
                               Index y) {
  return answer_query(entry, kind, x, y, /*use_index=*/true, &counters_);
}

bool ComparisonEngine::answer_windows(const CachedKernel& entry, const WindowQuery* windows,
                                      Index* out, std::size_t count, bool may_build) {
  return answer_query_batch(entry, windows, out, count, /*use_index=*/true, &counters_,
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

// ---------------------------------------------------------------------------
// The alignment plot as loop work: workers answer grid rows -- a band of
// them at a time, computed directly, when the window fits one word; else
// each row off its strip -- and post them back; the loop joins them into
// bands in row order, cuts the bands into tiles and emits those.

class ComparisonEngine::PlotStream final : public LoopWork {
 public:
  /// `alphabet` > 0: a direct plot, a and b in dense codes below it;
  /// 0: a strip plot over the raw sequences.
  PlotStream(ComparisonEngine& engine, Sequence a, Sequence b, Symbol alphabet,
             const PlotSpec& spec, bool drain_inline)
      : shared_(std::make_shared<Shared>(engine, std::move(a), std::move(b), alphabet, spec)),
        drain_inline_(drain_inline),
        lookahead_(alphabet > 0 ? kBandLookahead * kWindowBandRows : kLookahead) {
    const Index tile_cells =
        std::clamp<Index>(engine.options_.plot_tile_cells, 1, kMaxPlotTileCells);
    tile_cols_ = std::min(spec.cols, tile_cells);
    tile_rows_ = std::max<Index>(1, tile_cells / tile_cols_);
  }
  ~PlotStream() override { cancel(); }

  void start(EventLoop& loop, FrameOut& out) override {
    out_ = &out;
    shared_->poster = loop.poster();  // before any strip is submitted
    shared_->stream = this;
    advance();
  }

  void resume() override {
    paused_ = false;
    advance();
  }

  void cancel() override {
    finished_ = true;
    shared_->cancelled.store(true, std::memory_order_relaxed);
    shared_->stream = nullptr;
  }

 private:
  /// Strips in flight ahead of the emit cursor: enough to keep every worker
  /// busy, few enough that a huge plot cannot flood admission.
  static constexpr Index kLookahead = 16;
  /// The same for a direct plot, in bands of kWindowBandRows rows.
  static constexpr Index kBandLookahead = 4;

  /// An answered row: its quantized cells, or the failure of its strip or band.
  struct Row {
    std::string cells;
    std::exception_ptr failure;
  };

  /// What the workers answering rows hold.
  struct Shared {
    Shared(ComparisonEngine& e, Sequence sa, Sequence sb, Symbol sigma, const PlotSpec& ps)
        : engine(e),
          a(std::move(sa)),
          b(std::move(sb)),
          alphabet(sigma),
          spec(ps),
          hash_b(sigma > 0 ? 0 : sequence_digest(b)) {}
    ComparisonEngine& engine;
    const Sequence a;
    const Sequence b;
    const Symbol alphabet;  ///< see PlotStream()
    const PlotSpec spec;
    /// One digest of b covers every strip; only the window-sized strip of a
    /// is re-digested per row.
    const std::uint64_t hash_b;
    EventLoop::Poster poster;
    std::atomic<bool> cancelled{false};
    PlotStream* stream = nullptr;  ///< the loop's thread only
    std::mutex mutex;              ///< guards the next two
    std::map<Index, Row> arrived;  ///< answered rows the loop has not taken
    Index cursor = 0;              ///< the row the loop waits for
  };

  /// One row's scores as quantized cells.
  static std::string quantize(const PlotSpec& spec, const Index* values) {
    std::string cells(static_cast<std::size_t>(spec.cols) * (spec.quant == 16 ? 2 : 1), '\0');
    auto* dst = reinterpret_cast<unsigned char*>(cells.data());
    for (Index v = 0; v < spec.cols; ++v) {
      if (spec.quant == 16) {
        *dst++ = static_cast<unsigned char>(values[v] & 0xff);
        *dst++ = static_cast<unsigned char>((values[v] >> 8) & 0xff);
      } else {
        *dst++ = static_cast<unsigned char>((values[v] * 255 + spec.window / 2) / spec.window);
      }
    }
    return cells;
  }

  /// Row u off its strip, on the worker that holds the strip: its
  /// quantized cells, or the failure.
  static Row answer_row(const Shared& shared, const CachedKernelPtr& strip,
                        std::exception_ptr failure) {
    const PlotSpec& spec = shared.spec;
    Row row;
    try {
      if (failure) std::rethrow_exception(failure);
      thread_local std::vector<Index> values;
      values.resize(static_cast<std::size_t>(spec.cols));
      answer_plot_row(*strip, spec.col0, spec.step, spec.window, values.size(), values.data(),
                      shared.engine.options_.plot_planner, &shared.engine.counters_);
      row.cells = quantize(spec, values.data());
    } catch (...) {
      row.failure = std::current_exception();
    }
    return row;
  }

  /// Rows [u0, u0 + count) of a direct plot, on a worker, landed together;
  /// a failure fails row u0.
  static void answer_band(const std::shared_ptr<Shared>& shared, Index u0, Index count) {
    if (shared->cancelled.load(std::memory_order_relaxed)) return;
    const PlotSpec& spec = shared->spec;
    std::vector<std::pair<Index, Row>> rows;
    try {
      thread_local std::vector<Index> values;
      values.resize(static_cast<std::size_t>(count * spec.cols));
      lcs_window_band(shared->a, shared->b, shared->alphabet, spec.row_start(u0), spec.col0,
                      spec.step, spec.window, count, spec.cols, values.data());
      shared->engine.counters_.plot_windows.fetch_add(
          static_cast<std::uint64_t>(count * spec.cols), std::memory_order_relaxed);
      for (Index r = 0; r < count; ++r) {
        rows.emplace_back(u0 + r, Row{quantize(spec, values.data() + r * spec.cols), nullptr});
      }
    } catch (...) {
      rows.assign(1, {u0, Row{{}, std::current_exception()}});
    }
    land(shared, std::move(rows));
  }

  /// Hands answered rows to the loop. Only the row the loop waits for wakes
  /// it; rows that land behind it ride along.
  static void land(const std::shared_ptr<Shared>& shared,
                   std::vector<std::pair<Index, Row>> rows) {
    bool wake = false;
    {
      std::lock_guard lock(shared->mutex);
      for (auto& [u, row] : rows) {
        wake = wake || u == shared->cursor;
        shared->arrived.emplace(u, std::move(row));
      }
    }
    if (!wake) return;
    shared->poster.post([shared] {
      if (shared->stream != nullptr) shared->stream->advance();
    });
  }

  /// Emits what is in order, then tops the strips up -- until paused,
  /// finished, or waiting for the row at the cursor.
  void advance() {
    while (!finished_ && !paused_) {
      if (!tiles_.empty()) {
        emit();
        continue;
      }
      auto next = ready_.find(cursor_);
      if (next == ready_.end()) {
        // Take what the workers answered; a row at the cursor still out
        // wakes the loop when it lands.
        std::lock_guard lock(shared_->mutex);
        ready_.merge(shared_->arrived);
        shared_->cursor = cursor_;
        next = ready_.find(cursor_);
        if (next == ready_.end()) break;
      }
      if (next->second.failure) return fail(next->second.failure);
      band_.push_back(std::move(next->second.cells));
      ready_.erase(next);
      ++cursor_;
      if (static_cast<Index>(band_.size()) == tile_rows_ || cursor_ == shared_->spec.rows) {
        cut_band();
      }
    }
    if (!finished_ && !paused_) top_up();
  }

  void emit() {
    const bool last = tiles_.size() == 1 && cursor_ == shared_->spec.rows;
    const std::string frame = std::move(tiles_.front());
    tiles_.pop_front();
    finished_ = last;
    const FrameOut::Flow flow = out_->frame(frame, last);
    if (finished_) return;  // the last tile, or cancelled from inside frame()
    if (flow == FrameOut::Flow::kStop) cancel();
    paused_ = flow == FrameOut::Flow::kPause;
  }

  /// The band's rows, cut column-wise into framed tiles.
  void cut_band() {
    const PlotSpec& spec = shared_->spec;
    const std::size_t cell_bytes = spec.quant == 16 ? 2 : 1;
    for (Index c0 = 0; c0 < spec.cols; c0 += tile_cols_) {
      const Index tc = std::min(tile_cols_, spec.cols - c0);
      Response frame;
      PlotTile& tile = frame.tile.emplace();
      tile.row0 = cursor_ - static_cast<Index>(band_.size());
      tile.col0 = c0;
      tile.rows = static_cast<std::uint32_t>(band_.size());
      tile.cols = static_cast<std::uint32_t>(tc);
      tile.quant = spec.quant;
      tile.last = cursor_ == spec.rows && c0 + tc == spec.cols;
      for (const std::string& row : band_) {
        tile.cells.append(row, static_cast<std::size_t>(c0) * cell_bytes,
                          static_cast<std::size_t>(tc) * cell_bytes);
      }
      shared_->engine.counters_.plot_tiles.fetch_add(1, std::memory_order_relaxed);
      tiles_.push_back(frame_payload(encode_response(frame)));
    }
    band_.clear();
  }

  void top_up() {
    // Refill once half the lookahead is used up: strips, bands and cached
    // rows go out, and come back, in batches rather than one per emitted row.
    if (submitted_ - cursor_ > lookahead_ / 2) return;
    try {
      if (shared_->alphabet > 0) {
        submit_bands();
      } else {
        submit_strips();
      }
    } catch (...) {
      return fail(std::current_exception());
    }
    if (drain_inline_) shared_->engine.drain();
  }

  void submit_bands() {
    const Index rows = shared_->spec.rows;
    while (submitted_ < rows && submitted_ < cursor_ + lookahead_) {
      const Index count = std::min(kWindowBandRows, rows - submitted_);
      shared_->engine.submit_task(
          [shared = shared_, u0 = submitted_, count] { answer_band(shared, u0, count); });
      submitted_ += count;
    }
  }

  void submit_strips() {
    const PlotSpec& spec = shared_->spec;
    ComparisonEngine& engine = shared_->engine;
    std::vector<std::pair<Index, CachedKernelPtr>> cached;  // rows whose strip was a hit
    for (; submitted_ < spec.rows && submitted_ < cursor_ + lookahead_; ++submitted_) {
      const SequenceView strip_a =
          SequenceView(shared_->a).subspan(static_cast<std::size_t>(spec.row_start(submitted_)),
                                           static_cast<std::size_t>(spec.window));
      const PairKey key{.hash_a = sequence_digest(strip_a),
                        .hash_b = shared_->hash_b,
                        .len_a = spec.window,
                        .len_b = static_cast<Index>(shared_->b.size())};
      const auto row = [shared = shared_, u = submitted_](CachedKernelPtr strip,
                                                          std::exception_ptr failure) {
        if (shared->cancelled.load(std::memory_order_relaxed)) return;
        land(shared, {{u, answer_row(*shared, strip, failure)}});
      };
      if (CachedKernelPtr hit = engine.entry_then_keyed(key, strip_a, shared_->b, row)) {
        cached.emplace_back(submitted_, std::move(hit));
      }
    }
    // Rows off cached strips, half a lookahead per task: enough rows that
    // the hand-off does not outweigh cheap ones, and tasks run side by side.
    constexpr auto kRowsPerTask = static_cast<std::ptrdiff_t>(kLookahead / 2);
    for (auto from = cached.begin(); from != cached.end();) {
      const auto to = from + std::min(kRowsPerTask, cached.end() - from);
      engine.submit_task([shared = shared_, part = std::vector(from, to)] {
        std::vector<std::pair<Index, Row>> rows;
        for (const auto& [u, strip] : part) {
          if (shared->cancelled.load(std::memory_order_relaxed)) return;
          rows.emplace_back(u, answer_row(*shared, strip, nullptr));
        }
        land(shared, std::move(rows));
      });
      from = to;
    }
  }

  /// Ends the stream with the failure's frame, after what already went out.
  void fail(const std::exception_ptr& failure) {
    cancel();
    Response response;
    try {
      std::rethrow_exception(failure);
    } catch (...) {
      response = failure_response();
    }
    (void)out_->frame(frame_payload(encode_response(response)), /*terminal=*/true);
  }

  std::shared_ptr<Shared> shared_;
  bool drain_inline_;
  Index lookahead_;  ///< rows in flight ahead of the cursor
  Index tile_cols_ = 1;
  Index tile_rows_ = 1;
  FrameOut* out_ = nullptr;
  Index submitted_ = 0;  ///< rows whose strip or band went to the scheduler
  Index cursor_ = 0;     ///< the next row to join the band
  std::map<Index, Row> ready_;  ///< rows taken from `arrived`, ahead of the cursor
  std::vector<std::string> band_;
  std::deque<std::string> tiles_;  ///< framed tiles not yet emitted
  bool paused_ = false;
  bool finished_ = false;
};

std::unique_ptr<LoopWork> ComparisonEngine::plot_work(Sequence a, Sequence b,
                                                      const PlotSpec& spec,
                                                      bool drain_inline) {
  if (const char* err = validate_plot_spec(spec)) throw std::out_of_range(err);
  if (const char* err = validate_plot_extent(spec, static_cast<Index>(a.size()),
                                             static_cast<Index>(b.size()))) {
    throw std::out_of_range(err);
  }
  // A window of one word is computed directly, over dense codes; wider
  // windows, the planner ablation and alphabets past the band table comb
  // strips.
  if (options_.plot_planner && spec.window <= kWordBits) {
    DensePair dense = dense_remap(a, b);
    if (dense.alphabet <= kWindowBandMaxAlphabet) {
      return std::make_unique<PlotStream>(*this, std::move(dense.a), std::move(dense.b),
                                          std::max<Symbol>(1, dense.alphabet), spec,
                                          drain_inline);
    }
  }
  return std::make_unique<PlotStream>(*this, std::move(a), std::move(b), /*alphabet=*/0, spec,
                                      drain_inline);
}

void ComparisonEngine::alignment_plot(SequenceView a, SequenceView b,
                                      const PlotSpec& spec,
                                      const std::function<bool(PlotTile&&)>& emit,
                                      bool drain_inline) {
  const std::unique_ptr<LoopWork> work =
      plot_work(Sequence(a.begin(), a.end()), Sequence(b.begin(), b.end()), spec,
                drain_inline);
  std::optional<Response> failed;
  run_loop_work(*work, *env_, [&](Response&& frame) {
    if (frame.tile) return emit(std::move(*frame.tile));
    failed = std::move(frame);
    return false;
  });
  if (!failed) return;
  if (failed->status == Status::kOverloaded) {
    throw EngineOverloaded(failed->text, failed->retry_ms);
  }
  throw std::runtime_error(failed->text);
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
