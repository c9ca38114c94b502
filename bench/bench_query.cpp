// Scan-vs-index crossover for semi-local queries off one cached kernel.
//
// The O(m + n) dominance scan answers a one-shot query with zero setup; the
// flattened QueryIndex costs one build and then answers in O(log n). This
// benchmark measures both across pair lengths and reports the crossover:
// the number of queries per kernel after which building the index is the
// cheaper total. It also sweeps the plot-row seam walk against batched
// descents per stride, and costs one 64 x 2000 plot strip stage by stage
// (comb, index build, descent- or scan-anchored walk), times the PairKey
// digest every request pays before it reaches the cache, and prices a cold
// one-window ask both ways the engine can answer it (comb the pair's kernel
// and scan it, or comb the window's slices bit-parallel), and prices plot
// cells of one word directly against strips. Written to
// results/bench_query.json (plus the usual CSV) so serving configurations
// can pick a policy from data.
//
// SEMILOCAL_BENCH_SCALE scales the query count, not the lengths -- the
// length sweep IS the experiment.
#include "common.hpp"


#include "core/api.hpp"
#include "core/query_index.hpp"
#include "engine/key.hpp"
#include "engine/query.hpp"
#include "engine/scheduler.hpp"
#include "lcs/bitparallel.hpp"
#include "util/random.hpp"

using namespace semilocal;
using namespace semilocal::bench;

namespace {

struct LengthResult {
  Index length = 0;
  Index order = 0;
  double build_s = 0.0;
  double scan_queries_per_s = 0.0;
  double index_queries_per_s = 0.0;
  double batch_queries_per_s = 0.0;  // interleaved answer_many descent
  std::size_t index_bytes = 0;

  /// Queries after which build + indexed answering beats pure scanning:
  /// build_s + q / index_qps < q / scan_qps  =>  q > build_s / (1/scan - 1/index).
  [[nodiscard]] double crossover_queries() const {
    const double per_scan = 1.0 / scan_queries_per_s;
    const double per_index = 1.0 / index_queries_per_s;
    if (per_scan <= per_index) return -1.0;  // scan never loses (tiny kernels)
    return build_s / (per_scan - per_index);
  }
};

LengthResult run_length(Index length, Index queries) {
  LengthResult result;
  result.length = length;

  Rng rng(static_cast<std::uint64_t>(length));
  const auto a = uniform_sequence(length, 4, 11 + static_cast<std::uint64_t>(length));
  const auto b = uniform_sequence(length, 4, 12 + static_cast<std::uint64_t>(length));
  const SemiLocalKernel kernel = semi_local_kernel(a, b);
  result.order = kernel.order();

  // Mixed window workload, fixed up front so both paths answer identically.
  const auto m = static_cast<Index>(a.size());
  const auto n = static_cast<Index>(b.size());
  struct Win {
    QueryKind kind;
    Index x, y;
  };
  std::vector<Win> windows;
  windows.reserve(static_cast<std::size_t>(queries));
  for (Index q = 0; q < queries; ++q) {
    switch (rng.uniform(0, 2)) {
      case 0:
        windows.push_back({QueryKind::kLcs, 0, 0});
        break;
      case 1: {
        const Index j0 = rng.uniform(0, n);
        windows.push_back({QueryKind::kStringSubstring, j0, rng.uniform(j0, n)});
        break;
      }
      default: {
        const Index i0 = rng.uniform(0, m);
        windows.push_back({QueryKind::kSubstringString, i0, rng.uniform(i0, m)});
        break;
      }
    }
  }

  // The kernel (one scan per query) and the index answer through the same
  // methods, so one loop times either.
  const auto answer_all = [&](const auto& answerer) {
    Index sink = 0;
    for (const Win& w : windows) {
      switch (w.kind) {
        case QueryKind::kLcs:
          sink += answerer.lcs();
          break;
        case QueryKind::kStringSubstring:
          sink += answerer.string_substring(w.x, w.y);
          break;
        case QueryKind::kSubstringString:
          sink += answerer.substring_string(w.x, w.y);
          break;
      }
    }
    if (sink < 0) std::abort();
  };
  result.scan_queries_per_s =
      static_cast<double>(queries) / median_seconds([&] { answer_all(kernel); });

  result.build_s = median_seconds([&] { (void)QueryIndex(kernel); });
  const QueryIndex index(kernel);
  result.index_bytes = index.resident_bytes();
  result.index_queries_per_s =
      static_cast<double>(queries) / median_seconds([&] { answer_all(index); });

  // The batched-protocol path: lower every window up front, then run the
  // interleaved multi-lane descent (QueryIndex::answer_many).
  std::vector<HQuery> lowered;
  lowered.reserve(windows.size());
  for (const Win& w : windows) {
    switch (w.kind) {
      case QueryKind::kLcs:
        lowered.push_back(lcs_query(m, n));
        break;
      case QueryKind::kStringSubstring:
        lowered.push_back(string_substring_query(m, n, w.x, w.y));
        break;
      case QueryKind::kSubstringString:
        lowered.push_back(substring_string_query(m, n, w.x, w.y));
        break;
    }
  }
  std::vector<Index> answers(lowered.size());
  const auto batch_all = [&] {
    index.answer_many(lowered.data(), answers.data(), lowered.size());
    if (answers[0] < 0) std::abort();
  };
  result.batch_queries_per_s =
      static_cast<double>(queries) / median_seconds(batch_all);
  return result;
}

// The alignment-plot planner primitive: one grid row of width-`window`
// diagonal queries against a strip kernel, at each stride. The naive lowering
// is the batched-protocol path (answer_many over per-window HQueries); the
// planner is one anchor descent plus the seam walk (strided_diagonal_sigma).
// Sweeping the stride exposes the crossover that strided_walk_profitable
// encodes: the walk pays ~2*stride contiguous probes per window, the descent
// ~2*log2(order) dependent ones, so small strides favor the walk.
struct StrideResult {
  Index stride = 0;
  Index windows = 0;
  double planner_windows_per_s = 0.0;
  double naive_windows_per_s = 0.0;
  bool profitable = false;  // what the engine's gate would pick
  Index mismatches = 0;     // seam walk vs descent disagreement (must be 0)
};

std::vector<StrideResult> run_stride_sweep(Index length, Index window) {
  const auto a = uniform_sequence(window, 4, 21);
  const auto b = uniform_sequence(length, 4, 22);
  const SemiLocalKernel kernel = semi_local_kernel(a, b);
  const QueryIndex index(kernel);
  const Permutation& perm = kernel.permutation();
  const Index n = static_cast<Index>(b.size());

  std::vector<StrideResult> results;
  for (const Index stride : {Index{1}, Index{4}, Index{16}, Index{64}}) {
    StrideResult r;
    r.stride = stride;
    const auto count = static_cast<std::size_t>((n - window) / stride + 1);
    r.windows = static_cast<Index>(count);
    r.profitable = strided_walk_profitable(kernel.order(), stride);

    std::vector<HQuery> lowered;
    lowered.reserve(count);
    for (std::size_t t = 0; t < count; ++t) {
      const Index j0 = static_cast<Index>(t) * stride;
      lowered.push_back(string_substring_query(window, n, j0, j0 + window));
    }
    std::vector<Index> naive(count);
    const auto naive_all = [&] {
      index.answer_many(lowered.data(), naive.data(), count);
      if (naive[0] < 0) std::abort();
    };
    r.naive_windows_per_s = static_cast<double>(count) / median_seconds(naive_all);

    std::vector<Index> sigmas(count);
    const auto planner_all = [&] {
      strided_diagonal_sigma(index, perm, window, stride, count, sigmas.data());
      if (sigmas[0] < 0) std::abort();
    };
    r.planner_windows_per_s =
        static_cast<double>(count) / median_seconds(planner_all);

    for (std::size_t t = 0; t < count; ++t) {
      if (window - sigmas[t] != naive[t]) ++r.mismatches;
    }
    results.push_back(r);
  }
  return results;
}

// One plot strip as the server handles it: comb the (window x length)
// strip kernel, then answer its grid row with the seam walk. The anchor is a
// wavelet descent when the strip has a QueryIndex (whose build is then part
// of the strip's cost) or one O(m + n) permutation scan when it has none --
// the serving path since strips are acquired without an index.
struct StripResult {
  Index window = 0;
  Index length = 0;
  Index stride = 0;
  Index windows = 0;
  double comb_us = 0.0;
  double index_build_us = 0.0;
  double walk_indexed_us = 0.0;  // descent anchor + seam walk
  double walk_scan_us = 0.0;     // scan anchor + seam walk
  Index mismatches = 0;          // either walk vs batched descents (must be 0)
};

/// Median over 5 runs of the mean per-call time of `fn` over `reps` calls, in µs.
template <typename Fn>
double per_call_us(Fn&& fn, int reps) {
  return median_seconds(
             [&] {
               for (int r = 0; r < reps; ++r) fn();
             },
             5) *
         1e6 / reps;
}

StripResult run_plot_strip(Index window, Index length, Index stride) {
  StripResult r;
  r.window = window;
  r.length = length;
  r.stride = stride;
  const auto a = uniform_sequence(window, 4, 31);
  const auto b = uniform_sequence(length, 4, 32);
  // The scheduler's per-pair configuration: serial, default strategy.
  const SemiLocalOptions serial{.parallel = false};
  const SemiLocalKernel kernel = semi_local_kernel(a, b, serial);
  const QueryIndex index(kernel);
  const Permutation& perm = kernel.permutation();
  const auto count = static_cast<std::size_t>((length - window) / stride + 1);
  r.windows = static_cast<Index>(count);
  constexpr int kReps = 50;

  r.comb_us = per_call_us([&] { (void)semi_local_kernel(a, b, serial); }, kReps);
  r.index_build_us = per_call_us([&] { (void)QueryIndex(kernel); }, kReps);
  std::vector<Index> indexed(count);
  r.walk_indexed_us = per_call_us(
      [&] { strided_diagonal_sigma(index, perm, window, stride, count, indexed.data()); },
      kReps);
  std::vector<Index> scanned(count);
  r.walk_scan_us = per_call_us(
      [&] {
        strided_diagonal_sigma(perm.dominance_sum(window, window), perm, window, stride,
                               count, scanned.data());
      },
      kReps);

  std::vector<HQuery> lowered;
  lowered.reserve(count);
  for (std::size_t t = 0; t < count; ++t) {
    const Index j0 = static_cast<Index>(t) * stride;
    lowered.push_back(string_substring_query(window, length, j0, j0 + window));
  }
  std::vector<Index> naive(count);
  index.answer_many(lowered.data(), naive.data(), count);
  for (std::size_t t = 0; t < count; ++t) {
    if (window - indexed[t] != naive[t] || window - scanned[t] != naive[t]) {
      ++r.mismatches;
    }
  }
  return r;
}

// The PairKey digest of one sequence: the first stage of every request
// (twice when sharded), linear in the symbols it hashes.
struct DigestResult {
  Index length = 0;
  double digest_us = 0.0;
  double ns_per_symbol = 0.0;
};

DigestResult run_digest(Index length) {
  DigestResult r;
  r.length = length;
  const Sequence s = uniform_sequence(length, 4, 41);
  r.digest_us = per_call_us([&] { (void)sequence_digest(s); }, 1000);
  r.ns_per_symbol = r.digest_us * 1e3 / static_cast<double>(length);
  return r;
}

// One never-seen pair asked one window (cold_compute's shape: random DNA,
// x <= y uniform in [0, length], string-substring and substring-string in
// turn), answered the way the engine answers a pair's second one-window
// ask -- comb the kernel serially, as a scheduler worker does, and scan it
// -- and the way it answers the first: bit-parallel combing of the window's
// slices alone. Medians of per-sample times; every answer is compared.
struct ColdWindowResult {
  Index length = 0;
  Index samples = 0;
  double kernel_scan_ms = 0.0;
  double window_comb_ms = 0.0;
  Index mismatches = 0;  // must be 0
};

ColdWindowResult run_cold_window(Index length, Index samples) {
  ColdWindowResult r;
  r.length = length;
  r.samples = samples;
  Rng rng(0xC01D + static_cast<std::uint64_t>(length));
  const SemiLocalOptions serial{.parallel = false};
  std::vector<double> kernel_ms;
  std::vector<double> window_ms;
  for (Index s = 0; s < samples; ++s) {
    const auto seed = 2 * static_cast<std::uint64_t>(length + s);
    const Sequence a = uniform_sequence(length, 4, seed);
    const Sequence b = uniform_sequence(length, 4, seed + 1);
    Index x = rng.uniform(0, length);
    Index y = rng.uniform(0, length);
    if (x > y) std::swap(x, y);
    const bool string_substring = s % 2 == 0;
    Timer kernel_timer;
    const SemiLocalKernel kernel = semi_local_kernel(a, b, serial);
    const Index by_kernel = string_substring ? kernel.string_substring(x, y)
                                             : kernel.substring_string(x, y);
    kernel_ms.push_back(kernel_timer.milliseconds());
    const auto slice = [&](const Sequence& full) {
      return SequenceView(full).subspan(static_cast<std::size_t>(x),
                                        static_cast<std::size_t>(y - x));
    };
    Timer window_timer;
    const Index by_window = string_substring ? bit_parallel_score(a, slice(b))
                                             : bit_parallel_score(slice(a), b);
    window_ms.push_back(window_timer.milliseconds());
    if (by_kernel != by_window) ++r.mismatches;
  }
  r.kernel_scan_ms = TimingStats::from(kernel_ms).median;
  r.window_comb_ms = TimingStats::from(window_ms).median;
  return r;
}

// One plot region the way corpus_mixed asks for it (a 2000 x 2000 DNA pair)
// at windows of one word or less, three ways, single-threaded, per grid
// cell: direct (lcs_window_band, band by band: what the engine runs for
// these windows), and off strip kernels, cold (comb each row's strip
// serially, as a worker does, then walk it) and fully warm (the walk
// alone, off a strip combed just before, untimed). Every direct cell is
// compared with the strip path's.
struct PlotDirectResult {
  Index window = 0;
  Index step = 0;
  Index cells = 0;
  double direct_ns_per_cell = 0.0;
  double strip_cold_ns_per_cell = 0.0;
  double strip_warm_ns_per_cell = 0.0;
  Index mismatches = 0;  // must be 0
};

PlotDirectResult run_plot_direct(Index length, Index window, Index step) {
  PlotDirectResult r;
  r.window = window;
  r.step = step;
  const auto a = uniform_sequence(length, 4, 51);
  const auto b = uniform_sequence(length, 4, 52);
  const Index rows = (length - window) / step + 1;
  const Index cols = rows;
  r.cells = rows * cols;
  const auto per_cell = [&r](double seconds) {
    return seconds * 1e9 / static_cast<double>(r.cells);
  };
  std::vector<Index> direct(static_cast<std::size_t>(r.cells));
  r.direct_ns_per_cell = per_cell(median_seconds([&] {
    for (Index u0 = 0; u0 < rows; u0 += kWindowBandRows) {
      lcs_window_band(a, b, /*alphabet=*/4, u0 * step, 0, step, window,
                      std::min(kWindowBandRows, rows - u0), cols,
                      direct.data() + static_cast<std::size_t>(u0 * cols));
    }
  }));

  const SemiLocalOptions serial{.parallel = false};
  std::vector<Index> strip_cells(static_cast<std::size_t>(r.cells));
  const auto strip_row = [&](Index u) {
    const SequenceView strip_a =
        SequenceView(a).subspan(static_cast<std::size_t>(u * step),
                                static_cast<std::size_t>(window));
    return CachedKernel(std::make_shared<const SemiLocalKernel>(
        semi_local_kernel(strip_a, b, serial)));
  };
  const auto walk = [&](const CachedKernel& strip, Index u) {
    answer_plot_row(strip, 0, step, window, static_cast<std::size_t>(cols),
                    strip_cells.data() + static_cast<std::size_t>(u * cols),
                    /*use_planner=*/true);
  };
  r.strip_cold_ns_per_cell = per_cell(median_seconds([&] {
    for (Index u = 0; u < rows; ++u) walk(strip_row(u), u);
  }));
  double warm_s = 0.0;
  for (Index u = 0; u < rows; ++u) {
    const CachedKernel strip = strip_row(u);
    walk(strip, u);  // warms the strip's lines
    Timer timer;
    walk(strip, u);
    warm_s += timer.seconds();
  }
  r.strip_warm_ns_per_cell = per_cell(warm_s);
  for (std::size_t i = 0; i < direct.size(); ++i) {
    if (direct[i] != strip_cells[i]) ++r.mismatches;
  }
  return r;
}

void write_json(const std::string& path, const std::vector<LengthResult>& results,
                const std::vector<StrideResult>& strides, const StripResult& strip,
                const std::vector<DigestResult>& digests,
                const std::vector<ColdWindowResult>& cold,
                const std::vector<PlotDirectResult>& direct) {
  Json out(/*wrap_depth=*/2);
  out.begin_object().key("lengths").begin_array();
  for (const LengthResult& r : results) {
    out.begin_object().field("pair_length", r.length).field("order", r.order);
    out.field("build_s", r.build_s).field("scan_queries_per_s", r.scan_queries_per_s);
    out.field("index_queries_per_s", r.index_queries_per_s);
    out.field("batch_queries_per_s", r.batch_queries_per_s);
    out.field("speedup", r.index_queries_per_s / r.scan_queries_per_s);
    out.field("batch_speedup", r.batch_queries_per_s / r.scan_queries_per_s);
    out.field("crossover_queries", r.crossover_queries());
    out.field("index_bytes", r.index_bytes).end_object();
  }
  out.end_array().key("plot_strides").begin_array();
  for (const StrideResult& r : strides) {
    out.begin_object().field("stride", r.stride).field("windows", r.windows);
    out.field("planner_windows_per_s", r.planner_windows_per_s);
    out.field("naive_windows_per_s", r.naive_windows_per_s);
    out.field("speedup", r.planner_windows_per_s / r.naive_windows_per_s);
    out.field("profitable", r.profitable).field("mismatches", r.mismatches).end_object();
  }
  out.end_array().key("plot_strip").begin_object().field("window", strip.window);
  out.field("pair_length", strip.length).field("stride", strip.stride);
  out.field("windows", strip.windows).field("comb_us", strip.comb_us);
  out.field("index_build_us", strip.index_build_us);
  out.field("walk_indexed_us", strip.walk_indexed_us);
  out.field("walk_scan_us", strip.walk_scan_us);
  out.field("mismatches", strip.mismatches).end_object().key("pair_key").begin_array();
  for (const DigestResult& r : digests) {
    out.begin_object().field("length", r.length).field("digest_us", r.digest_us);
    out.field("ns_per_symbol", r.ns_per_symbol).end_object();
  }
  out.end_array().key("cold_window").begin_array();
  for (const ColdWindowResult& r : cold) {
    out.begin_object().field("pair_length", r.length).field("samples", r.samples);
    out.field("kernel_scan_ms", r.kernel_scan_ms).field("window_comb_ms", r.window_comb_ms);
    out.field("speedup", r.kernel_scan_ms / r.window_comb_ms);
    out.field("mismatches", r.mismatches).end_object();
  }
  out.end_array().key("plot_direct").begin_array();
  for (const PlotDirectResult& r : direct) {
    out.begin_object().field("window", r.window).field("step", r.step);
    out.field("cells", r.cells).field("direct_ns_per_cell", r.direct_ns_per_cell);
    out.field("strip_cold_ns_per_cell", r.strip_cold_ns_per_cell);
    out.field("strip_warm_ns_per_cell", r.strip_warm_ns_per_cell);
    out.field("mismatches", r.mismatches).end_object();
  }
  out.end_array().end_object();
  write_report(path, out);
}

}  // namespace

int main() {
  const Index queries = scaled(20000);
  std::vector<LengthResult> results;
  for (const Index length : {250, 500, 1000, 2000, 4000, 8000}) {
    results.push_back(run_length(length, queries));
  }

  Table table({"pair_length", "build_s", "scan_q_per_s", "index_q_per_s",
               "batch_q_per_s", "speedup", "batch_speedup", "crossover_queries",
               "index_bytes"});
  for (const LengthResult& r : results) {
    table.row()
        .cell(static_cast<long long>(r.length))
        .cell(r.build_s, 6)
        .cell(r.scan_queries_per_s, 0)
        .cell(r.index_queries_per_s, 0)
        .cell(r.batch_queries_per_s, 0)
        .cell(r.index_queries_per_s / r.scan_queries_per_s, 2)
        .cell(r.batch_queries_per_s / r.scan_queries_per_s, 2)
        .cell(r.crossover_queries(), 1)
        .cell(static_cast<long long>(r.index_bytes));
  }
  table.print(std::cout, "scan vs QueryIndex crossover per pair length");

  const std::vector<StrideResult> strides = run_stride_sweep(4000, 64);
  Table stride_table({"stride", "windows", "planner_w_per_s", "naive_w_per_s",
                      "speedup", "profitable", "mismatches"});
  for (const StrideResult& r : strides) {
    stride_table.row()
        .cell(static_cast<long long>(r.stride))
        .cell(static_cast<long long>(r.windows))
        .cell(r.planner_windows_per_s, 0)
        .cell(r.naive_windows_per_s, 0)
        .cell(r.planner_windows_per_s / r.naive_windows_per_s, 2)
        .cell(std::string(r.profitable ? "yes" : "no"))
        .cell(static_cast<long long>(r.mismatches));
  }
  stride_table.print(std::cout,
                     "plot-row seam walk vs batched descents per stride "
                     "(window 64, pair 4000)");

  const StripResult strip = run_plot_strip(64, 2000, 8);
  Table strip_table({"window", "pair_length", "stride", "windows", "comb_us",
                     "index_build_us", "walk_indexed_us", "walk_scan_us", "mismatches"});
  strip_table.row()
      .cell(static_cast<long long>(strip.window))
      .cell(static_cast<long long>(strip.length))
      .cell(static_cast<long long>(strip.stride))
      .cell(static_cast<long long>(strip.windows))
      .cell(strip.comb_us, 1)
      .cell(strip.index_build_us, 1)
      .cell(strip.walk_indexed_us, 2)
      .cell(strip.walk_scan_us, 2)
      .cell(static_cast<long long>(strip.mismatches));
  strip_table.print(std::cout,
                    "one plot strip: comb, index build, and the row walk with a "
                    "descent or a scan anchor");

  std::vector<DigestResult> digests;
  Table digest_table({"length", "digest_us", "ns_per_symbol"});
  for (const Index length : {64, 2000, 8000}) {
    const DigestResult& r = digests.emplace_back(run_digest(length));
    digest_table.row()
        .cell(static_cast<long long>(r.length))
        .cell(r.digest_us, 3)
        .cell(r.ns_per_symbol, 3);
  }
  digest_table.print(std::cout, "PairKey digest per sequence (median of 5)");

  std::vector<ColdWindowResult> cold;
  Table cold_table({"pair_length", "samples", "kernel_scan_ms", "window_comb_ms", "speedup",
                    "mismatches"});
  for (const Index length : {2000, 8000}) {
    const ColdWindowResult& r = cold.emplace_back(run_cold_window(length, 16));
    cold_table.row()
        .cell(static_cast<long long>(r.length))
        .cell(static_cast<long long>(r.samples))
        .cell(r.kernel_scan_ms, 3)
        .cell(r.window_comb_ms, 3)
        .cell(r.kernel_scan_ms / r.window_comb_ms, 1)
        .cell(static_cast<long long>(r.mismatches));
  }
  cold_table.print(std::cout,
                   "cold one-window ask: kernel comb + scan vs bit-parallel window comb "
                   "(medians)");

  std::vector<PlotDirectResult> direct;
  Table direct_table({"window", "step", "cells", "direct_ns_per_cell", "strip_cold_ns_per_cell",
                      "strip_warm_ns_per_cell", "mismatches"});
  for (const Index window : {16, 32, 64}) {
    for (const Index step : {1, 4, 8}) {
      const PlotDirectResult& r = direct.emplace_back(run_plot_direct(2000, window, step));
      direct_table.row()
          .cell(static_cast<long long>(r.window))
          .cell(static_cast<long long>(r.step))
          .cell(static_cast<long long>(r.cells))
          .cell(r.direct_ns_per_cell, 2)
          .cell(r.strip_cold_ns_per_cell, 2)
          .cell(r.strip_warm_ns_per_cell, 2)
          .cell(static_cast<long long>(r.mismatches));
    }
  }
  direct_table.print(std::cout,
                     "plot cells of one word, 2000 x 2000 DNA, one thread: direct band kernel "
                     "vs strips cold and warm");

  write_json("results/bench_query.json", results, strides, strip, digests, cold, direct);
  return 0;
}
