// Alignment-plot pipeline tests, planner to wire: the seam-walk planner
// primitive against per-point descents, engine tiles bit-equal to the naive
// per-window oracle, quantization, hostile-spec rejection at both the engine
// and the decoder, split-invariant tile streaming (small plot_tile_cells
// forces multi-tile streams), concurrent plots off one shared index (the
// tsan workload), the reactor frontend streaming over real sockets, and the
// shard router relaying streams with mid-stream failover and pausing a
// relay while its client is slow to read. Every engine and frontend test
// runs a direct leg (window <= 64: band tasks) and a strip leg (wider),
// and the band kernel itself is checked against DP.
// Suites are named AlignmentPlot* -- the tsan preset filter keys on that.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <deque>
#include <optional>
#include <thread>
#include <vector>

#include "core/api.hpp"
#include "core/query_index.hpp"
#include "engine/engine.hpp"
#include "engine/frontend.hpp"
#include "engine/protocol.hpp"
#include "engine/service.hpp"
#include "engine/shard/router.hpp"
#include "lcs/bitparallel.hpp"
#include "oracles.hpp"
#include "util/random.hpp"

namespace semilocal {
namespace {

using namespace std::chrono_literals;

// ---------------------------------------------------------------------------
// Shared helpers.

Sequence random_seq(Index length, std::uint64_t seed, Symbol alphabet = 4) {
  return uniform_sequence(length, alphabet, seed);
}

/// Ground truth for one plot cell, recomputed from scratch: a fresh strip
/// kernel for grid row u, scanned per window. No engine, no index, no cache.
Index naive_cell(const Sequence& a, const Sequence& b, const PlotSpec& spec, Index u,
                 Index v) {
  const auto start = static_cast<std::size_t>(spec.row_start(u));
  const Sequence strip_a(a.begin() + static_cast<std::ptrdiff_t>(start),
                         a.begin() + static_cast<std::ptrdiff_t>(start + spec.window));
  const SemiLocalKernel strip = semi_local_kernel(strip_a, b);
  const Index j0 = spec.col_start(v);
  return strip.string_substring(j0, j0 + spec.window);
}

/// Runs engine.alignment_plot and reassembles the stream into a dense grid
/// of raw (unquantized where quant=16) cell values. Checks tile framing
/// invariants on the way: exactly one `last` tile, and it is the final one.
std::vector<Index> collect_plot(ComparisonEngine& engine, const Sequence& a,
                                const Sequence& b, const PlotSpec& spec,
                                std::size_t* tiles_out = nullptr) {
  PlotAssembler assembler(spec.rows, spec.cols, spec.quant);
  std::size_t tiles = 0;
  bool saw_last = false;
  engine.alignment_plot(a, b, spec, [&](PlotTile&& tile) {
    EXPECT_FALSE(saw_last) << "tile after the last-flagged tile";
    saw_last = tile.last;
    ++tiles;
    Response frame;
    frame.tile = std::move(tile);
    assembler.feed(frame);
    return true;
  });
  EXPECT_TRUE(saw_last);
  EXPECT_TRUE(assembler.complete());
  if (tiles_out != nullptr) *tiles_out = tiles;
  std::vector<Index> grid;
  grid.reserve(static_cast<std::size_t>(spec.cells()));
  for (Index u = 0; u < spec.rows; ++u) {
    for (Index v = 0; v < spec.cols; ++v) grid.push_back(assembler.cell(u, v));
  }
  return grid;
}

EngineOptions plot_engine(bool planner = true, Index tile_cells = 0) {
  EngineOptions options;
  options.store.dir = "";
  options.store.cache_bytes = std::size_t{64} << 20;
  options.scheduler.workers = 2;
  options.scheduler.max_queue = 256;
  options.plot_planner = planner;
  if (tile_cells > 0) options.plot_tile_cells = tile_cells;
  return options;
}

/// Every engine and frontend plot test runs two legs: a window of one word
/// or less, which the engine computes directly in bands (lcs_window_band),
/// and a wider one, for which it combs strip kernels.
bool direct_window(Index window) { return window <= kWordBits; }

std::string leg_name(Index window) {
  return (direct_window(window) ? "direct leg, window " : "strip leg, window ") +
         std::to_string(window);
}

Request plot_request(const Sequence& a, const Sequence& b, const PlotSpec& spec) {
  Request request;
  request.op = Op::kAlignmentPlot;
  request.a = a;
  request.b = b;
  request.plot = spec;
  return request;
}

// ---------------------------------------------------------------------------
// Planner primitive: the seam walk vs independent descents.

TEST(AlignmentPlotPlanner, SeamWalkMatchesDescentsAcrossStridesAndSeeds) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const Sequence a = random_seq(24, seed * 10 + 1);
    const Sequence b = random_seq(400, seed * 10 + 2);
    const SemiLocalKernel kernel = semi_local_kernel(a, b);
    const QueryIndex index(kernel);
    const Index order = kernel.order();
    for (const Index step : {Index{1}, Index{2}, Index{3}, Index{7}, Index{16}}) {
      for (const Index start : {Index{0}, Index{5}, Index{24}}) {
        const auto count =
            static_cast<std::size_t>((order - start) / step) + (start <= order ? 1 : 0);
        if (count == 0) continue;
        // Anchored by a wavelet descent, and by one permutation scan.
        std::vector<Index> walked(count);
        strided_diagonal_sigma(index, kernel.permutation(), start, step, count,
                               walked.data());
        std::vector<Index> scan_anchored(count);
        strided_diagonal_sigma(kernel.permutation().dominance_sum(start, start),
                               kernel.permutation(), start, step, count,
                               scan_anchored.data());
        for (std::size_t t = 0; t < count; ++t) {
          const Index i = start + static_cast<Index>(t) * step;
          ASSERT_EQ(walked[t], index.sigma(i, i))
              << "seed " << seed << " step " << step << " start " << start << " t " << t;
          ASSERT_EQ(scan_anchored[t], index.sigma(i, i))
              << "scan anchor: seed " << seed << " step " << step << " start " << start
              << " t " << t;
        }
      }
    }
  }
}

TEST(AlignmentPlotPlanner, ProfitabilityGatePassesSmallStridesOnly) {
  EXPECT_TRUE(strided_walk_profitable(1 << 12, 1));
  EXPECT_TRUE(strided_walk_profitable(1 << 12, 8));
  EXPECT_TRUE(strided_walk_profitable(1 << 12, 24));  // 2 * log2(4096)
  EXPECT_FALSE(strided_walk_profitable(1 << 12, 25));
  EXPECT_FALSE(strided_walk_profitable(16, 64));
}

// ---------------------------------------------------------------------------
// Band kernel: lcs_window_band against DP, and the engine's direct path
// around it.

/// DP ground truth for one cell of a band: LCS of the two windows.
Index dp_cell(const Sequence& a, const Sequence& b, Index a0, Index b0, Index window) {
  const auto slice = [window](const Sequence& s, Index start) {
    return SequenceView(s).subspan(static_cast<std::size_t>(start),
                                   static_cast<std::size_t>(window));
  };
  return testing::lcs_oracle(slice(a, a0), slice(b, b0));
}

TEST(AlignmentPlotBand, MatchesDpAcrossWindowsStepsRowsAndOrigins) {
  // Windows at both ends of the word, steps below, at and above the window,
  // row counts short of a full band, nonzero origins, three alphabets.
  struct Alphabet {
    Symbol size;
    std::uint64_t seed;
  };
  for (const Alphabet alphabet : {Alphabet{2, 1}, Alphabet{4, 2}, Alphabet{256, 3}}) {
    const Sequence a = random_seq(1100, alphabet.seed * 10, alphabet.size);
    const Sequence b = random_seq(400, alphabet.seed * 10 + 1, alphabet.size);
    for (const Index window : {Index{1}, Index{2}, Index{63}, Index{64}}) {
      for (const Index step : {Index{1}, std::max<Index>(1, window - 1), window, window + 3}) {
        for (const Index rows : {Index{1}, Index{7}, Index{16}}) {
          const Index a0 = 5;
          const Index b0 = 3;
          const Index cols = std::min<Index>(9, (400 - b0 - window) / step + 1);
          SCOPED_TRACE(::testing::Message() << "alphabet " << alphabet.size << " window "
                                          << window << " step " << step << " rows " << rows);
          std::vector<Index> out(static_cast<std::size_t>(rows * cols), -1);
          lcs_window_band(a, b, alphabet.size, a0, b0, step, window, rows, cols, out.data());
          for (Index u = 0; u < rows; ++u) {
            for (Index v = 0; v < cols; ++v) {
              ASSERT_EQ(out[static_cast<std::size_t>(u * cols + v)],
                        dp_cell(a, b, a0 + u * step, b0 + v * step, window))
                  << "cell (" << u << ", " << v << ")";
            }
          }
        }
      }
    }
  }
}

TEST(AlignmentPlotBand, RejectsWhatItCannotCompute) {
  const Sequence a = random_seq(100, 5);
  const Sequence b = random_seq(100, 6);
  std::vector<Index> out(16 * 4);
  const auto band = [&](Symbol alphabet, Index a0, Index window, Index rows) {
    lcs_window_band(a, b, alphabet, a0, 0, 4, window, rows, 4, out.data());
  };
  EXPECT_NO_THROW(band(4, 0, 64, 4));
  EXPECT_THROW(band(4, 0, 65, 4), std::invalid_argument);  // wider than a word
  EXPECT_THROW(band(4, 0, 0, 4), std::invalid_argument);
  EXPECT_THROW(band(4, 0, 16, 17), std::invalid_argument);  // more rows than lanes
  EXPECT_THROW(band(4, 30, 64, 4), std::invalid_argument);  // last a-window runs off a
  EXPECT_THROW(band(3, 0, 16, 4), std::invalid_argument);   // symbol 3 outside [0, 3)
  EXPECT_THROW(band(kWindowBandMaxAlphabet + 1, 0, 16, 4), std::invalid_argument);
}

TEST(AlignmentPlotBand, EnginePlotsSpanBandsAtNonzeroOrigins) {
  // 37 rows: two full bands and a short one, more than one lookahead of
  // bands; quant 8 and 16; nonzero row0 / col0; binary, DNA and byte
  // alphabets, and an int alphabet with values far outside a byte (dense
  // codes make it direct). Every cell is checked against DP.
  struct Case {
    Symbol alphabet;
    Symbol offset;  // added to every symbol
    Index window;
    Index step;
    std::uint8_t quant;
  };
  for (const Case c : {Case{2, 0, 64, 3, 16}, Case{4, 0, 33, 1, 8}, Case{256, 0, 1, 2, 16},
                       Case{4, 1'000'000, 64, 8, 8}, Case{256, 0, 63, 70, 16}}) {
    SCOPED_TRACE(::testing::Message() << "alphabet " << c.alphabet << " window " << c.window
                                    << " step " << c.step << " quant " << int{c.quant});
    PlotSpec spec;
    spec.row0 = 11;
    spec.col0 = 7;
    spec.rows = 37;
    spec.cols = 13;
    spec.step = c.step;
    spec.window = c.window;
    spec.quant = c.quant;
    Sequence a = random_seq(spec.row_start(spec.rows) + c.window, 301, c.alphabet);
    Sequence b = random_seq(spec.col_start(spec.cols) + c.window, 302, c.alphabet);
    for (Symbol& s : a) s += c.offset;
    for (Symbol& s : b) s += c.offset;
    ComparisonEngine engine(plot_engine(true, /*tile_cells=*/64));
    const std::vector<Index> grid = collect_plot(engine, a, b, spec);
    for (Index u = 0; u < spec.rows; ++u) {
      for (Index v = 0; v < spec.cols; ++v) {
        const Index truth = dp_cell(a, b, spec.row_start(u), spec.col_start(v), c.window);
        const Index want =
            c.quant == 16 ? truth : (truth * 255 + spec.window / 2) / spec.window;
        ASSERT_EQ(grid[static_cast<std::size_t>(u * spec.cols + v)], want)
            << "cell (" << u << ", " << v << ")";
      }
    }
    const EngineStats stats = engine.stats();
    EXPECT_EQ(stats.scheduler.computed, 0u) << "a direct plot combed strips";
    EXPECT_EQ(stats.scheduler.tasks, 3u);  // ceil(37 / 16) bands
    EXPECT_EQ(stats.queries.plot_windows, static_cast<std::uint64_t>(spec.cells()));
  }
}

TEST(AlignmentPlotBand, AlphabetsPastTheBandTableFallBackToStrips) {
  // 300 distinct symbols do not fit the band kernel's table: the plot
  // combs strips, as bit_parallel_score falls back past its planes, and
  // every cell still matches DP.
  PlotSpec spec;
  spec.row0 = 2;
  spec.col0 = 1;
  spec.rows = 6;
  spec.cols = 5;
  spec.step = 40;
  spec.window = 48;
  Sequence a(static_cast<std::size_t>(spec.row_start(spec.rows) + spec.window));
  Sequence b(static_cast<std::size_t>(spec.col_start(spec.cols) + spec.window));
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = static_cast<Symbol>(i % 300);
  for (std::size_t j = 0; j < b.size(); ++j) b[j] = static_cast<Symbol>((j * 7) % 300);
  ComparisonEngine engine(plot_engine(true));
  const std::vector<Index> grid = collect_plot(engine, a, b, spec);
  for (Index u = 0; u < spec.rows; ++u) {
    for (Index v = 0; v < spec.cols; ++v) {
      ASSERT_EQ(grid[static_cast<std::size_t>(u * spec.cols + v)],
                dp_cell(a, b, spec.row_start(u), spec.col_start(v), spec.window))
          << "cell (" << u << ", " << v << ")";
    }
  }
  EXPECT_EQ(engine.stats().scheduler.computed, static_cast<std::uint64_t>(spec.rows));
}

// ---------------------------------------------------------------------------
// Engine: oracle equality, quantization, validation, tiling.

TEST(AlignmentPlotEngine, TilesBitEqualNaivePerWindowOracle) {
  const Sequence a = random_seq(300, 41);
  const Sequence b = random_seq(260, 42);
  for (const Index window : {Index{24}, Index{88}}) {
    SCOPED_TRACE(leg_name(window));
    PlotSpec spec;
    spec.row0 = 3;
    spec.col0 = 1;
    spec.rows = 18;
    spec.cols = 15;
    spec.step = 5;  // profitable: order ~ 300, 2*log2 = 18
    spec.window = window;

    ComparisonEngine with_planner(plot_engine(true));
    ComparisonEngine without_planner(plot_engine(false));
    const std::vector<Index> planned = collect_plot(with_planner, a, b, spec);
    const std::vector<Index> lowered = collect_plot(without_planner, a, b, spec);
    ASSERT_EQ(planned.size(), static_cast<std::size_t>(spec.cells()));
    EXPECT_EQ(planned, lowered);

    for (Index u = 0; u < spec.rows; ++u) {
      for (Index v = 0; v < spec.cols; ++v) {
        ASSERT_EQ(planned[static_cast<std::size_t>(u * spec.cols + v)],
                  naive_cell(a, b, spec, u, v))
            << "cell (" << u << ", " << v << ")";
      }
    }

    const EngineStats stats = with_planner.stats();
    EXPECT_EQ(stats.queries.plot_windows, static_cast<std::uint64_t>(spec.cells()));
    EXPECT_EQ(stats.queries.scanned, 0u) << "planner leg fell back to the O(m+n) scan";
    if (direct_window(window)) {
      EXPECT_EQ(stats.queries.plot_reused_descents, 0u) << "seam walk counted without strips";
      EXPECT_EQ(stats.scheduler.computed, 0u);
    } else {
      EXPECT_GT(stats.queries.plot_reused_descents, 0u);
    }
  }
}

TEST(AlignmentPlotEngine, ProfitableStripsAreWalkedWithoutAnyIndex) {
  // Strips are acquired without an index and a profitable stride anchors
  // each row on one permutation scan: no index is built, no query is
  // counted as indexed or scanned, and every cell still matches the oracle.
  // A direct plot combs no strip at all.
  const Sequence a = random_seq(300, 111);
  const Sequence b = random_seq(260, 112);
  for (const Index window : {Index{24}, Index{88}}) {
    SCOPED_TRACE(leg_name(window));
    PlotSpec spec;
    spec.row0 = 2;
    spec.col0 = 3;
    spec.rows = 12;
    spec.cols = 14;
    spec.step = 6;
    spec.window = window;
    ASSERT_TRUE(strided_walk_profitable(spec.window + static_cast<Index>(b.size()),
                                        spec.step));

    ComparisonEngine engine(plot_engine(true));  // two workers
    const std::vector<Index> grid = collect_plot(engine, a, b, spec);
    for (Index u = 0; u < spec.rows; ++u) {
      for (Index v = 0; v < spec.cols; ++v) {
        ASSERT_EQ(grid[static_cast<std::size_t>(u * spec.cols + v)],
                  naive_cell(a, b, spec, u, v))
            << "cell (" << u << ", " << v << ")";
      }
    }
    const std::uint64_t strips = direct_window(window) ? 0 : static_cast<std::uint64_t>(spec.rows);
    EngineStats stats = engine.stats();
    EXPECT_EQ(stats.scheduler.computed, strips);
    EXPECT_EQ(stats.queries.index_builds, 0u);
    EXPECT_EQ(stats.queries.indexed, 0u);
    EXPECT_EQ(stats.queries.scanned, 0u);
    EXPECT_EQ(stats.queries.plot_windows, static_cast<std::uint64_t>(spec.cells()));
    if (!direct_window(window)) {
      // Two window queries on one strip pair hit the cached strip: both
      // are scanned, far below the build threshold, and build no index.
      const Index u = 5;
      const Index v = 4;
      const auto start = static_cast<std::ptrdiff_t>(spec.row_start(u));
      const Sequence strip_a(a.begin() + start, a.begin() + start + spec.window);
      const Index j0 = spec.col_start(v);
      EXPECT_EQ(engine.string_substring(strip_a, b, j0, j0 + spec.window),
                grid[static_cast<std::size_t>(u * spec.cols + v)]);
      EXPECT_EQ(engine.string_substring(strip_a, b, j0, j0 + spec.window),
                grid[static_cast<std::size_t>(u * spec.cols + v)]);
      stats = engine.stats();
      EXPECT_EQ(stats.scheduler.computed, static_cast<std::uint64_t>(spec.rows));
      EXPECT_EQ(stats.queries.index_builds, 0u);
      EXPECT_EQ(stats.queries.scanned, 2u);
      EXPECT_EQ(stats.queries.indexed, 0u);
    }
    const std::uint64_t scanned = stats.queries.scanned;

    // Re-plotting walks every row again (or computes it again, directly),
    // without building or reading an index: plot rows count only in the
    // plot counters.
    const std::vector<Index> again = collect_plot(engine, a, b, spec);
    EXPECT_EQ(again, grid);
    stats = engine.stats();
    EXPECT_EQ(stats.scheduler.computed, strips);
    EXPECT_EQ(stats.queries.index_builds, 0u);
    EXPECT_EQ(stats.queries.indexed, 0u);
    EXPECT_EQ(stats.queries.scanned, scanned);
    EXPECT_EQ(stats.queries.plot_windows, 2u * static_cast<std::uint64_t>(spec.cells()));
  }
}

TEST(AlignmentPlotEngine, StripKeysMatchMakePairKey) {
  // alignment_plot digests b once and keys each strip by hand; every strip
  // it cached must be found under the ordinary key of its two inputs, or a
  // later window query on the same strip would recompute it. A direct plot
  // caches nothing.
  const Sequence a = random_seq(300, 121);
  const Sequence b = random_seq(190, 122);
  for (const Index window : {Index{20}, Index{65}}) {
    SCOPED_TRACE(leg_name(window));
    PlotSpec spec;
    spec.row0 = 1;
    spec.rows = 9;
    spec.cols = 6;
    spec.step = 25;
    spec.window = window;
    ComparisonEngine engine(plot_engine(true));
    (void)collect_plot(engine, a, b, spec);
    const bool strips = !direct_window(window);
    ASSERT_EQ(engine.stats().scheduler.computed, strips ? static_cast<std::uint64_t>(spec.rows) : 0u);
    for (Index u = 0; u < spec.rows; ++u) {
      const auto start = static_cast<std::ptrdiff_t>(spec.row_start(u));
      const Sequence strip_a(a.begin() + start, a.begin() + start + spec.window);
      const CachedKernelPtr strip = engine.store().find(make_pair_key(strip_a, b));
      if (!strips) {
        EXPECT_EQ(strip, nullptr) << "row " << u << " cached a strip";
        continue;
      }
      ASSERT_NE(strip, nullptr) << "row " << u << " strip not under make_pair_key";
      EXPECT_EQ(strip->kernel().m(), spec.window);
      EXPECT_EQ(strip->kernel().n(), static_cast<Index>(b.size()));
    }
  }
}

TEST(AlignmentPlotEngine, UnprofitableStrideStillAnswersCorrectly) {
  // A stride past the profitability gate must transparently use the batched
  // descent lowering -- same cells, no reused descents.
  const Sequence a = random_seq(200, 51);
  const Sequence b = random_seq(200, 52);
  for (const Index window : {Index{16}, Index{72}}) {
    SCOPED_TRACE(leg_name(window));
    PlotSpec spec;
    spec.rows = 4;
    spec.cols = 4;
    spec.step = 40;  // order <= 272, gate is 2*8 = 16 < 40
    spec.window = window;
    ComparisonEngine engine(plot_engine(true));
    const std::vector<Index> grid = collect_plot(engine, a, b, spec);
    for (Index u = 0; u < spec.rows; ++u) {
      for (Index v = 0; v < spec.cols; ++v) {
        ASSERT_EQ(grid[static_cast<std::size_t>(u * spec.cols + v)],
                  naive_cell(a, b, spec, u, v));
      }
    }
    EXPECT_EQ(engine.stats().queries.plot_reused_descents, 0u);
  }
}

TEST(AlignmentPlotEngine, Quant8ScalesScoresIntoBytes) {
  const Sequence a = random_seq(150, 61);
  const Sequence b = random_seq(150, 62);
  for (const Index window : {Index{20}, Index{72}}) {
    SCOPED_TRACE(leg_name(window));
    PlotSpec spec;
    spec.rows = 6;
    spec.cols = 6;
    spec.step = 9;
    spec.window = window;

    ComparisonEngine engine(plot_engine());
    spec.quant = 16;
    const std::vector<Index> raw = collect_plot(engine, a, b, spec);
    spec.quant = 8;
    const std::vector<Index> scaled = collect_plot(engine, a, b, spec);
    ASSERT_EQ(raw.size(), scaled.size());
    for (std::size_t i = 0; i < raw.size(); ++i) {
      EXPECT_EQ(scaled[i], (raw[i] * 255 + spec.window / 2) / spec.window);
      EXPECT_LE(scaled[i], 255);
    }
  }
}

TEST(AlignmentPlotEngine, RejectsHostileSpecs) {
  // Spec and extent checks run before either path is chosen: each leg's
  // well-formed spec passes, and every mutation of it is refused.
  for (const auto& [length, window] : {std::pair<Index, Index>{64, 16}, {160, 72}}) {
    SCOPED_TRACE(leg_name(window));
    const Sequence a = random_seq(length, 71);
    const Sequence b = random_seq(length, 72);
    ComparisonEngine engine(plot_engine());
    const auto reject = [&](PlotSpec spec) {
      EXPECT_THROW(
          engine.alignment_plot(a, b, spec, [](PlotTile&&) { return true; }),
          std::out_of_range);
    };
    PlotSpec ok;
    ok.rows = 2;
    ok.cols = 2;
    ok.step = 8;
    ok.window = window;
    EXPECT_NO_THROW(engine.alignment_plot(a, b, ok, [](PlotTile&&) { return true; }));

    PlotSpec spec = ok;
    spec.rows = 0;
    reject(spec);
    spec = ok;
    spec.step = 0;
    reject(spec);
    spec = ok;
    spec.step = kMaxPlotStep + 1;
    reject(spec);
    spec = ok;
    spec.window = 0;
    reject(spec);
    spec = ok;
    spec.window = kMaxPlotWindow + 1;
    reject(spec);
    spec = ok;
    spec.quant = 5;
    reject(spec);
    spec = ok;
    spec.row0 = -1;
    reject(spec);
    spec = ok;
    spec.rows = kMaxPlotCells;
    spec.cols = 2;
    reject(spec);  // rows * cols overflows the cell budget
    spec = ok;
    spec.window = length + 1;  // window longer than a
    reject(spec);
    spec = ok;
    spec.rows = (length - window) / ok.step + 2;  // last row starts past the end of a
    reject(spec);
  }
}

TEST(AlignmentPlotEngine, SmallTileBudgetForcesSplitInvariantStreams) {
  const Sequence a = random_seq(200, 81);
  const Sequence b = random_seq(200, 82);
  for (const Index window : {Index{16}, Index{72}}) {
    SCOPED_TRACE(leg_name(window));
    PlotSpec spec;
    spec.rows = 12;
    spec.cols = 11;
    spec.step = 7;
    spec.window = window;

    ComparisonEngine one_tile(plot_engine(true));
    ComparisonEngine tiny_tiles(plot_engine(true, /*tile_cells=*/8));
    std::size_t tiles_single = 0;
    std::size_t tiles_split = 0;
    const std::vector<Index> whole = collect_plot(one_tile, a, b, spec, &tiles_single);
    const std::vector<Index> split = collect_plot(tiny_tiles, a, b, spec, &tiles_split);
    EXPECT_EQ(whole, split);  // reassembly is split-invariant
    EXPECT_EQ(tiles_single, 1u);
    // 8 cells per tile over 11 columns: 2 tiles per row, one row per band.
    EXPECT_EQ(tiles_split, static_cast<std::size_t>(spec.rows) * 2);
    EXPECT_EQ(tiny_tiles.stats().queries.plot_tiles, tiles_split);
  }
}

TEST(AlignmentPlotEngine, CancelledSinkStopsTheStream) {
  const Sequence a = random_seq(120, 91);
  const Sequence b = random_seq(120, 92);
  for (const Index window : {Index{16}, Index{72}}) {
    SCOPED_TRACE(leg_name(window));
    PlotSpec spec;
    spec.rows = 10;
    spec.cols = 10;
    spec.step = 4;
    spec.window = window;
    ComparisonEngine engine(plot_engine(true, /*tile_cells=*/10));
    std::size_t delivered = 0;
    engine.alignment_plot(a, b, spec, [&](PlotTile&&) { return ++delivered < 3; });
    EXPECT_EQ(delivered, 3u);  // the tile that returned false was the final one
    if (direct_window(window)) {
      // Ten rows are one band: one task, and none after the sink stopped.
      EXPECT_EQ(engine.stats().scheduler.tasks, 1u);
      EXPECT_EQ(engine.stats().scheduler.computed, 0u);
    }
  }
}

TEST(AlignmentPlotEngine, ConcurrentPlotsShareOneIndex) {
  // Several threads stream the same plot off one engine: the strips (and
  // any query index a strip gets) are shared immutable state, and direct
  // bands share the engine's counters (the tsan workload).
  const Sequence a = random_seq(220, 101);
  const Sequence b = random_seq(220, 102);
  for (const Index window : {Index{20}, Index{72}}) {
    SCOPED_TRACE(leg_name(window));
    PlotSpec spec;
    spec.rows = 10;
    spec.cols = 10;
    spec.step = 6;
    spec.window = window;
    ComparisonEngine engine(plot_engine(true, /*tile_cells=*/16));

    constexpr int kThreads = 4;
    std::vector<std::vector<Index>> grids(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back(
          [&, t] { grids[static_cast<std::size_t>(t)] = collect_plot(engine, a, b, spec); });
    }
    for (std::thread& thread : threads) thread.join();
    for (int t = 1; t < kThreads; ++t) {
      EXPECT_EQ(grids[static_cast<std::size_t>(t)], grids[0]);
    }
    EXPECT_EQ(grids[0][0], naive_cell(a, b, spec, 0, 0));
    EXPECT_EQ(engine.stats().queries.plot_windows,
              static_cast<std::uint64_t>(kThreads * spec.cells()));
  }
}

TEST(AlignmentPlotEngine, TilingSpecSpansBothSequences) {
  // Equal-length genomes on the CLI's default 32x64 grid: one stride must
  // serve both axes, so the column count shrinks instead of half of a
  // falling off the plot.
  const PlotSpec even = tiling_plot_spec(6400, 6400, 32, 64);
  EXPECT_EQ(even.step, 200);
  EXPECT_EQ(even.window, 200);
  EXPECT_EQ(even.rows, 32);
  EXPECT_EQ(even.cols, 32);

  const Index shapes[][4] = {{6400, 6400, 32, 64}, {1000, 37, 8, 8},    {37, 1000, 8, 8},
                             {999, 1001, 7, 9},    {10, 1000, 32, 64},  {5, 5, 32, 64},
                             {1, 1, 1, 1},         {Index{32} * 100'000, 640'000, 32, 64}};
  for (const auto& shape : shapes) {
    const Index m = shape[0];
    const Index n = shape[1];
    const PlotSpec spec = tiling_plot_spec(m, n, shape[2], shape[3]);
    SCOPED_TRACE(::testing::Message() << m << "x" << n << " on " << shape[2] << "x" << shape[3]);
    ASSERT_EQ(validate_plot_spec(spec), nullptr);
    ASSERT_EQ(validate_plot_extent(spec, m, n), nullptr);
    EXPECT_LE(spec.rows, shape[2]);
    EXPECT_LE(spec.cols, shape[3]);
    EXPECT_EQ(spec.window, std::min({spec.step, kMaxPlotWindow, m, n}));
    // The grid reaches to within one stride of each sequence's end.
    EXPECT_LT(m - spec.row_start(spec.rows), spec.step);
    EXPECT_LT(n - spec.col_start(spec.cols), spec.step);
  }
  // Windows wider than a u16 score can hold still span the sequence, sampled.
  const PlotSpec wide = tiling_plot_spec(Index{32} * 100'000, 640'000, 32, 64);
  EXPECT_EQ(wide.step, 100'000);
  EXPECT_EQ(wide.window, kMaxPlotWindow);
  EXPECT_EQ(wide.rows, 32);
  EXPECT_EQ(wide.cols, 6);

  EXPECT_THROW((void)tiling_plot_spec(0, 10, 4, 4), std::invalid_argument);
  EXPECT_THROW((void)tiling_plot_spec(10, 10, 0, 4), std::invalid_argument);
}

TEST(AlignmentPlotEngine, TilingSpecThroughEngineServiceDetectsBlockSwap) {
  // b = second half of a + first half of a: anti-diagonal block structure.
  // A 2 x 2 grid has windows of 200 (strips); an 8 x 8 one, windows of 50
  // (direct).
  const Sequence a = random_seq(400, 8, 16);
  Sequence b(a.begin() + 200, a.end());
  b.insert(b.end(), a.begin(), a.begin() + 200);
  for (const Index side : {Index{2}, Index{8}}) {
    const PlotSpec spec = tiling_plot_spec(400, 400, side, side);
    SCOPED_TRACE(leg_name(spec.window));
    ASSERT_EQ(spec.rows, side);
    ASSERT_EQ(spec.cols, side);
    ASSERT_EQ(spec.window, 400 / side);

    ComparisonEngine engine(plot_engine());
    EngineService service(engine);
    PlotAssembler assembler(spec.rows, spec.cols, spec.quant);
    serve_one(service, plot_request(a, b, spec), [&assembler](Response&& response) {
      EXPECT_EQ(response.status, Status::kOk) << response.text;
      assembler.feed(response);
      return true;
    });
    ASSERT_TRUE(assembler.complete());
    const Index half = side / 2;
    for (Index u = 0; u < half; ++u) {
      EXPECT_EQ(assembler.cell(u, u + half), spec.window);
      EXPECT_EQ(assembler.cell(u + half, u), spec.window);
      EXPECT_LT(assembler.cell(u, u), spec.window * 4 / 5);
      EXPECT_LT(assembler.cell(u + half, u + half), spec.window * 4 / 5);
    }
    for (Index u = 0; u < spec.rows; ++u) {
      for (Index v = 0; v < spec.cols; ++v) {
        EXPECT_EQ(assembler.cell(u, v), naive_cell(a, b, spec, u, v));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Protocol: round trips, hostile frames, assembler invariants.

TEST(AlignmentPlotProtocol, PlotRequestRoundTrips) {
  PlotSpec spec;
  spec.row0 = 7;
  spec.col0 = 9;
  spec.rows = 33;
  spec.cols = 21;
  spec.step = 3;
  spec.window = 40;
  spec.quant = 8;
  const Request request = plot_request(random_seq(64, 111), random_seq(64, 112), spec);
  const Request decoded = decode_request(encode_request(request));
  EXPECT_EQ(decoded.op, Op::kAlignmentPlot);
  ASSERT_TRUE(decoded.plot.has_value());
  EXPECT_EQ(decoded.plot->row0, spec.row0);
  EXPECT_EQ(decoded.plot->col0, spec.col0);
  EXPECT_EQ(decoded.plot->rows, spec.rows);
  EXPECT_EQ(decoded.plot->cols, spec.cols);
  EXPECT_EQ(decoded.plot->step, spec.step);
  EXPECT_EQ(decoded.plot->window, spec.window);
  EXPECT_EQ(decoded.plot->quant, spec.quant);
  EXPECT_EQ(decoded.a, request.a);
  EXPECT_EQ(decoded.b, request.b);
}

TEST(AlignmentPlotProtocol, TileResponseRoundTripsAndTerminates) {
  Response response;
  PlotTile tile;
  tile.row0 = 4;
  tile.col0 = 2;
  tile.rows = 3;
  tile.cols = 5;
  tile.quant = 16;
  tile.last = false;
  tile.cells.assign(3 * 5 * 2, '\x7f');
  response.tile = tile;
  const Response decoded = decode_response(encode_response(response));
  ASSERT_TRUE(decoded.tile.has_value());
  EXPECT_EQ(decoded.tile->row0, 4);
  EXPECT_EQ(decoded.tile->col0, 2);
  EXPECT_EQ(decoded.tile->rows, 3u);
  EXPECT_EQ(decoded.tile->cols, 5u);
  EXPECT_EQ(decoded.tile->cells, tile.cells);
  EXPECT_FALSE(terminal_response_frame(decoded));

  response.tile->last = true;
  EXPECT_TRUE(terminal_response_frame(decode_response(encode_response(response))));
  EXPECT_TRUE(terminal_response_frame(Response{}));  // plain frames terminate
}

TEST(AlignmentPlotProtocol, DecodeRejectsHostilePlotDimensions) {
  PlotSpec ok;
  ok.rows = 4;
  ok.cols = 4;
  ok.step = 2;
  ok.window = 8;
  const Sequence a = random_seq(32, 121);
  const Sequence b = random_seq(32, 122);

  // Hostile values that cannot be expressed through the typed encoder are
  // spliced into otherwise-valid encoded bytes. The plot block is the last
  // 33 bytes of the request payload: row0, col0 (i64) rows, cols, step,
  // window (u32) and quant (u8), all little-endian -- so the u32 field f
  // starts 17 - 4*f bytes from the end.
  const std::string good = encode_request(plot_request(a, b, ok));
  const auto splice_u32 = [&](std::size_t field, std::uint32_t value) {
    std::string bytes = good;
    const std::size_t off = bytes.size() - 17 + field * 4;
    for (int i = 0; i < 4; ++i) {
      bytes[off + static_cast<std::size_t>(i)] =
          static_cast<char>((value >> (8 * i)) & 0xff);
    }
    return bytes;
  };
  EXPECT_NO_THROW((void)decode_request(good));
  // rows = 0 and step = 0 are structurally invalid...
  EXPECT_THROW((void)decode_request(splice_u32(0, 0)), ProtocolError);
  EXPECT_THROW((void)decode_request(splice_u32(2, 0)), ProtocolError);
  // ...and absurd dimensions die at the cell/stride ceilings, pre-engine.
  EXPECT_THROW((void)decode_request(splice_u32(0, 0x7fffffffu)), ProtocolError);
  EXPECT_THROW((void)decode_request(splice_u32(1, 0x7fffffffu)), ProtocolError);
  EXPECT_THROW((void)decode_request(splice_u32(2, 0x7fffffffu)), ProtocolError);
  EXPECT_THROW((void)decode_request(splice_u32(3, 0)), ProtocolError);

  // Truncation anywhere inside the plot block is a framing error.
  for (const std::size_t cut : {std::size_t{1}, std::size_t{12}, std::size_t{28}}) {
    EXPECT_THROW((void)decode_request(good.substr(0, good.size() - cut)),
                 ProtocolError);
  }
}

TEST(AlignmentPlotProtocol, DecodeRejectsCorruptTileFrames) {
  Response response;
  PlotTile tile;
  tile.row0 = 0;
  tile.col0 = 0;
  tile.rows = 2;
  tile.cols = 2;
  tile.quant = 8;
  tile.last = true;
  tile.cells.assign(4, '\x01');
  response.tile = tile;
  const std::string good = encode_response(response);
  EXPECT_NO_THROW((void)decode_response(good));
  // Truncated cell payloads must die at the byte-count check.
  for (std::size_t cut = 1; cut <= 4; ++cut) {
    EXPECT_THROW((void)decode_response(good.substr(0, good.size() - cut)),
                 ProtocolError);
  }
  // A quant byte outside {8, 16} is rejected even with plausible sizes.
  std::string bad_quant = good;
  const std::size_t quant_off = good.size() - 4 /*cells*/ - 4 /*nbytes*/ - 2;
  bad_quant[quant_off] = '\x03';
  EXPECT_THROW((void)decode_response(bad_quant), ProtocolError);
}

TEST(AlignmentPlotProtocol, AssemblerDedupsReplaysAndRejectsMismatches) {
  PlotAssembler assembler(2, 2, 16);
  Response frame;
  PlotTile tile;
  tile.row0 = 0;
  tile.col0 = 0;
  tile.rows = 2;
  tile.cols = 2;
  tile.quant = 16;
  tile.cells.assign(8, '\x05');
  frame.tile = tile;
  EXPECT_EQ(assembler.feed(frame), 4u);
  EXPECT_TRUE(assembler.complete());
  // A router failover replays the whole stream: every cell dedups.
  EXPECT_EQ(assembler.feed(frame), 0u);
  EXPECT_EQ(assembler.duplicate_cells(), 4u);

  frame.tile->quant = 8;
  frame.tile->cells.assign(4, '\x05');
  EXPECT_THROW((void)assembler.feed(frame), ProtocolError);
  frame.tile->quant = 16;
  frame.tile->cells.assign(8, '\x05');
  frame.tile->col0 = 1;  // overhangs the 2x2 grid
  EXPECT_THROW((void)assembler.feed(frame), ProtocolError);
}

// ---------------------------------------------------------------------------
// Frontends: streaming over real sockets.

/// Minimal blocking wire client (framed send, decoder-driven recv).
class WireClient {
 public:
  /// `rcvbuf` > 0 shrinks the socket's receive buffer and its segment size
  /// before connecting. Then a client that stops reading pushes back on the
  /// server almost at once: the server's kernel sizes its send buffer by
  /// the segment size, which would otherwise be loopback's 64 KiB.
  explicit WireClient(int port, int rcvbuf = 0) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) throw std::runtime_error("client socket failed");
    if (rcvbuf > 0) {
      const int mss = 536;
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
      ::setsockopt(fd_, IPPROTO_TCP, TCP_MAXSEG, &mss, sizeof(mss));
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd_);
      throw std::runtime_error("client connect failed");
    }
    const int nodelay = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
  }

  ~WireClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  void send(const Request& request) { send_raw(encode_request(request)); }

  /// Frames and sends raw payload bytes -- hostile encodings that the typed
  /// encoder refuses to produce go through here.
  void send_raw(std::string_view payload) {
    const std::string bytes = frame_payload(payload);
    std::size_t off = 0;
    while (off < bytes.size()) {
      const auto n = ::write(fd_, bytes.data() + off, bytes.size() - off);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        throw std::runtime_error("client write failed");
      }
      off += static_cast<std::size_t>(n);
    }
  }

  std::optional<Response> recv(std::chrono::milliseconds deadline = 10000ms) {
    const auto until = std::chrono::steady_clock::now() + deadline;
    while (queue_.empty()) {
      if (eof_) return std::nullopt;
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          until - std::chrono::steady_clock::now());
      if (left <= 0ms) throw std::runtime_error("client recv deadline");
      pollfd pfd{fd_, POLLIN, 0};
      if (::poll(&pfd, 1, static_cast<int>(left.count())) <= 0) continue;
      char buf[1 << 16];
      const auto n = ::read(fd_, buf, sizeof(buf));
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        eof_ = true;
        continue;
      }
      decoder_.feed(std::string_view(buf, static_cast<std::size_t>(n)),
                    [this](std::string_view payload, bool) {
                      queue_.push_back(decode_response(payload));
                    });
    }
    Response response = std::move(queue_.front());
    queue_.pop_front();
    return response;
  }

  /// Drains one plot stream into `assembler`; returns the frame count.
  std::size_t drain_stream(PlotAssembler& assembler) {
    std::size_t frames = 0;
    while (true) {
      const auto response = recv();
      if (!response.has_value()) throw std::runtime_error("EOF mid-stream");
      EXPECT_EQ(response->status, Status::kOk) << response->text;
      ++frames;
      assembler.feed(*response);
      if (terminal_response_frame(*response)) return frames;
    }
  }

 private:
  int fd_ = -1;
  FrameDecoder decoder_;
  std::deque<Response> queue_;
  bool eof_ = false;
};

/// Engine + its service + reactor frontend + run() thread.
struct Reactor {
  ComparisonEngine engine;
  EngineService service;
  FrontendServer server;
  std::thread thread;

  Reactor(EngineOptions engine_options, FrontendOptions frontend_options)
      : engine(std::move(engine_options)),
        service(engine),
        server(service, std::move(frontend_options)),
        thread([this] { server.run(); }) {}

  ~Reactor() {
    if (thread.joinable()) {
      server.request_stop();
      thread.join();
    }
  }

  [[nodiscard]] int port() const { return server.port(); }
};

FrontendOptions quiet_frontend() {
  FrontendOptions options;
  options.port = 0;
  options.idle_timeout_ms = 0;
  options.read_timeout_ms = 0;
  return options;
}

TEST(AlignmentPlotFrontend, ReactorStreamsTilesAndKeepsServingAfterwards) {
  // Small tile budget: the plot must arrive as many frames, interleaved
  // through the reactor's paced stream path, then ordinary requests still
  // answer on the same connection.
  Reactor reactor(plot_engine(true, /*tile_cells=*/32), quiet_frontend());
  const Sequence a = random_seq(200, 131);
  const Sequence b = random_seq(200, 132);
  WireClient client(reactor.port());
  for (const Index window : {Index{24}, Index{72}}) {
    SCOPED_TRACE(leg_name(window));
    PlotSpec spec;
    spec.rows = 12;
    spec.cols = 12;
    spec.step = 8;
    spec.window = window;

    client.send(plot_request(a, b, spec));
    PlotAssembler assembler(spec.rows, spec.cols, spec.quant);
    const std::size_t frames = client.drain_stream(assembler);
    EXPECT_GT(frames, 1u);
    EXPECT_TRUE(assembler.complete());
    EXPECT_EQ(assembler.cell(0, 0), naive_cell(a, b, spec, 0, 0));
    EXPECT_EQ(assembler.cell(spec.rows - 1, spec.cols - 1),
              naive_cell(a, b, spec, spec.rows - 1, spec.cols - 1));

    Request ping;
    ping.op = Op::kPing;
    client.send(ping);
    const auto pong = client.recv();
    ASSERT_TRUE(pong.has_value());
    EXPECT_EQ(pong->status, Status::kOk);
  }
}

TEST(AlignmentPlotFrontend, ConcurrentClientStreamsAgainstOneReactor) {
  Reactor reactor(plot_engine(true, /*tile_cells=*/64), quiet_frontend());
  const Sequence a = random_seq(180, 141);
  const Sequence b = random_seq(180, 142);
  for (const Index window : {Index{20}, Index{72}}) {
    SCOPED_TRACE(leg_name(window));
    PlotSpec spec;
    spec.rows = 10;
    spec.cols = 10;
    spec.step = 6;
    spec.window = window;
    const Index truth = naive_cell(a, b, spec, 0, 0);

    constexpr int kClients = 4;
    std::vector<std::thread> threads;
    std::atomic<int> completed{0};
    threads.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&] {
        WireClient client(reactor.port());
        client.send(plot_request(a, b, spec));
        PlotAssembler assembler(spec.rows, spec.cols, spec.quant);
        client.drain_stream(assembler);
        EXPECT_TRUE(assembler.complete());
        EXPECT_EQ(assembler.cell(0, 0), truth);
        completed.fetch_add(1);
      });
    }
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(completed.load(), kClients);
  }
}

TEST(AlignmentPlotFrontend, HostilePlotRequestDiesAtDecodeWithOneErrorFrame) {
  Reactor reactor(plot_engine(), quiet_frontend());
  for (const auto& [length, window] : {std::pair<Index, Index>{32, 8}, {96, 72}}) {
    SCOPED_TRACE(leg_name(window));
    PlotSpec bad;
    bad.rows = 4;
    bad.cols = 4;
    bad.step = 2;
    bad.window = window;
    const Sequence a = random_seq(length, 151);
    const Sequence b = random_seq(length, 152);
    const std::string good = encode_request(plot_request(a, b, bad));
    std::string hostile = good;
    // step := 0 (the third u32 of the 33-byte plot block, 9 bytes from the end).
    const std::size_t off = hostile.size() - 17 + 2 * 4;
    hostile[off] = '\0';
    hostile[off + 1] = '\0';
    hostile[off + 2] = '\0';
    hostile[off + 3] = '\0';

    ASSERT_THROW((void)decode_request(hostile), ProtocolError);  // hostile at decode

    WireClient client(reactor.port());
    client.send(plot_request(a, b, bad));
    PlotAssembler assembler(bad.rows, bad.cols, bad.quant);
    client.drain_stream(assembler);  // the well-formed plot streams fine

    // The hostile payload is well-framed, so the server answers one kError
    // frame (no tiles) and the connection keeps serving: decode rejection is a
    // request failure, not a stream poisoning.
    client.send_raw(hostile);
    const auto err = client.recv();
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->status, Status::kError);
    EXPECT_FALSE(err->tile.has_value());

    Request ping;
    ping.op = Op::kPing;
    client.send(ping);
    const auto pong = client.recv();
    ASSERT_TRUE(pong.has_value());
    EXPECT_EQ(pong->status, Status::kOk);
  }
}

/// The strip kernel of grid row u, as naive_cell builds it, for checking a
/// whole row of cells at once.
SemiLocalKernel strip_kernel(const Sequence& a, const Sequence& b, const PlotSpec& spec,
                             Index u) {
  const auto start = static_cast<std::size_t>(spec.row_start(u));
  const Sequence strip_a(a.begin() + static_cast<std::ptrdiff_t>(start),
                         a.begin() + static_cast<std::ptrdiff_t>(start + spec.window));
  return semi_local_kernel(strip_a, b);
}

TEST(AlignmentPlotFrontend, SlowReaderPausesTheEngineStreamWithinTheWriteQueueCap) {
  // The engine's own plot stream to a client that stops reading: the
  // reactor stops emitting (and stops topping up strips or bands) instead
  // of queueing tiles, so its write queue never passes
  // max_write_queue_bytes, and once the client reads again the whole grid
  // arrives intact.
  for (const Index window : {Index{16}, Index{80}}) {
    SCOPED_TRACE(leg_name(window));
    FrontendOptions frontend = quiet_frontend();
    frontend.max_write_queue_bytes = std::size_t{32} << 10;
    Reactor reactor(plot_engine(true, /*tile_cells=*/32), frontend);
    PlotSpec spec;
    spec.rows = 400;
    spec.cols = 400;
    spec.step = 1;
    spec.window = window;
    const Sequence a = random_seq(spec.rows + spec.window, 221);
    const Sequence b = random_seq(spec.cols + spec.window, 222);

    WireClient client(reactor.port(), /*rcvbuf=*/4096);
    client.send(plot_request(a, b, spec));
    PlotAssembler assembler(spec.rows, spec.cols, spec.quant);
    const auto first = client.recv();
    ASSERT_TRUE(first.has_value());
    assembler.feed(*first);
    std::this_thread::sleep_for(400ms);  // the stall: nothing read
    EXPECT_EQ(reactor.server.stats().write_queue_disconnects, 0u);
    if (direct_window(window)) {
      EXPECT_LT(reactor.engine.stats().queries.plot_windows,
                static_cast<std::uint64_t>(spec.cells()))
          << "a paused direct plot kept computing bands";
    }
    client.drain_stream(assembler);
    ASSERT_TRUE(assembler.complete());
    for (Index u = 0; u < spec.rows; ++u) {
      const SemiLocalKernel strip = strip_kernel(a, b, spec, u);
      for (Index v = 0; v < spec.cols; ++v) {
        const Index j0 = spec.col_start(v);
        ASSERT_EQ(assembler.cell(u, v), strip.string_substring(j0, j0 + spec.window))
            << "cell (" << u << ", " << v << ")";
      }
    }
    EXPECT_EQ(assembler.cell(7, 9), naive_cell(a, b, spec, 7, 9));
    EXPECT_EQ(reactor.server.stats().write_queue_disconnects, 0u);
  }
}

TEST(AlignmentPlotFrontend, ClientClosingMidPlotStopsStripSubmissions) {
  // A paused stream whose client hangs up: the plot submits no strip, and
  // no band task, beyond what was already in flight, so `computed` (strip
  // leg) or `tasks` and `plot_windows` (direct leg) settle well short of
  // the whole plot.
  for (const Index window : {Index{16}, Index{80}}) {
    SCOPED_TRACE(leg_name(window));
    FrontendOptions frontend = quiet_frontend();
    frontend.max_write_queue_bytes = std::size_t{32} << 10;
    Reactor reactor(plot_engine(true, /*tile_cells=*/32), frontend);
    PlotSpec spec;
    spec.rows = 400;
    spec.cols = 400;
    spec.step = 1;
    spec.window = window;
    const Sequence a = random_seq(spec.rows + spec.window, 231);
    const Sequence b = random_seq(spec.cols + spec.window, 232);
    // What the plot has submitted (strips, or band tasks) and computed.
    const bool direct = direct_window(window);
    const auto submitted = [&reactor, direct] {
      const EngineStats stats = reactor.engine.stats();
      return direct ? stats.scheduler.tasks : stats.scheduler.computed;
    };

    auto client = std::make_unique<WireClient>(reactor.port(), /*rcvbuf=*/4096);
    client->send(plot_request(a, b, spec));
    ASSERT_TRUE(client->recv().has_value());
    std::this_thread::sleep_for(300ms);  // the stream pauses on the full queue
    const std::uint64_t paused = submitted();
    client.reset();  // hang up mid-plot

    std::uint64_t settled = paused;
    for (int i = 0; i < 50; ++i) {
      std::this_thread::sleep_for(100ms);
      const std::uint64_t now = submitted();
      if (now == settled && reactor.server.stats().connections_active == 0) break;
      settled = now;
    }
    EXPECT_EQ(reactor.server.stats().connections_active, 0u);
    if (direct) {
      // Bands of 16 rows, at most 4 ahead of the emit cursor.
      EXPECT_LT(settled, static_cast<std::uint64_t>(spec.rows / 16));
      EXPECT_EQ(settled, paused) << "band tasks kept being submitted after the hang-up";
      EXPECT_LT(reactor.engine.stats().queries.plot_windows,
                static_cast<std::uint64_t>(spec.cells()));
      EXPECT_EQ(reactor.engine.stats().scheduler.computed, 0u);
    } else {
      EXPECT_LT(settled, static_cast<std::uint64_t>(spec.rows));
      EXPECT_LE(settled, paused + 16) << "strips kept being submitted after the hang-up";
    }
    std::this_thread::sleep_for(200ms);
    EXPECT_EQ(submitted(), settled);
  }
}

// ---------------------------------------------------------------------------
// Shard router: stream relay and failover.

struct Backend {
  ComparisonEngine engine;
  EngineService service;
  FrontendServer server;
  std::thread thread;

  Backend()
      : engine(plot_engine(true, /*tile_cells=*/32)),
        service(engine),
        server(service, quiet_frontend()),
        thread([this] { server.run(); }) {}

  ~Backend() {
    if (thread.joinable()) {
      server.request_stop();
      thread.join();
    }
  }

  [[nodiscard]] int port() const { return server.port(); }
};

RouterOptions router_over(const std::vector<int>& ports) {
  RouterOptions options;
  for (std::size_t i = 0; i < ports.size(); ++i) {
    options.shards.push_back(
        ShardConfig{static_cast<int>(i), "127.0.0.1", ports[i], 1});
  }
  return options;
}

TEST(AlignmentPlotRouter, RelaysTileStreamsAndStampsShardIds) {
  Backend b0;
  Backend b1;
  ShardRouter router(router_over({b0.port(), b1.port()}));
  const Sequence a = random_seq(150, 171);
  const Sequence b = random_seq(150, 172);
  PlotSpec spec;
  spec.rows = 8;
  spec.cols = 8;
  spec.step = 8;
  spec.window = 16;

  PlotAssembler assembler(spec.rows, spec.cols, spec.quant);
  std::size_t frames = 0;
  bool terminal = false;
  router.route_stream(plot_request(a, b, spec), [&](Response&& response) {
    EXPECT_EQ(response.status, Status::kOk) << response.text;
    EXPECT_GE(response.shard, 0);  // every relayed frame carries the shard id
    ++frames;
    assembler.feed(response);
    terminal = terminal_response_frame(response);
    return true;
  });
  EXPECT_TRUE(terminal);
  EXPECT_GT(frames, 1u);
  EXPECT_TRUE(assembler.complete());
  EXPECT_EQ(assembler.cell(2, 5), naive_cell(a, b, spec, 2, 5));
}

TEST(AlignmentPlotRouter, FailsOverToTheReplicaWhenTheFirstCandidateIsDead) {
  // One dead port in the ring: whichever candidate order the hash picks, the
  // stream must complete off the live backend, possibly after a re-send.
  Backend live;
  RouterOptions options = router_over({live.port(), 1 /* nothing listens */});
  options.replicas = 2;
  options.connect_timeout_ms = 200;
  options.attempt_timeout_ms = 500;
  ShardRouter router(std::move(options));

  const Sequence a = random_seq(140, 181);
  const Sequence b = random_seq(140, 182);
  PlotSpec spec;
  spec.rows = 6;
  spec.cols = 6;
  spec.step = 8;
  spec.window = 16;

  for (int attempt = 0; attempt < 4; ++attempt) {
    PlotAssembler assembler(spec.rows, spec.cols, spec.quant);
    bool terminal = false;
    Status final_status = Status::kOk;
    router.route_stream(plot_request(a, b, spec), [&](Response&& response) {
      final_status = response.status;
      if (response.status == Status::kOk) assembler.feed(response);
      terminal = terminal_response_frame(response);
      return true;
    });
    ASSERT_TRUE(terminal);
    ASSERT_EQ(final_status, Status::kOk);
    ASSERT_TRUE(assembler.complete());
    ASSERT_EQ(assembler.cell(1, 1), naive_cell(a, b, spec, 1, 1));
  }
}

/// A backend that sheds every request with RETRY_AFTER.
struct SheddingService final : Service {
  Step begin(Request&&, bool) override {
    return Step{overloaded_response(5, "stub: shedding"), {}};
  }
};

TEST(AlignmentPlotRouter, BackendRetryAfterOnAPlotFailsOverToTheReplica) {
  // The shedding backend is the plot key's ring primary, so the stream must
  // start there, get kOverloaded, and complete off the replica.
  SheddingService shedding;
  FrontendServer stub(shedding, quiet_frontend());
  std::thread stub_thread([&stub] { stub.run(); });
  Backend live;

  const Sequence a = random_seq(150, 201);
  const Sequence b = random_seq(150, 202);
  PlotSpec spec;
  spec.rows = 8;
  spec.cols = 8;
  spec.step = 8;
  spec.window = 16;
  std::vector<int> order;
  HashRing(router_over({0, 0}).shards).replicas_for(make_pair_key(a, b), 2, order);
  ASSERT_EQ(order.size(), 2u);
  const int stub_id = order[0];
  const int live_id = order[1];
  std::vector<int> ports(2);
  ports[static_cast<std::size_t>(stub_id)] = stub.port();
  ports[static_cast<std::size_t>(live_id)] = live.port();
  RouterOptions options = router_over(ports);
  options.replicas = 2;
  ShardRouter router(std::move(options));

  PlotAssembler assembler(spec.rows, spec.cols, spec.quant);
  bool terminal = false;
  router.route_stream(plot_request(a, b, spec), [&](Response&& response) {
    EXPECT_EQ(response.status, Status::kOk) << response.text;
    EXPECT_EQ(response.shard, live_id);
    assembler.feed(response);
    terminal = terminal_response_frame(response);
    return true;
  });
  EXPECT_TRUE(terminal);
  ASSERT_TRUE(assembler.complete());
  for (Index u = 0; u < spec.rows; ++u) {
    for (Index v = 0; v < spec.cols; ++v) {
      ASSERT_EQ(assembler.cell(u, v), naive_cell(a, b, spec, u, v))
          << "cell (" << u << ", " << v << ")";
    }
  }
  const RouterStats stats = router.stats();
  EXPECT_EQ(stats.failovers, 1u);
  EXPECT_EQ(stats.unavailable, 0u);
  EXPECT_EQ(stats.shards[static_cast<std::size_t>(stub_id)].requests, 1u);
  EXPECT_EQ(stats.shards[static_cast<std::size_t>(stub_id)].errors, 1u);
  EXPECT_EQ(stats.shards[static_cast<std::size_t>(live_id)].ok, 1u);

  stub.request_stop();
  stub_thread.join();
}

TEST(AlignmentPlotRouter, CancelledSinkDiscardsTheBackendConnection) {
  Backend b0;
  ShardRouter router(router_over({b0.port()}));
  const Sequence a = random_seq(150, 191);
  const Sequence b = random_seq(150, 192);
  PlotSpec spec;
  spec.rows = 8;
  spec.cols = 8;
  spec.step = 8;
  spec.window = 16;

  std::size_t delivered = 0;
  router.route_stream(plot_request(a, b, spec),
                      [&](Response&&) { return ++delivered < 2; });
  EXPECT_EQ(delivered, 2u);

  // The router must still serve cleanly on a fresh exchange afterwards.
  PlotAssembler assembler(spec.rows, spec.cols, spec.quant);
  bool terminal = false;
  router.route_stream(plot_request(a, b, spec), [&](Response&& response) {
    EXPECT_EQ(response.status, Status::kOk);
    assembler.feed(response);
    terminal = terminal_response_frame(response);
    return true;
  });
  EXPECT_TRUE(terminal);
  EXPECT_TRUE(assembler.complete());
}

TEST(AlignmentPlotRouter, SlowReaderPausesTheRelayWithinTheWriteQueueCap) {
  // A client stops reading mid-plot. The router must stop pulling tiles off
  // its backend rather than queue them: its write queue never passes
  // max_write_queue_bytes (that would be a write_queue_disconnect), and once
  // the client reads again the whole grid arrives intact.
  Backend backend;
  FrontendOptions frontend = quiet_frontend();
  frontend.max_write_queue_bytes = std::size_t{32} << 10;
  ShardRouter router(router_over({backend.port()}));
  FrontendServer server(router, frontend);
  std::thread thread([&server] { server.run(); });

  PlotSpec spec;
  spec.rows = 400;
  spec.cols = 400;
  spec.step = 1;
  spec.window = 16;
  const Sequence a = random_seq(spec.rows + spec.window, 211);
  const Sequence b = random_seq(spec.cols + spec.window, 212);

  {
    WireClient client(server.port(), /*rcvbuf=*/4096);
    client.send(plot_request(a, b, spec));
    PlotAssembler assembler(spec.rows, spec.cols, spec.quant);
    const auto first = client.recv();
    ASSERT_TRUE(first.has_value());
    assembler.feed(*first);
    std::this_thread::sleep_for(400ms);  // the stall: nothing read
    EXPECT_EQ(server.stats().write_queue_disconnects, 0u);
    client.drain_stream(assembler);
    ASSERT_TRUE(assembler.complete());
    for (Index u = 0; u < spec.rows; ++u) {
      // naive_cell's strip kernel, built once per row instead of per cell.
      const auto start = static_cast<std::size_t>(spec.row_start(u));
      const Sequence strip_a(a.begin() + static_cast<std::ptrdiff_t>(start),
                             a.begin() + static_cast<std::ptrdiff_t>(start + spec.window));
      const SemiLocalKernel strip = semi_local_kernel(strip_a, b);
      for (Index v = 0; v < spec.cols; ++v) {
        const Index j0 = spec.col_start(v);
        ASSERT_EQ(assembler.cell(u, v), strip.string_substring(j0, j0 + spec.window))
            << "cell (" << u << ", " << v << ")";
      }
    }
    EXPECT_EQ(assembler.cell(7, 9), naive_cell(a, b, spec, 7, 9));
  }
  EXPECT_EQ(server.stats().write_queue_disconnects, 0u);
  EXPECT_EQ(router.stats().forwarded, 1u);
  server.request_stop();
  thread.join();
}

}  // namespace
}  // namespace semilocal
