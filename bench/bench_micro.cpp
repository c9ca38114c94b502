// Micro-benchmarks on the library's hot kernels, via google-benchmark.
// Complements the figure-reproduction binaries: these are the numbers to
// watch when optimizing an inner loop.
//
// Besides the google-benchmark suite, main() writes a machine-readable
// comb-kernel report to results/bench_micro.json: ns/cell for every
// dispatchable kernel tier (scalar / AVX2 / AVX-512, both strand widths),
// single-call vs batched semi-local throughput, and the score-only kernels
// a cold `lcs` request can run (the bit-plane comber next to Hyyro's
// bit-vector LCS and the semi-local comb + query index it replaces). Run
// with `--benchmark_filter=NONE` to emit only the JSON report.
#include "common.hpp"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "bitlcs/bitwise_combing.hpp"
#include "bitlcs/encoding.hpp"
#include "braid/permutation.hpp"
#include "braid/steady_ant.hpp"
#include "core/api.hpp"
#include "core/comb_kernels.hpp"
#include "core/query_index.hpp"
#include "lcs/bitparallel.hpp"
#include "lcs/prefix.hpp"
#include "util/parallel.hpp"
#include "util/random.hpp"

namespace {

using namespace semilocal;

void BM_SteadyAntCombined(benchmark::State& state) {
  const Index n = state.range(0);
  const auto p = Permutation::random(n, 1);
  const auto q = Permutation::random(n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(multiply_combined(p, q));
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SteadyAntCombined)->Range(1 << 10, 1 << 16)->Complexity(benchmark::oNLogN);

void BM_SteadyAntBase(benchmark::State& state) {
  const Index n = state.range(0);
  const auto p = Permutation::random(n, 1);
  const auto q = Permutation::random(n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(multiply_base(p, q));
  }
}
BENCHMARK(BM_SteadyAntBase)->Range(1 << 10, 1 << 16);

void BM_CombRowMajor(benchmark::State& state) {
  const Index n = state.range(0);
  const auto a = rounded_normal_sequence(n, 1.0, 1);
  const auto b = rounded_normal_sequence(n, 1.0, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(semi_local_kernel(a, b, {.strategy = Strategy::kRowMajor}));
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_CombRowMajor)->Range(1 << 10, 1 << 13);

void BM_CombAntidiagSimd(benchmark::State& state) {
  const Index n = state.range(0);
  const auto a = rounded_normal_sequence(n, 1.0, 1);
  const auto b = rounded_normal_sequence(n, 1.0, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        semi_local_kernel(a, b, {.strategy = Strategy::kAntidiagSimd}));
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_CombAntidiagSimd)->Range(1 << 10, 1 << 14);

void BM_PrefixAntidiag(benchmark::State& state) {
  const Index n = state.range(0);
  const auto a = rounded_normal_sequence(n, 1.0, 1);
  const auto b = rounded_normal_sequence(n, 1.0, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lcs_prefix_antidiag(a, b, false));
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_PrefixAntidiag)->Range(1 << 10, 1 << 14);

void BM_BitCombingOptimized(benchmark::State& state) {
  const Index n = state.range(0);
  const auto a = binary_sequence(n, 1);
  const auto b = binary_sequence(n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lcs_bit_combing(a, b, BitVariant::kOptimized, false));
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_BitCombingOptimized)->Range(1 << 14, 1 << 18);

void BM_BitparallelCrochemore(benchmark::State& state) {
  const Index n = state.range(0);
  const auto a = binary_sequence(n, 1);
  const auto b = binary_sequence(n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lcs_bitparallel_crochemore(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_BitparallelCrochemore)->Range(1 << 14, 1 << 18);

// ---------------------------------------------------------------------------
// Comb-kernel JSON report.
// ---------------------------------------------------------------------------

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// Median-of-5 wall time of `fn()`, with one warmup call.
template <typename Fn>
double median_run_seconds(const Fn& fn) {
  fn();
  std::vector<double> runs;
  for (int r = 0; r < 5; ++r) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    runs.push_back(seconds_since(start));
  }
  std::sort(runs.begin(), runs.end());
  return runs[runs.size() / 2];
}

/// ns/cell of one raw comb kernel over a resident strand window.
template <typename StrandT>
double kernel_ns_per_cell(CombCellsFn<StrandT> fn) {
  // L1-resident working set (4 arrays x 8 KB) so the measurement reflects
  // kernel compute speed, not L2 bandwidth; real diagonals of this length
  // dominate the antidiagonal sweep's runtime.
  constexpr Index kLen = 1 << 11;
  constexpr int kIters = 2000;
  const auto a = uniform_sequence(kLen, 4, 1);
  const auto b = uniform_sequence(kLen, 4, 2);
  std::vector<StrandT> h(kLen), v(kLen);
  for (Index i = 0; i < kLen; ++i) {
    h[static_cast<std::size_t>(i)] = static_cast<StrandT>(i);
    v[static_cast<std::size_t>(i)] = static_cast<StrandT>(kLen + i);
  }
  const double secs = median_run_seconds([&] {
    for (int it = 0; it < kIters; ++it) {
      fn(a.data(), b.data(), h.data(), v.data(), kLen);
    }
  });
  return secs / (static_cast<double>(kIters) * kLen) * 1e9;
}

// The baseline runtime dispatch exists to beat: the same select-formulation
// inner loop autovectorized for the portable x86-64 baseline ISA (SSE2) --
// what a distributable binary built without -march=native gets. On a
// -march=native build the scalar tier autovectorizes to the same ISA as the
// hand kernels, so it brackets them from the other side.
#if defined(__x86_64__)
#define SEMILOCAL_BENCH_PORTABLE 1
template <typename StrandT>
__attribute__((target("arch=x86-64")))
void comb_cells_portable(const Symbol* __restrict a_rev, const Symbol* __restrict b,
                         StrandT* __restrict h, StrandT* __restrict v, Index len) {
  for (Index j = 0; j < len; ++j) {
    const StrandT hs = h[j];
    const StrandT vs = v[j];
    const bool p = (a_rev[j] == b[j]) | (hs > vs);
    h[j] = p ? vs : hs;
    v[j] = p ? hs : vs;
  }
}
#else
#define SEMILOCAL_BENCH_PORTABLE 0
#endif

/// One score-only row: every way the serving path could answer LCS(a, b)
/// for a cold pair, single-threaded, in ms (median of 5 after a warmup).
struct ScoreRow {
  Index length;
  Symbol alphabet;
  double plane_ms;       ///< lcs_bit_combing_alphabet on the dense pair (the score job)
  double hyyro_ms;       ///< Hyyro's bit-vector LCS (the differential oracle)
  double comb_ms;        ///< semi_local_kernel: the full semi-local comb
  double comb_index_ms;  ///< comb + QueryIndex build (the kernel miss path)
};

ScoreRow score_row(Index length, Symbol alphabet) {
  const auto a = uniform_sequence(length, alphabet, 7);
  const auto b = uniform_sequence(length, alphabet, 8);
  const auto ms = [](const auto& fn) { return median_run_seconds(fn) * 1e3; };
  ScoreRow row{length, alphabet, 0, 0, 0, 0};
  row.plane_ms = ms([&] {
    const DensePair d = dense_remap(a, b);
    benchmark::DoNotOptimize(
        lcs_bit_combing_alphabet(d.a, d.b, std::max<Symbol>(2, d.alphabet), false));
  });
  row.hyyro_ms = ms([&] { benchmark::DoNotOptimize(lcs_bitparallel_hyyro(a, b)); });
  row.comb_ms = ms([&] { benchmark::DoNotOptimize(semi_local_kernel(a, b)); });
  row.comb_index_ms = ms([&] {
    const SemiLocalKernel kernel = semi_local_kernel(a, b);
    const QueryIndex index(kernel);
    benchmark::DoNotOptimize(index.lcs());
  });
  return row;
}

struct KernelRow {
  std::string name;
  double u16_ns_per_cell;
  double u32_ns_per_cell;
};

void write_kernel_report(const std::string& path) {
  std::vector<KernelRow> rows;
#if SEMILOCAL_BENCH_PORTABLE
  rows.push_back({"portable_select_x86_64",
                  kernel_ns_per_cell<std::uint16_t>(&comb_cells_portable<std::uint16_t>),
                  kernel_ns_per_cell<std::uint32_t>(&comb_cells_portable<std::uint32_t>)});
#endif
  for (const KernelIsa isa : {KernelIsa::kScalar, KernelIsa::kAvx2, KernelIsa::kAvx512}) {
    if (!kernel_isa_supported(isa)) continue;
    const CombKernelTable& t = kernel_table(isa);
    rows.push_back({std::string(t.name), kernel_ns_per_cell(t.u16),
                    kernel_ns_per_cell(t.u32)});
  }

  // Single-call vs batched semi-local throughput over a pool of pairs.
  constexpr int kPairs = 16;
  constexpr Index kLen = 2000;
  std::vector<Sequence> storage;
  std::vector<SequencePair> pairs;
  for (int i = 0; i < kPairs; ++i) {
    storage.push_back(rounded_normal_sequence(kLen, 1.0, 10 + i));
    storage.push_back(rounded_normal_sequence(kLen, 1.0, 100 + i));
  }
  for (std::size_t i = 0; i < storage.size(); i += 2) {
    pairs.push_back({storage[i], storage[i + 1]});
  }
  std::vector<Index> scores(pairs.size());
  const double per_call_s = median_run_seconds([&] {
    for (const auto& [a, b] : pairs) {
      benchmark::DoNotOptimize(lcs_semilocal(a, b, {}));
    }
  });
  const double batched_s = median_run_seconds([&] {
    lcs_semilocal_batch(pairs, scores, {.parallel = true});
  });

  std::vector<ScoreRow> score_rows;
  for (const Index length : {Index{2000}, Index{8000}}) {
    for (const Symbol alphabet : {4, 256}) score_rows.push_back(score_row(length, alphabet));
  }

  Json out(/*wrap_depth=*/2);
  out.begin_object().field("dispatched", kernel_dispatch().name);
  out.field("threads", hardware_threads()).field("baseline", rows.front().name);
  out.key("kernels").begin_array();
  const double base_u16 = rows.front().u16_ns_per_cell;
  const double base_u32 = rows.front().u32_ns_per_cell;
  for (const auto& r : rows) {
    out.begin_object().field("name", r.name).field("u16_ns_per_cell", r.u16_ns_per_cell);
    out.field("u32_ns_per_cell", r.u32_ns_per_cell);
    out.field("u16_speedup_vs_baseline", base_u16 / r.u16_ns_per_cell);
    out.field("u32_speedup_vs_baseline", base_u32 / r.u32_ns_per_cell).end_object();
  }
  out.end_array().key("batch").begin_object().field("pairs", kPairs);
  out.field("pair_length", kLen).field("per_call_pairs_per_s", kPairs / per_call_s);
  out.field("batched_pairs_per_s", kPairs / batched_s);
  out.field("batched_speedup", per_call_s / batched_s).end_object();
  out.key("score_kernels").begin_array();
  for (const ScoreRow& r : score_rows) {
    out.begin_object().field("length", r.length).field("alphabet", r.alphabet);
    out.field("plane_ms", r.plane_ms).field("hyyro_ms", r.hyyro_ms);
    out.field("comb_ms", r.comb_ms).field("comb_index_ms", r.comb_index_ms).end_object();
  }
  out.end_array().end_object();
  bench::write_report(path, out);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  write_kernel_report("results/bench_micro.json");
  return 0;
}
