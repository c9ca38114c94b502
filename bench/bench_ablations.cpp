// Ablation benchmarks for the design choices DESIGN.md calls out:
//
//   A1  precalc cutoff order -- the paper precomputes all products up to
//       order 5 and argues order 6 would be borderline-feasible; this sweep
//       shows the marginal value of each extra level.
//   A2  16-bit vs 32-bit strand indices in the SIMD comber (Section 4.1's
//       "optimize SIMD parallelism utilization in case m + n <= 2^16").
//   A3  bit-parallel variants including the 4-way interleaved extension
//       (recovers ILP lost to register blocking; beyond the paper).
//   A4  kernel query structures: dense table vs merge-sort tree vs wavelet
//       tree (the range-counting tradeoff of the paper's footnote 1).
#include "common.hpp"

#include "bitlcs/bitwise_combing.hpp"
#include "lcs/bitparallel.hpp"
#include "braid/permutation.hpp"
#include "braid/steady_ant.hpp"
#include "core/api.hpp"
#include "core/iterative_combing.hpp"
#include "core/kernel_codec.hpp"
#include "dominance/mergesort_tree.hpp"
#include "dominance/prefix_oracle.hpp"
#include "dominance/wavelet_tree.hpp"
#include "util/random.hpp"

using namespace semilocal;
using namespace semilocal::bench;

namespace {

void ablation_precalc_cutoff() {
  const Index n = scaled(1 << 17);
  const auto p = Permutation::random(n, 1);
  const auto q = Permutation::random(n, 2);
  Table table({"cutoff_order", "seconds", "speedup_vs_no_precalc"});
  const double base = median_seconds([&] {
    (void)multiply(p, q, {.precalc = false, .preallocate = true});
  });
  table.row().cell("off").cell(base, 4).cell(1.0, 3);
  for (Index cutoff = 1; cutoff <= 5; ++cutoff) {
    const double t = median_seconds([&] {
      (void)multiply(p, q, {.precalc = true, .preallocate = true, .precalc_cutoff = cutoff});
    });
    table.row().cell(static_cast<long long>(cutoff)).cell(t, 4).cell(base / t, 3);
  }
  emit(table, "ablation_precalc_cutoff",
       "A1: steady-ant precalc cutoff order (size " + std::to_string(n) + ")");
}

void ablation_strand_width() {
  Table table({"length", "strands_32bit_s", "strands_16bit_s", "speedup"});
  for (const Index n : {scaled(8000), scaled(16000), scaled(30000)}) {
    const auto a = rounded_normal_sequence(n, 1.0, 1);
    const auto b = rounded_normal_sequence(n, 1.0, 2);
    const double w32 = median_seconds([&] {
      (void)comb_antidiag(a, b, {.branchless = true, .allow_16bit = false});
    });
    const double w16 = median_seconds([&] {
      (void)comb_antidiag(a, b, {.branchless = true, .allow_16bit = true});
    });
    table.row()
        .cell(static_cast<long long>(n))
        .cell(w32, 4)
        .cell(w16, 4)
        .cell(w32 / w16, 3);
  }
  emit(table, "ablation_strand_width",
       "A2: 16-bit vs 32-bit strand indices (branchless anti-diagonal combing)");
}

void ablation_bit_variants() {
  const Index n = scaled(120000);
  const auto a = binary_sequence(n, 1);
  const auto b = binary_sequence(n, 2);
  Table table({"variant", "seconds", "speedup_vs_bit_old"});
  const double old_t =
      median_seconds([&] { (void)lcs_bit_combing(a, b, BitVariant::kOld, false); });
  const double new1 =
      median_seconds([&] { (void)lcs_bit_combing(a, b, BitVariant::kBlocked, false); });
  const double new2 =
      median_seconds([&] { (void)lcs_bit_combing(a, b, BitVariant::kOptimized, false); });
  const double ilp =
      median_seconds([&] { (void)lcs_bit_combing(a, b, BitVariant::kInterleaved, false); });
  table.row().cell("bit_old").cell(old_t, 4).cell(1.0, 3);
  table.row().cell("bit_new_1").cell(new1, 4).cell(old_t / new1, 3);
  table.row().cell("bit_new_2").cell(new2, 4).cell(old_t / new2, 3);
  table.row().cell("bit_new_2+ilp4").cell(ilp, 4).cell(old_t / ilp, 3);
  emit(table, "ablation_bit_variants",
       "A3: bit-parallel variants, sequential (binary length " + std::to_string(n) + ")");
}

void ablation_query_structures() {
  const Index n = scaled(1 << 17);
  const auto p = Permutation::random(n, 9);
  Table table({"structure", "build_s", "queries_per_s", "resident_bytes"});
  const Index query_rounds = 200000;
  Rng rng(4);
  std::vector<std::pair<Index, Index>> queries;
  queries.reserve(static_cast<std::size_t>(query_rounds));
  for (Index q = 0; q < query_rounds; ++q) {
    queries.emplace_back(rng.uniform(0, n), rng.uniform(0, n));
  }
  const auto bench_queries = [&](auto&& structure) {
    Timer t;
    Index sink = 0;
    for (const auto& [i, j] : queries) sink += structure.count(i, j);
    const double secs = t.seconds();
    // Keep the compiler honest about `sink`.
    if (sink < 0) std::abort();
    return static_cast<double>(query_rounds) / secs;
  };
  {
    Timer t;
    const MergesortTree ms(p);
    const double build = t.seconds();
    table.row()
        .cell("mergesort_tree")
        .cell(build, 4)
        .cell(bench_queries(ms), 0)
        .cell(static_cast<long long>(ms.stored_elements() * sizeof(std::int32_t)));
  }
  {
    Timer t;
    const WaveletTree wt(p);
    const double build = t.seconds();
    table.row()
        .cell("wavelet_tree")
        .cell(build, 4)
        .cell(bench_queries(wt), 0)
        .cell(static_cast<long long>(wt.resident_bytes()));
  }
  {
    // The flattened single-allocation variant the engine's QueryIndex uses.
    Timer t;
    const FlatWaveletTree flat(p);
    const double build = t.seconds();
    table.row()
        .cell("flat_wavelet_tree")
        .cell(build, 4)
        .cell(bench_queries(flat), 0)
        .cell(static_cast<long long>(flat.resident_bytes()));
  }
  {
    // The dense table is quadratic; benchmark it at a reduced size and
    // report per-query throughput only.
    const Index dense_n = std::min<Index>(n, 4096);
    const auto ps = Permutation::random(dense_n, 10);
    Timer t;
    const DensePrefixOracle dense(ps);
    const double build = t.seconds();
    std::vector<std::pair<Index, Index>> small;
    small.reserve(queries.size());
    for (const auto& [i, j] : queries) small.emplace_back(i % (dense_n + 1), j % (dense_n + 1));
    Timer tq;
    Index sink = 0;
    for (const auto& [i, j] : small) sink += dense.count(i, j);
    if (sink < 0) std::abort();
    table.row()
        .cell("dense_table(n=" + std::to_string(dense_n) + ")")
        .cell(build, 4)
        .cell(static_cast<double>(query_rounds) / tq.seconds(), 0)
        .cell(static_cast<long long>(static_cast<std::size_t>(dense_n + 1) *
                                     static_cast<std::size_t>(dense_n + 1) *
                                     sizeof(Index)));
  }
  emit(table, "ablation_query_structures",
       "A4: dominance-count query structures (kernel order " + std::to_string(n) + ")");
}

void ablation_alphabet_generalization() {
  // The paper's Section 6 open question: how does the bit-parallel combing
  // approach generalize beyond the binary alphabet, and how does it compare
  // with integer-SIMD combing and the carry-based baselines as the alphabet
  // grows? Planes = ceil(log2 alphabet).
  const Index n = scaled(60000);
  Table table({"alphabet", "planes", "bit_planes_s", "antidiag_SIMD_s", "crochemore_s",
               "bit_vs_simd"});
  for (const Symbol alphabet : {2, 4, 16, 64, 256}) {
    const auto a = uniform_sequence(n, alphabet, 1);
    const auto b = uniform_sequence(n, alphabet, 2);
    int planes = 0;
    while ((Symbol{1} << planes) < alphabet) ++planes;
    const double bits = median_seconds([&] {
      (void)lcs_bit_combing_alphabet(a, b, alphabet, false);
    });
    const double simd = median_seconds([&] {
      (void)comb_antidiag(a, b, {.branchless = true});
    });
    const double croch = median_seconds([&] { (void)lcs_bitparallel_crochemore(a, b); });
    table.row()
        .cell(static_cast<long long>(alphabet))
        .cell(static_cast<long long>(planes))
        .cell(bits, 4)
        .cell(simd, 4)
        .cell(croch, 4)
        .cell(simd / bits, 3);
  }
  emit(table, "ablation_alphabet",
       "A5: alphabet-generalized bit combing vs integer SIMD combing (length " +
           std::to_string(n) + ")");
}

void ablation_inner_loop() {
  // A6: inner-loop formulations of the branchless comber: bitwise select vs
  // the masked min/max form the paper predicts to be a perfect fit for
  // AVX-512. Both formulation legs force the scalar (autovectorized) tier so
  // this stays an ablation of the formulation; the third row is the
  // runtime-dispatched explicit kernel (core/comb_kernels.hpp).
  const Index n = scaled(24000);
  const auto a = rounded_normal_sequence(n, 1.0, 1);
  const auto b = rounded_normal_sequence(n, 1.0, 2);
  Table table({"formulation", "seconds", "relative"});
  const double select_t = median_seconds([&] {
    (void)comb_antidiag(a, b, {.branchless = true, .minmax = false,
                               .isa = KernelIsa::kScalar});
  });
  const double minmax_t = median_seconds([&] {
    (void)comb_antidiag(a, b, {.branchless = true, .minmax = true});
  });
  const double dispatched_t = median_seconds([&] {
    (void)comb_antidiag(a, b, {.branchless = true, .minmax = false});
  });
  table.row().cell("bitwise_select").cell(select_t, 4).cell(1.0, 3);
  table.row().cell("masked_minmax").cell(minmax_t, 4).cell(select_t / minmax_t, 3);
  table.row()
      .cell(std::string("dispatched_") + std::string(kernel_dispatch().name))
      .cell(dispatched_t, 4)
      .cell(select_t / dispatched_t, 3);
  emit(table, "ablation_inner_loop",
       "A6: branchless inner-loop formulation (length " + std::to_string(n) + ")");
}

void ablation_kernel_codec() {
  // A7: the block-compressed kernel format (v3) against a raw u32 payload
  // (raw_kernel_bytes), on the two extremes the store can see: a real LCS
  // kernel (its permutation is delta-friendly -- long runs track the
  // diagonal) and a uniformly random permutation (the incompressibility
  // floor, where only the bit-width cut below 32 helps). Bits/entry and the
  // ratio quantify the capacity win; encode/decode seconds bound the CPU
  // price the store pays per persist and per promotion.
  const Index len = scaled(20000);
  const auto a = uniform_sequence(len, 4, 31);
  const auto b = uniform_sequence(len, 4, 32);
  const SemiLocalKernel real = semi_local_kernel(a, b);
  const SemiLocalKernel random(Permutation::random(2 * len, 33), len, len);
  // Low-complexity self-comparison: on a short-period repeat the kernel
  // permutation hugs the diagonal in short local runs, and the per-block
  // delta mode (not the flat bit-width cut) carries the win. High-entropy
  // sequences -- even compared against themselves -- scatter the deltas, so
  // this row is the delta mode's best case, not its typical one.
  Sequence repeat;
  repeat.reserve(static_cast<std::size_t>(len));
  for (Index i = 0; i < len; ++i) {
    repeat.push_back(static_cast<Symbol>((i * 7 + i / 13) % 4));
  }
  const SemiLocalKernel repetitive = semi_local_kernel(repeat, repeat);
  Table table({"kernel", "encode_s", "decode_s", "bytes", "bits_per_entry",
               "ratio_vs_raw"});
  for (const auto& [label, kernel] :
       {std::pair<const char*, const SemiLocalKernel&>{"real_lcs", real},
        std::pair<const char*, const SemiLocalKernel&>{"repetitive_self", repetitive},
        std::pair<const char*, const SemiLocalKernel&>{"random_perm", random}}) {
    const double encode = median_seconds([&] { (void)encode_kernel_v3(kernel); });
    const std::string bytes = encode_kernel_v3(kernel);
    const double decode = median_seconds(
        [&] { (void)CompressedKernel::open(bytes, nullptr)->decode(); });
    table.row()
        .cell(label)
        .cell(encode, 4)
        .cell(decode, 4)
        .cell(static_cast<long long>(bytes.size()))
        .cell(8.0 * static_cast<double>(bytes.size()) / static_cast<double>(kernel.order()), 2)
        .cell(static_cast<double>(raw_kernel_bytes(kernel.order())) /
                  static_cast<double>(bytes.size()),
              2);
  }
  emit(table, "ablation_kernel_codec",
       "A7: kernel serialization codec (order " + std::to_string(2 * len) + ")");
}

}  // namespace

int main() {
  ablation_precalc_cutoff();
  ablation_strand_width();
  ablation_bit_variants();
  ablation_query_structures();
  ablation_alphabet_generalization();
  ablation_inner_loop();
  ablation_kernel_codec();
  return 0;
}
