// Property tests for the runtime-dispatched SIMD comb kernels
// (core/comb_kernels.hpp) and the zero-allocation Workspace path.
//
// Every dispatch variant must produce strand arrays bit-identical to the
// scalar tier, over randomized inputs covering both strand widths, vector
// tails, the m > n flip path, and the 16-bit / 32-bit strand boundary.
//
// This translation unit also replaces global operator new/delete with
// counting versions, which lets the allocation-hygiene tests assert that a
// warm Workspace serves repeated kernel computations with no steady-state
// scratch allocation (only the returned kernel objects allocate).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <limits>
#include <new>
#include <random>
#include <utility>
#include <vector>

#include "core/api.hpp"
#include "core/comb_kernels.hpp"
#include "core/workspace.hpp"
#include "oracles.hpp"
#include "util/parallel.hpp"
#include "util/random.hpp"

// ---------------------------------------------------------------------------
// Counting allocator hook. Linked into this test binary only.
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

// The deletes stay out of line: inlined into a caller, GCC would pair its
// free() with that caller's operator new and warn (-Wmismatched-new-delete).
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace semilocal {
namespace {

std::vector<KernelIsa> supported_isas() {
  std::vector<KernelIsa> out = {KernelIsa::kScalar};
  if (kernel_isa_supported(KernelIsa::kAvx2)) out.push_back(KernelIsa::kAvx2);
  if (kernel_isa_supported(KernelIsa::kAvx512)) out.push_back(KernelIsa::kAvx512);
  return out;
}

// ---------------------------------------------------------------------------
// Raw kernel functions against the scalar tier, elementwise.
// ---------------------------------------------------------------------------

template <typename StrandT>
void check_raw_kernel_matches_scalar(Index len, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  // Dense matches (small alphabet) so both blend arms are exercised.
  std::uniform_int_distribution<Symbol> sym(0, 3);
  std::uniform_int_distribution<std::uint32_t> strand(
      0, std::numeric_limits<StrandT>::max());
  std::vector<Symbol> a(static_cast<std::size_t>(len)), b(static_cast<std::size_t>(len));
  std::vector<StrandT> h(static_cast<std::size_t>(len)), v(static_cast<std::size_t>(len));
  for (auto& s : a) s = sym(rng);
  for (auto& s : b) s = sym(rng);
  for (auto& s : h) s = static_cast<StrandT>(strand(rng));
  for (auto& s : v) s = static_cast<StrandT>(strand(rng));

  std::vector<StrandT> h_ref = h, v_ref = v;
  kernel_table(KernelIsa::kScalar).get<StrandT>()(a.data(), b.data(), h_ref.data(),
                                                  v_ref.data(), len);
  for (const KernelIsa isa : supported_isas()) {
    std::vector<StrandT> h_got = h, v_got = v;
    kernel_table(isa).get<StrandT>()(a.data(), b.data(), h_got.data(), v_got.data(), len);
    EXPECT_EQ(h_got, h_ref) << "isa=" << static_cast<int>(isa) << " len=" << len
                            << " width=" << sizeof(StrandT) * 8;
    EXPECT_EQ(v_got, v_ref) << "isa=" << static_cast<int>(isa) << " len=" << len
                            << " width=" << sizeof(StrandT) * 8;
  }
}

TEST(CombKernels, RawKernelsMatchScalarOverLengthsAndSeeds) {
  // Lengths straddle every vector width and tail shape (8/16/32 lanes).
  for (const Index len : {0, 1, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 100, 1000}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      check_raw_kernel_matches_scalar<std::uint16_t>(len, seed * 1000 + len);
      check_raw_kernel_matches_scalar<std::uint32_t>(len, seed * 2000 + len);
    }
  }
}

TEST(CombKernels, DispatchReportsASupportedTier) {
  const CombKernelTable& t = kernel_dispatch();
  EXPECT_TRUE(kernel_isa_supported(t.isa));
  EXPECT_NE(t.u16, nullptr);
  EXPECT_NE(t.u32, nullptr);
  // kAuto resolves to the dispatched table; explicit tiers resolve to
  // themselves when supported.
  EXPECT_EQ(&resolve_kernels(KernelIsa::kAuto), &t);
  for (const KernelIsa isa : supported_isas()) {
    EXPECT_EQ(kernel_table(isa).isa, isa);
  }
}

// ---------------------------------------------------------------------------
// End-to-end: comb_antidiag with every forced tier vs the row-major oracle.
// ---------------------------------------------------------------------------

TEST(CombKernels, EndToEndEveryIsaMatchesRowMajor) {
  for (const auto& [m, n] : std::vector<std::pair<Index, Index>>{
           {1, 1}, {7, 33}, {64, 64}, {65, 190}, {150, 40} /* m > n flip path */}) {
    const auto a = testing::random_string(m, 4, m * 31 + n);
    const auto b = testing::random_string(n, 4, m * 37 + n + 1);
    const auto ref = comb_rowmajor(a, b);
    for (const KernelIsa isa : supported_isas()) {
      for (const bool parallel : {false, true}) {
        for (const bool allow_16bit : {false, true}) {
          const auto k = comb_antidiag(
              a, b, {.parallel = parallel, .allow_16bit = allow_16bit, .isa = isa});
          EXPECT_EQ(k.permutation(), ref.permutation())
              << "isa=" << static_cast<int>(isa) << " parallel=" << parallel
              << " allow_16bit=" << allow_16bit << " m=" << m << " n=" << n;
        }
      }
    }
  }
}

TEST(CombKernels, LoadBalancedEveryIsaMatchesRowMajor) {
  const auto a = testing::random_string(48, 4, 7);
  const auto b = testing::random_string(131, 4, 8);
  const auto ref = comb_rowmajor(a, b);
  for (const KernelIsa isa : supported_isas()) {
    const auto k = comb_load_balanced(a, b, {.isa = isa});
    EXPECT_EQ(k.permutation(), ref.permutation()) << "isa=" << static_cast<int>(isa);
  }
}

// The strand-width switch sits at m + n = 2^16: the last size served by
// 16-bit strands and the first that must fall back to 32-bit. A thin grid
// (small m) keeps the cell count tractable.
TEST(CombKernels, SixteenBitBoundaryIsBitExactAcrossIsas) {
  const Index m = 5;
  for (const Index n : {Index{65530}, Index{65531}}) {  // m + n = 2^16 - 1, 2^16
    const auto a = testing::random_string(m, 2, 900 + n);
    const auto b = testing::random_string(n, 2, 901 + n);
    const auto ref =
        comb_antidiag(a, b, {.allow_16bit = false, .isa = KernelIsa::kScalar});
    for (const KernelIsa isa : supported_isas()) {
      const auto k = comb_antidiag(a, b, {.allow_16bit = true, .isa = isa});
      EXPECT_EQ(k.permutation(), ref.permutation())
          << "isa=" << static_cast<int>(isa) << " n=" << n;
    }
  }
}

// ---------------------------------------------------------------------------
// Allocation hygiene: a warm Workspace must serve repeated kernel
// computations with zero scratch allocation. The returned kernel owns one
// heap block (its row->col array), built in-place and moved out; everything
// else must come from the workspace.
// ---------------------------------------------------------------------------

std::size_t allocations_during(const std::function<void()>& fn) {
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(CombKernels, WarmWorkspaceDoesZeroScratchAllocation) {
  const auto a = rounded_normal_sequence(600, 1.0, 21);
  const auto b = rounded_normal_sequence(800, 1.0, 22);
  Workspace ws;
  SemiLocalKernel k;
  const auto call = [&] { k = comb_antidiag(a, b, {}, &ws); };
  call();
  call();  // fully warm
  const std::size_t warm_growth = ws.growth_events();
  const std::size_t steady = allocations_during(call);
  EXPECT_EQ(ws.growth_events(), warm_growth) << "workspace grew at steady state";
  // Result permutation: one block for row->col, one inside from_row_to_col's
  // validation/inverse bookkeeping at most. Scratch would add tens more.
  EXPECT_LE(steady, 4u);
  // Sanity: the kernel is still correct when served from a warm workspace.
  EXPECT_EQ(k.permutation(), comb_rowmajor(a, b).permutation());
}

TEST(CombKernels, ColdCallAllocatesMoreThanWarmCall) {
  const auto a = rounded_normal_sequence(700, 1.0, 31);
  const auto b = rounded_normal_sequence(900, 1.0, 32);
  std::size_t cold;
  {
    Workspace ws;
    cold = allocations_during([&] { (void)comb_antidiag(a, b, {}, &ws); });
    const std::size_t warm = allocations_during([&] { (void)comb_antidiag(a, b, {}, &ws); });
    EXPECT_LT(warm, cold);
  }
}

TEST(CombKernels, LoadBalancedWarmWorkspaceStopsGrowing) {
  const auto a = rounded_normal_sequence(150, 1.0, 41);
  const auto b = rounded_normal_sequence(400, 1.0, 42);
  Workspace ws;
  (void)comb_load_balanced(a, b, {}, {.precalc = true, .preallocate = true}, &ws);
  (void)comb_load_balanced(a, b, {}, {.precalc = true, .preallocate = true}, &ws);
  const std::size_t warm_growth = ws.growth_events();
  (void)comb_load_balanced(a, b, {}, {.precalc = true, .preallocate = true}, &ws);
  EXPECT_EQ(ws.growth_events(), warm_growth);
}

// ---------------------------------------------------------------------------
// Batched entry point.
// ---------------------------------------------------------------------------

TEST(CombKernels, BatchMatchesPerCallKernels) {
  std::vector<Sequence> storage;
  std::vector<SequencePair> pairs;
  for (int i = 0; i < 12; ++i) {
    storage.push_back(testing::random_string(40 + i * 13, 4, 100 + i));
    storage.push_back(testing::random_string(90 + i * 7, 4, 200 + i));
  }
  for (std::size_t i = 0; i < storage.size(); i += 2) {
    pairs.push_back({storage[i], storage[i + 1]});
  }
  for (const bool parallel : {false, true}) {
    const auto kernels = semi_local_kernel_batch(pairs, {.parallel = parallel});
    ASSERT_EQ(kernels.size(), pairs.size());
    std::vector<Index> scores(pairs.size());
    lcs_semilocal_batch(pairs, scores, {.parallel = parallel});
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const auto ref = semi_local_kernel(pairs[i].a, pairs[i].b);
      EXPECT_EQ(kernels[i].permutation(), ref.permutation()) << "pair " << i;
      EXPECT_EQ(scores[i], testing::lcs_oracle(pairs[i].a, pairs[i].b)) << "pair " << i;
    }
  }
}

TEST(CombKernels, BatchSteadyStateAllocatesOnlyResults) {
  std::vector<Sequence> storage;
  std::vector<SequencePair> pairs;
  for (int i = 0; i < 8; ++i) {
    storage.push_back(rounded_normal_sequence(300, 1.0, 300 + i));
    storage.push_back(rounded_normal_sequence(500, 1.0, 400 + i));
  }
  for (std::size_t i = 0; i < storage.size(); i += 2) {
    pairs.push_back({storage[i], storage[i + 1]});
  }
  std::vector<Index> scores(pairs.size());
  const auto run = [&] { lcs_semilocal_batch(pairs, scores, {}); };
  run();
  run();  // warm the serial thread's tls workspace
  const std::size_t steady = allocations_during(run);
  // Per pair: the transient kernel's permutation block(s); no combing
  // scratch. Generous bound: 4 blocks per pair.
  EXPECT_LE(steady, pairs.size() * 4);
}

TEST(CombKernels, BatchRunsUnderManyThreads) {
  // Functional check that the one-region batched path is race-free with a
  // full thread team (the throughput claim itself lives in bench_micro).
  std::vector<Sequence> storage;
  std::vector<SequencePair> pairs;
  for (int i = 0; i < 32; ++i) {
    storage.push_back(testing::random_string(120, 4, 500 + i));
    storage.push_back(testing::random_string(240, 4, 600 + i));
  }
  for (std::size_t i = 0; i < storage.size(); i += 2) {
    pairs.push_back({storage[i], storage[i + 1]});
  }
  ThreadScope threads(4);
  const auto kernels = semi_local_kernel_batch(pairs, {.parallel = true});
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(kernels[i].permutation(),
              comb_rowmajor(pairs[i].a, pairs[i].b).permutation())
        << "pair " << i;
  }
}

}  // namespace
}  // namespace semilocal
