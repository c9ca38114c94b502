// Option-matrix coverage: configuration corners not exercised by the main
// cross-validation sweeps (branching leaves inside hybrid, disabled ant
// optimizations in composing strategies, wavelet-backed quadrant queries at
// scale, strategy-name mapping).
#include <gtest/gtest.h>

#include "core/api.hpp"
#include "core/query_index.hpp"
#include "lcs/dp.hpp"
#include "oracles.hpp"
#include "util/random.hpp"

namespace semilocal {
namespace {

TEST(OptionsMatrix, HybridWithBranchingLeaves) {
  const auto a = rounded_normal_sequence(200, 1.0, 1);
  const auto b = rounded_normal_sequence(300, 1.0, 2);
  const auto ref = comb_rowmajor(a, b);
  const HybridOptions opts{
      .depth = 2,
      .parallel = false,
      .comb = {.branchless = false, .parallel = false, .allow_16bit = false},
      .ant = {.precalc = false, .preallocate = false}};
  EXPECT_EQ(hybrid_combing(a, b, opts).permutation(), ref.permutation());
  EXPECT_EQ(hybrid_tiled_combing(a, b, 3, 2, opts).permutation(), ref.permutation());
}

TEST(OptionsMatrix, HybridWithMinMaxLeaves) {
  const auto a = rounded_normal_sequence(150, 2.0, 3);
  const auto b = rounded_normal_sequence(220, 2.0, 4);
  const auto ref = comb_rowmajor(a, b);
  const HybridOptions opts{.depth = 2,
                           .parallel = true,
                           .comb = {.branchless = true, .minmax = true},
                           .ant = {.precalc = true, .preallocate = true}};
  EXPECT_EQ(hybrid_tiled_combing(a, b, 0, 0, opts).permutation(), ref.permutation());
}

TEST(OptionsMatrix, RecursiveWithUnoptimizedAnt) {
  const auto a = uniform_sequence(60, 3, 5);
  const auto b = uniform_sequence(45, 3, 6);
  const auto ref = comb_rowmajor(a, b);
  EXPECT_EQ(recursive_combing(a, b, {.precalc = false, .preallocate = false})
                .permutation(),
            ref.permutation());
  EXPECT_EQ(recursive_combing(a, b, {.precalc = true, .preallocate = false})
                .permutation(),
            ref.permutation());
  EXPECT_EQ(recursive_combing(a, b, {.precalc = false, .preallocate = true})
                .permutation(),
            ref.permutation());
}

TEST(OptionsMatrix, LoadBalancedWithCustomAntOptions) {
  const auto a = uniform_sequence(90, 4, 7);
  const auto b = uniform_sequence(120, 4, 8);
  const auto ref = comb_rowmajor(a, b);
  for (const auto& ant :
       {SteadyAntOptions{}, SteadyAntOptions{.precalc = true},
        SteadyAntOptions{.precalc = true, .preallocate = true, .parallel_depth = 2}}) {
    EXPECT_EQ(comb_load_balanced(a, b, {}, ant).permutation(), ref.permutation());
  }
}

TEST(OptionsMatrix, StrategyNamesAreStable) {
  EXPECT_EQ(strategy_name(Strategy::kRowMajor), "semi_rowmajor");
  EXPECT_EQ(strategy_name(Strategy::kAntidiag), "semi_antidiag");
  EXPECT_EQ(strategy_name(Strategy::kAntidiagSimd), "semi_antidiag_SIMD");
  EXPECT_EQ(strategy_name(Strategy::kLoadBalanced), "semi_load_balanced");
  EXPECT_EQ(strategy_name(Strategy::kRecursive), "semi_recursive");
  EXPECT_EQ(strategy_name(Strategy::kHybrid), "semi_hybrid");
  EXPECT_EQ(strategy_name(Strategy::kHybridTiled), "semi_hybrid_iterative");
}

TEST(OptionsMatrix, WaveletBackedQuadrantsAtScale) {
  const auto a = rounded_normal_sequence(2000, 1.0, 9);
  const auto b = rounded_normal_sequence(2600, 1.0, 10);
  const auto kernel = semi_local_kernel(a, b);
  const QueryIndex wavelet(kernel);
  // Spot-check all four quadrants of the wavelet-backed index against the
  // kernel's own scan.
  for (Index step = 97; step < 2000; step += 501) {
    EXPECT_EQ(wavelet.string_substring(step, step + 500),
              kernel.string_substring(step, step + 500));
    EXPECT_EQ(wavelet.substring_string(step / 2, step), kernel.substring_string(step / 2, step));
    EXPECT_EQ(wavelet.prefix_suffix(step, step), kernel.prefix_suffix(step, step));
    EXPECT_EQ(wavelet.suffix_prefix(step, step), kernel.suffix_prefix(step, step));
  }
  EXPECT_EQ(wavelet.lcs(), lcs_score_dp(a, b));
}

TEST(OptionsMatrix, SixteenBitBoundaryExactlyAtLimit) {
  // m + n just below / at the 16-bit strand limit must agree.
  const Index m = 400;
  const Index n = (Index{1} << 16) - m - 1;  // m + n == 65535 < 2^16
  const auto a = binary_sequence(m, 11);
  const auto b = binary_sequence(n, 12);
  const auto k16 = comb_antidiag(a, b, {.allow_16bit = true});
  const auto k32 = comb_antidiag(a, b, {.allow_16bit = false});
  EXPECT_EQ(k16.permutation(), k32.permutation());
  EXPECT_EQ(k16.lcs(), lcs_score_dp(a, b));
}

}  // namespace
}  // namespace semilocal
