// Cross-validation of every semi-local combing strategy against the
// row-major reference (itself validated against the H-matrix definition in
// test_kernel.cpp).
#include <gtest/gtest.h>

#include <tuple>

#include "core/api.hpp"
#include "oracles.hpp"
#include "util/fasta.hpp"
#include "util/random.hpp"

namespace semilocal {
namespace {

const std::vector<Strategy> kAllStrategies = {
    Strategy::kRowMajor,   Strategy::kAntidiag, Strategy::kAntidiagSimd,
    Strategy::kLoadBalanced, Strategy::kRecursive, Strategy::kHybrid,
    Strategy::kHybridTiled,
};

class CombingCross
    : public ::testing::TestWithParam<std::tuple<Index, Index, Symbol, std::uint64_t>> {};

TEST_P(CombingCross, AllStrategiesProduceTheSameKernel) {
  const auto [m, n, alphabet, seed] = GetParam();
  const auto a = testing::random_string(m, alphabet, seed * 17 + 1);
  const auto b = testing::random_string(n, alphabet, seed * 17 + 2);
  const auto reference = semi_local_kernel(a, b, {.strategy = Strategy::kRowMajor});
  for (const Strategy s : kAllStrategies) {
    for (const bool parallel : {false, true}) {
      const auto kernel =
          semi_local_kernel(a, b, {.strategy = s, .parallel = parallel, .depth = 2});
      EXPECT_EQ(kernel.permutation(), reference.permutation())
          << strategy_name(s) << (parallel ? " (parallel)" : " (serial)") << " m=" << m
          << " n=" << n;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CombingCross,
    ::testing::Combine(::testing::Values<Index>(1, 2, 3, 7, 16, 33, 64),
                       ::testing::Values<Index>(1, 4, 8, 31, 65),
                       ::testing::Values<Symbol>(2, 6),
                       ::testing::Values<std::uint64_t>(1, 2)));

TEST(Combing, SixteenBitAndThirtyTwoBitStrandsAgree) {
  const auto a = rounded_normal_sequence(700, 1.5, 41);
  const auto b = rounded_normal_sequence(900, 1.5, 42);
  const auto k16 = comb_antidiag(a, b, {.branchless = true, .allow_16bit = true});
  const auto k32 = comb_antidiag(a, b, {.branchless = true, .allow_16bit = false});
  EXPECT_EQ(k16.permutation(), k32.permutation());
}

TEST(Combing, WideVersusTallInputs) {
  // m > n exercises the flip path of the anti-diagonal variants.
  const auto a = testing::random_string(120, 4, 51);
  const auto b = testing::random_string(30, 4, 52);
  const auto ref = comb_rowmajor(a, b);
  EXPECT_EQ(comb_antidiag(a, b).permutation(), ref.permutation());
  EXPECT_EQ(comb_load_balanced(a, b).permutation(), ref.permutation());
}

TEST(Combing, EqualLengthInputs) {
  const auto a = testing::random_string(64, 2, 61);
  const auto b = testing::random_string(64, 2, 62);
  const auto ref = comb_rowmajor(a, b);
  for (const Strategy s : kAllStrategies) {
    EXPECT_EQ(semi_local_kernel(a, b, {.strategy = s}).permutation(), ref.permutation())
        << strategy_name(s);
  }
}

TEST(Combing, HybridDepthSweepAllAgree) {
  const auto a = rounded_normal_sequence(300, 1.0, 71);
  const auto b = rounded_normal_sequence(450, 1.0, 72);
  const auto ref = comb_antidiag(a, b);
  for (int depth = 0; depth <= 5; ++depth) {
    const auto k = hybrid_combing(a, b, {.depth = depth, .parallel = (depth % 2 == 0)});
    EXPECT_EQ(k.permutation(), ref.permutation()) << "depth=" << depth;
  }
}

TEST(Combing, HybridTiledExplicitGrids) {
  const auto a = rounded_normal_sequence(200, 2.0, 81);
  const auto b = rounded_normal_sequence(330, 2.0, 82);
  const auto ref = comb_antidiag(a, b);
  for (const auto& [mo, no] : std::vector<std::pair<Index, Index>>{{1, 1}, {1, 4}, {4, 1}, {2, 3}, {5, 5}, {8, 8}}) {
    const auto k = hybrid_tiled_combing(a, b, mo, no, {.parallel = true});
    EXPECT_EQ(k.permutation(), ref.permutation()) << "grid " << mo << "x" << no;
  }
}

TEST(Combing, OptimalSplitProvidesEnoughTiles) {
  const auto [mo, no] = optimal_split(100000, 200000, 8, true);
  EXPECT_GE(mo * no, 8);
  EXPECT_LT((100000 + mo - 1) / mo + (200000 + no - 1) / no, Index{1} << 16);
  const auto [mo1, no1] = optimal_split(10, 10, 1, false);
  EXPECT_EQ(mo1 * no1, 1);
}

TEST(Combing, RecursiveMatchesOnSingleCharacters) {
  EXPECT_EQ(recursive_combing(to_sequence("A"), to_sequence("A")).permutation(),
            Permutation::identity(2));
  EXPECT_EQ(recursive_combing(to_sequence("A"), to_sequence("B")).permutation(),
            Permutation::reversal(2));
}

TEST(Combing, LcsSemilocalAgreesWithOracleOnGenomes) {
  GenomeModel model;
  model.length = 300;
  MutationModel mut;
  const auto [ra, rb] = generate_genome_pair(model, mut, 91);
  const auto a = pack_dna(ra.residues);
  const auto b = pack_dna(rb.residues);
  const Index expected = testing::lcs_oracle(a, b);
  for (const Strategy s : kAllStrategies) {
    EXPECT_EQ(lcs_semilocal(a, b, {.strategy = s}), expected) << strategy_name(s);
  }
}


TEST(Combing, MinMaxFormulationAgrees) {
  // The AVX-512 min/max inner loop (paper Section 6) must produce the same
  // kernel as the bitwise-select formulation.
  for (const auto& [m, n] : std::vector<std::pair<Index, Index>>{{64, 64}, {100, 333}, {500, 200}}) {
    const auto a = rounded_normal_sequence(m, 1.0, 97);
    const auto b = rounded_normal_sequence(n, 1.0, 98);
    const auto ref = comb_antidiag(a, b, {.branchless = true, .minmax = false});
    for (const bool parallel : {false, true}) {
      const auto k = comb_antidiag(a, b, {.branchless = true, .parallel = parallel,
                                          .minmax = true});
      EXPECT_EQ(k.permutation(), ref.permutation()) << m << "x" << n << " parallel=" << parallel;
    }
  }
}

// ---------------------------------------------------------------------------
// The serial sweep combs in row strips of at most kCombStripRows rows; every
// shape below straddles a strip boundary and must match the row-major comb
// bit for bit.

constexpr Index kStrip = kCombStripRows;

struct StripShape {
  Index m;
  Index n;
};

void PrintTo(const StripShape& shape, std::ostream* os) { *os << shape.m << "x" << shape.n; }

class StripSweep : public ::testing::TestWithParam<StripShape> {};

// Every inner-loop formulation, every forced kernel tier and both strand
// widths, serial and parallel.
TEST_P(StripSweep, EveryModeTierAndWidthMatchesRowMajor) {
  const auto [m, n] = GetParam();
  const auto a = testing::random_string(m, 4, static_cast<std::uint64_t>(m) * 3 + 1);
  const auto b = testing::random_string(n, 4, static_cast<std::uint64_t>(n) * 3 + 2);
  const auto reference = comb_rowmajor(a, b).permutation();
  for (const bool allow_16bit : {true, false}) {
    for (const KernelIsa isa : {KernelIsa::kScalar, KernelIsa::kAvx2, KernelIsa::kAvx512}) {
      EXPECT_EQ(comb_antidiag(a, b, {.allow_16bit = allow_16bit, .isa = isa}).permutation(),
                reference)
          << m << "x" << n << " isa " << static_cast<int>(isa) << " 16-bit " << allow_16bit;
    }
    for (const bool parallel : {false, true}) {
      const auto branching =
          comb_antidiag(a, b, {.branchless = false, .parallel = parallel, .allow_16bit = allow_16bit});
      EXPECT_EQ(branching.permutation(), reference)
          << m << "x" << n << " branching, parallel " << parallel << " 16-bit " << allow_16bit;
      const auto minmax = comb_antidiag(
          a, b, {.parallel = parallel, .allow_16bit = allow_16bit, .minmax = true});
      EXPECT_EQ(minmax.permutation(), reference)
          << m << "x" << n << " minmax, parallel " << parallel << " 16-bit " << allow_16bit;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    StraddleStripHeight, StripSweep,
    ::testing::Values(StripShape{kStrip - 1, kStrip + 40}, StripShape{kStrip, kStrip},
                      StripShape{kStrip + 1, kStrip + 3}, StripShape{2 * kStrip + 1, 2 * kStrip + 1},
                      StripShape{3 * kStrip + 7, 3 * kStrip + 20},
                      // m > n: the flip combs b's rows in strips.
                      StripShape{2 * kStrip + 1, kStrip + 1},
                      StripShape{3 * kStrip + 7, 2 * kStrip + 1}),
    [](const ::testing::TestParamInfo<StripShape>& info) {
      return ::testing::PrintToString(info.param);
    });

// The last 16-bit shape (m + n = 65535) and the first 32-bit one (65536),
// each over a few strips, on every forced kernel tier.
TEST(Combing, StripsAtTheStrandWidthBoundary) {
  const Index m = kStrip + 1;
  const auto a = testing::random_string(m, 4, 1601);
  for (const Index n : {65535 - m, 65536 - m}) {
    const auto b = testing::random_string(n, 4, 1602);
    const auto reference = comb_rowmajor(a, b);
    const auto flipped = reference.flipped().permutation();
    for (const KernelIsa isa : {KernelIsa::kScalar, KernelIsa::kAvx2, KernelIsa::kAvx512}) {
      EXPECT_EQ(comb_antidiag(a, b, {.isa = isa}).permutation(), reference.permutation())
          << "m + n = " << m + n << " isa " << static_cast<int>(isa);
      EXPECT_EQ(comb_antidiag(b, a, {.isa = isa}).permutation(), flipped)
          << "b against a, m + n = " << m + n << " isa " << static_cast<int>(isa);
    }
  }
}

// The batch entry point combs each pair serially, so in strips too.
TEST(Combing, BatchCombsInStripsLikeSingleCalls) {
  std::vector<Sequence> storage;
  for (const auto& [m, n] : std::vector<std::pair<Index, Index>>{
           {kStrip + 1, kStrip + 9}, {2 * kStrip + 1, kStrip + 5}, {kStrip - 1, 3 * kStrip}}) {
    storage.push_back(testing::random_string(m, 3, static_cast<std::uint64_t>(m) + 11));
    storage.push_back(testing::random_string(n, 3, static_cast<std::uint64_t>(n) + 12));
  }
  std::vector<SequencePair> pairs;
  for (std::size_t i = 0; i < storage.size(); i += 2) pairs.push_back({storage[i], storage[i + 1]});
  for (const bool parallel : {false, true}) {
    const auto kernels = semi_local_kernel_batch(pairs, {.parallel = parallel});
    ASSERT_EQ(kernels.size(), pairs.size());
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      EXPECT_EQ(kernels[i].permutation(), comb_rowmajor(pairs[i].a, pairs[i].b).permutation())
          << "pair " << i << " parallel " << parallel;
    }
  }
}

}  // namespace
}  // namespace semilocal
