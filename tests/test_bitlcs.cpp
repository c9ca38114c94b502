#include "bitlcs/bitwise_combing.hpp"

#include <gtest/gtest.h>

#include <tuple>

#include "bitlcs/encoding.hpp"
#include "lcs/bitparallel.hpp"
#include "lcs/dp.hpp"
#include "util/random.hpp"

namespace semilocal {
namespace {

const std::vector<BitVariant> kVariants = {BitVariant::kOld, BitVariant::kBlocked,
                                           BitVariant::kOptimized,
                                           BitVariant::kInterleaved};

TEST(BinaryEncoding, PacksReversedAndForward) {
  // a = 1000 reversed per-position: slot s holds a[m-1-s] -> bits 0001.
  const auto e = encode_binary_pair(Sequence{1, 0, 0, 0}, Sequence{0, 1, 0, 0});
  EXPECT_EQ(e.m, 4);
  EXPECT_EQ(e.n, 4);
  EXPECT_EQ(e.mw, 1);
  EXPECT_EQ(e.a_rev[0], Word{0b1000});
  EXPECT_EQ(e.b_fwd[0], Word{0b0010});
  EXPECT_EQ(e.a_valid[0], Word{0b1111});
  EXPECT_EQ(e.b_valid[0], Word{0b1111});
  EXPECT_EQ(e.a_rev_neg[0], ~Word{0b1000});
}

TEST(BinaryEncoding, RejectsNonBinary) {
  EXPECT_THROW(encode_binary_pair(Sequence{0, 2}, Sequence{0, 1}), std::invalid_argument);
  EXPECT_THROW(encode_binary_pair(Sequence{0, 1}, Sequence{-1}), std::invalid_argument);
}

TEST(BitCombing, PaperWorkedExample) {
  // Section 4.4 example: a = "1000", b = "0100"; LCS = 3.
  const Sequence a = {1, 0, 0, 0};
  const Sequence b = {0, 1, 0, 0};
  const Index expected = lcs_score_dp(a, b);
  for (const BitVariant v : kVariants) {
    EXPECT_EQ(lcs_bit_combing(a, b, v), expected);
  }
}

class BitCombingCross
    : public ::testing::TestWithParam<std::tuple<Index, Index, double, std::uint64_t>> {};

TEST_P(BitCombingCross, AllVariantsMatchDp) {
  const auto [m, n, density, seed] = GetParam();
  const auto a = binary_sequence(m, seed * 23 + 1, density);
  const auto b = binary_sequence(n, seed * 23 + 2, density);
  const Index expected = lcs_score_dp(a, b);
  for (const BitVariant v : kVariants) {
    for (const bool parallel : {false, true}) {
      EXPECT_EQ(lcs_bit_combing(a, b, v, parallel), expected)
          << "variant=" << static_cast<int>(v) << " parallel=" << parallel << " m=" << m
          << " n=" << n;
    }
  }
}

// Lengths straddle the 64-bit word boundaries to exercise padding.
INSTANTIATE_TEST_SUITE_P(
    Sweep, BitCombingCross,
    ::testing::Combine(::testing::Values<Index>(1, 7, 63, 64, 65, 128, 200, 321),
                       ::testing::Values<Index>(1, 64, 100, 129, 256),
                       ::testing::Values(0.5, 0.1),
                       ::testing::Values<std::uint64_t>(1, 2)));

TEST(BitCombing, LongStringsMatchDp) {
  const auto a = binary_sequence(5000, 5, 0.5);
  const auto b = binary_sequence(4321, 6, 0.5);
  const Index expected = lcs_score_dp(a, b);
  for (const BitVariant v : kVariants) {
    EXPECT_EQ(lcs_bit_combing(a, b, v, true), expected);
  }
}

TEST(BitCombing, DegenerateInputs) {
  EXPECT_EQ(lcs_bit_combing(Sequence{}, Sequence{1, 0}), 0);
  EXPECT_EQ(lcs_bit_combing(Sequence{1}, Sequence{}), 0);
  EXPECT_EQ(lcs_bit_combing(Sequence{1}, Sequence{1}), 1);
  EXPECT_EQ(lcs_bit_combing(Sequence{1}, Sequence{0}), 0);
  const Sequence ones(300, 1);
  EXPECT_EQ(lcs_bit_combing(ones, ones), 300);
  const Sequence zeros(300, 0);
  EXPECT_EQ(lcs_bit_combing(ones, zeros), 0);
}

TEST(BitCombing, AsymmetricLengths) {
  // m > n triggers the internal swap.
  const auto a = binary_sequence(500, 9, 0.5);
  const auto b = binary_sequence(70, 10, 0.5);
  const Index expected = lcs_score_dp(a, b);
  for (const BitVariant v : kVariants) {
    EXPECT_EQ(lcs_bit_combing(a, b, v), expected);
  }
}

TEST(BitCombing, ThrowsOnNonBinary) {
  EXPECT_THROW(lcs_bit_combing(Sequence{0, 1, 2}, Sequence{0, 1}), std::invalid_argument);
}


// --- Alphabet-generalized bit combing (paper Section 6 future work) ---------

class PlaneCombing
    : public ::testing::TestWithParam<std::tuple<Index, Index, Symbol, std::uint64_t>> {};

TEST_P(PlaneCombing, MatchesDpForSmallAlphabets) {
  const auto [m, n, alphabet, seed] = GetParam();
  const auto a = uniform_sequence(m, alphabet, seed * 31 + 1);
  const auto b = uniform_sequence(n, alphabet, seed * 31 + 2);
  const Index expected = lcs_score_dp(a, b);
  EXPECT_EQ(lcs_bit_combing_alphabet(a, b, alphabet, false), expected);
  EXPECT_EQ(lcs_bit_combing_alphabet(a, b, alphabet, true), expected);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PlaneCombing,
    ::testing::Combine(::testing::Values<Index>(1, 63, 65, 200, 300),
                       ::testing::Values<Index>(1, 64, 257),
                       ::testing::Values<Symbol>(2, 3, 4, 5, 16, 26),
                       ::testing::Values<std::uint64_t>(1, 2)));

TEST(PlaneCombing, BinaryCaseAgreesWithSpecializedKernel) {
  const auto a = binary_sequence(700, 1, 0.5);
  const auto b = binary_sequence(900, 2, 0.5);
  EXPECT_EQ(lcs_bit_combing_alphabet(a, b, 2),
            lcs_bit_combing(a, b, BitVariant::kOptimized));
}

TEST(PlaneCombing, DnaAlphabetLongStrings) {
  const auto a = uniform_sequence(4000, 4, 3);
  const auto b = uniform_sequence(3500, 4, 4);
  EXPECT_EQ(lcs_bit_combing_alphabet(a, b, 4, true), lcs_score_dp(a, b));
}

TEST(PlaneCombing, ValidatesArguments) {
  EXPECT_THROW((void)lcs_bit_combing_alphabet(Sequence{0, 5}, Sequence{0, 1}, 4),
               std::invalid_argument);
  EXPECT_THROW((void)lcs_bit_combing_alphabet(Sequence{0}, Sequence{0}, 1),
               std::invalid_argument);
  EXPECT_THROW((void)encode_plane_pair(Sequence{0}, Sequence{0}, 1 << 20),
               std::invalid_argument);
  EXPECT_EQ(lcs_bit_combing_alphabet(Sequence{}, Sequence{0}, 4), 0);
}

// --- The compile-time plane kernel against three independent oracles --------

/// Scores (a, b) with the plane kernel, serial and parallel, and checks both
/// against the DP, Hyyro's and Crochemore's bit-vector LCS.
void expect_plane_kernel_matches_oracles(SequenceView a, SequenceView b, Symbol alphabet) {
  const Index expected = lcs_score_dp(a, b);
  ASSERT_EQ(lcs_bitparallel_hyyro(a, b), expected);
  ASSERT_EQ(lcs_bitparallel_crochemore(a, b), expected);
  for (const bool parallel : {false, true}) {
    EXPECT_EQ(lcs_bit_combing_alphabet(a, b, alphabet, parallel), expected)
        << "alphabet=" << alphabet << " parallel=" << parallel << " m=" << a.size()
        << " n=" << b.size();
  }
}

class PlaneKernel : public ::testing::TestWithParam<int> {};

TEST_P(PlaneKernel, WordBoundaryLengthsMatchOracles) {
  const int planes = GetParam();
  // The largest and the smallest alphabet that need exactly `planes` planes.
  for (const Symbol alphabet : {Symbol{1} << planes, (Symbol{1} << (planes - 1)) + 1}) {
    if (alphabet < 2) continue;
    std::uint64_t seed = 1;
    for (const Index m : {0, 1, 63, 64, 65, 127, 128}) {
      for (const Index n : {0, 1, 63, 64, 65, 127, 128}) {
        const auto a = uniform_sequence(m, alphabet, seed++);
        const auto b = uniform_sequence(n, alphabet, seed++);
        expect_plane_kernel_matches_oracles(a, b, alphabet);
      }
    }
  }
}

TEST_P(PlaneKernel, LongUnequalPairsMatchOracles) {
  const int planes = GetParam();
  const Symbol alphabet = Symbol{1} << planes;
  const auto a = uniform_sequence(3001, alphabet, 100 + planes);
  const auto shorter = uniform_sequence(2873, alphabet, 200 + planes);
  const auto longer = uniform_sequence(3170, alphabet, 300 + planes);
  expect_plane_kernel_matches_oracles(a, shorter, alphabet);  // a longer than b
  expect_plane_kernel_matches_oracles(a, longer, alphabet);   // a shorter than b
}

INSTANTIATE_TEST_SUITE_P(EveryPlaneCount, PlaneKernel, ::testing::Range(1, kMaxPlanes + 1));

TEST(PlaneKernel, RejectsAlphabetsBeyondEightPlanes) {
  EXPECT_THROW((void)lcs_bit_combing_alphabet(Sequence{0}, Sequence{0}, 257),
               std::invalid_argument);
}

// --- Dense remap: any symbol set onto [0, k) ---------------------------------

TEST(DenseRemap, CodesFollowFirstAppearance) {
  const DensePair d = dense_remap(Sequence{7, 200, 7, -3}, Sequence{200, 1 << 20, 7});
  EXPECT_EQ(d.a, (Sequence{0, 1, 0, 2}));
  EXPECT_EQ(d.b, (Sequence{1, 3, 0}));
  EXPECT_EQ(d.alphabet, 4);
  EXPECT_EQ(dense_remap(Sequence{}, Sequence{}).alphabet, 0);
}

TEST(DenseRemap, SparseSymbolSetRunsOnOnePlane) {
  // Symbols {7, 200}: 8 planes raw, one after the remap.
  Sequence a = binary_sequence(700, 31, 0.5);
  Sequence b = binary_sequence(650, 32, 0.5);
  for (Symbol& s : a) s = s != 0 ? 200 : 7;
  for (Symbol& s : b) s = s != 0 ? 200 : 7;
  const DensePair d = dense_remap(a, b);
  ASSERT_EQ(d.alphabet, 2);
  expect_plane_kernel_matches_oracles(d.a, d.b, d.alphabet);
  EXPECT_EQ(lcs_bit_combing_alphabet(d.a, d.b, d.alphabet), lcs_score_dp(a, b));
}

TEST(DenseRemap, AllByteValuesRunOnEightPlanes) {
  Sequence a(256);
  for (Symbol s = 0; s < 256; ++s) a[static_cast<std::size_t>(s)] = 255 - s;
  const auto tail = uniform_sequence(1500, 256, 41);
  a.insert(a.end(), tail.begin(), tail.end());
  const auto b = uniform_sequence(1700, 256, 42);
  const DensePair d = dense_remap(a, b);
  ASSERT_EQ(d.alphabet, 256);
  expect_plane_kernel_matches_oracles(d.a, d.b, d.alphabet);
  EXPECT_EQ(lcs_bit_combing_alphabet(d.a, d.b, d.alphabet), lcs_score_dp(a, b));
}

}  // namespace
}  // namespace semilocal
