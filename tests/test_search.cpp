#include <gtest/gtest.h>

#include "lcs/dp.hpp"
#include "oracles.hpp"
#include "search/multi_pattern.hpp"
#include "util/random.hpp"

namespace semilocal {
namespace {

TEST(MultiPattern, FindsPlantedPatterns) {
  constexpr Symbol kAlphabet = 6;
  Sequence text = uniform_sequence(3000, kAlphabet, 1);
  std::vector<Sequence> patterns;
  std::vector<Index> sites = {200, 1200, 2400};
  for (std::size_t p = 0; p < sites.size(); ++p) {
    auto pattern = uniform_sequence(100, kAlphabet, 10 + p);
    std::copy(pattern.begin(), pattern.end(),
              text.begin() + static_cast<std::ptrdiff_t>(sites[p]));
    patterns.push_back(std::move(pattern));
  }
  const MultiPatternIndex index(patterns, text);
  EXPECT_EQ(index.pattern_count(), 3);
  EXPECT_EQ(index.text_length(), 3000);
  const auto best = index.best_matches(/*width_slack_pct=*/0);
  ASSERT_EQ(best.size(), 3u);
  for (std::size_t p = 0; p < sites.size(); ++p) {
    EXPECT_EQ(best[p].pattern_id, static_cast<Index>(p));
    EXPECT_EQ(best[p].start, sites[p]) << "pattern " << p;
    EXPECT_DOUBLE_EQ(best[p].identity, 1.0);
  }
}

TEST(MultiPattern, ScoresMatchKernelQueries) {
  const auto text = uniform_sequence(500, 4, 2);
  std::vector<Sequence> patterns = {uniform_sequence(40, 4, 3), uniform_sequence(60, 4, 4)};
  const MultiPatternIndex index(patterns, text, {}, /*parallel_build=*/false);
  for (Index p = 0; p < 2; ++p) {
    const auto& kernel = index.kernel(p);
    EXPECT_EQ(kernel.m(), static_cast<Index>(index.pattern(p).size()));
    EXPECT_EQ(kernel.string_substring(0, 100),
              testing::lcs_oracle(index.pattern(p), SequenceView{text}.subspan(0, 100)));
  }
}

TEST(MultiPattern, FindAllReportsNonOverlappingHitsInOrder) {
  constexpr Symbol kAlphabet = 8;
  Sequence text = uniform_sequence(2000, kAlphabet, 5);
  auto pattern = uniform_sequence(80, kAlphabet, 6);
  for (const Index site : {100, 700, 1500}) {
    std::copy(pattern.begin(), pattern.end(),
              text.begin() + static_cast<std::ptrdiff_t>(site));
  }
  const MultiPatternIndex index({pattern}, text);
  const auto hits = index.find_all(/*min_identity=*/0.95, /*stride=*/1,
                                   /*width_slack_pct=*/0);
  ASSERT_EQ(hits.size(), 3u);
  EXPECT_EQ(hits[0].start, 100);
  EXPECT_EQ(hits[1].start, 700);
  EXPECT_EQ(hits[2].start, 1500);
  for (std::size_t h = 0; h + 1 < hits.size(); ++h) {
    EXPECT_LE(hits[h].end, hits[h + 1].start);
  }
}

TEST(MultiPattern, FindAllValidatesArguments) {
  const MultiPatternIndex index({uniform_sequence(10, 4, 1)}, uniform_sequence(50, 4, 2));
  EXPECT_THROW((void)index.find_all(0.5, 0), std::invalid_argument);
  EXPECT_THROW((void)index.find_all(1.5, 1), std::invalid_argument);
}

}  // namespace
}  // namespace semilocal
