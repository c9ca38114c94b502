// Approximate pattern matching via string-substring semi-local LCS.
//
//   build/examples/approximate_match [text_length] [pattern_length]
//
// Plants mutated copies of a pattern inside random text, then finds them
// with ONE semi-local kernel computation: the string-substring quadrant
// gives LCS(pattern, text[j0, j1)) for every window, so the best match ends
// at the column maximising H(m + j0, j1) over j0. This is the classical
// Sellers/Landau-Vishkin style task solved through the sticky-braid kernel.
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <vector>

#include "core/api.hpp"
#include "core/query_index.hpp"
#include "lcs/dp.hpp"
#include "util/random.hpp"
#include "util/timer.hpp"

using namespace semilocal;

int main(int argc, char** argv) {
  const Index text_length = argc > 1 ? std::atoll(argv[1]) : 20000;
  const Index pattern_length = argc > 2 ? std::atoll(argv[2]) : 200;
  constexpr Symbol kAlphabet = 4;

  // 1. Random text with three mutated plants of the pattern.
  const Sequence pattern = uniform_sequence(pattern_length, kAlphabet, 7);
  Sequence text = uniform_sequence(text_length, kAlphabet, 8);
  std::vector<Index> plant_sites;
  Rng rng(9);
  for (int copy = 0; copy < 3; ++copy) {
    const Sequence mutated =
        mutate_sequence(pattern, /*sub_rate=*/0.1, /*indels=*/pattern_length / 20,
                        kAlphabet, 10 + static_cast<std::uint64_t>(copy));
    // Resample until the plant does not overlap an earlier one.
    Index site = 0;
    for (int attempt = 0; attempt < 1000; ++attempt) {
      site = rng.uniform(0, text_length - static_cast<Index>(mutated.size()) - 1);
      bool clear = true;
      for (const Index prev : plant_sites) {
        if (std::abs(prev - site) < 2 * pattern_length) clear = false;
      }
      if (clear) break;
    }
    std::copy(mutated.begin(), mutated.end(),
              text.begin() + static_cast<std::ptrdiff_t>(site));
    plant_sites.push_back(site);
  }
  std::sort(plant_sites.begin(), plant_sites.end());
  std::cout << "planted " << plant_sites.size() << " mutated copies at:";
  for (const Index s : plant_sites) std::cout << ' ' << s;
  std::cout << "\n\n";

  // 2. One kernel of (pattern, text).
  Timer t;
  const auto kernel =
      semi_local_kernel(pattern, text, {.strategy = Strategy::kHybridTiled, .parallel = true});
  std::cout << "kernel built in " << t.seconds() << " s\n";

  // 3. Scan fixed-width windows through a QueryIndex built once beside the
  // kernel; report local maxima above a threshold.
  const QueryIndex index(kernel);
  const Index w = pattern_length + pattern_length / 5;  // allow for indels
  std::vector<std::pair<Index, Index>> hits;  // (score, start)
  for (Index j0 = 0; j0 + w <= text_length; ++j0) {
    hits.emplace_back(index.string_substring(j0, j0 + w), j0);
  }
  // Greedy non-overlapping peak extraction.
  std::sort(hits.rbegin(), hits.rend());
  std::vector<std::pair<Index, Index>> peaks;  // (start, score)
  for (const auto& [score, start] : hits) {
    if (score < (9 * pattern_length) / 10) break;
    bool overlaps = false;
    for (const auto& [ps, _] : peaks) {
      if (std::abs(ps - start) < w) overlaps = true;
    }
    if (!overlaps) peaks.emplace_back(start, score);
  }
  std::sort(peaks.begin(), peaks.end());

  std::cout << "detected matches (threshold 90% of |pattern|):\n";
  for (const auto& [start, score] : peaks) {
    std::cout << "  window [" << start << ", " << start + w << ")  LCS = " << score << "/"
              << pattern_length;
    // verify against a direct DP on the window
    const SequenceView window{text.data() + start, static_cast<std::size_t>(w)};
    std::cout << "  (DP check: " << lcs_score_dp(pattern, window) << ")\n";
  }
  std::cout << "\nexpected sites:";
  for (const Index s : plant_sites) std::cout << ' ' << s;
  std::cout << "\n";
  return 0;
}
