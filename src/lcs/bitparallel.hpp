// Classical bit-parallel LCS baselines: Crochemore et al. (2001) and Hyyro
// (2004). Both iterate over the grid in vertical tiles of word-width w and
// use integer addition to propagate a "strand" as a carry across the tile --
// exactly the carry-propagation approach the paper's novel bit-parallel
// combing algorithm (bitlcs/) is designed to avoid.
//
// Both work for arbitrary alphabets (match masks are built per distinct
// symbol); time O(mn / w) after O(m * distinct symbols / w) preprocessing.
//
// lcs_window_band applies Hyyro's update to many short pairs at once: the
// cells of an alignment plot whose window fits one word. There the carry
// the paper's combing is built to avoid costs one native add, so each cell
// is `window` word steps (the paper's Section 4.4 argument, one word wide).
#pragma once

#include <vector>

#include "util/bits.hpp"
#include "util/types.hpp"

namespace semilocal {

/// Per-symbol match masks over string a: bit i of mask(c) is set iff
/// a[i] == c. Shared preprocessing of the bit-parallel baselines.
class MatchMasks {
 public:
  explicit MatchMasks(SequenceView a);

  /// Mask words for symbol `c` (all-zero mask if c never occurs in a).
  [[nodiscard]] const Word* mask(Symbol c) const;

  [[nodiscard]] Index words() const { return words_; }
  [[nodiscard]] Index length() const { return length_; }

 private:
  Index length_ = 0;
  Index words_ = 0;
  std::vector<Word> zero_;
  std::vector<Symbol> symbols_;       // sorted distinct symbols
  std::vector<Word> storage_;         // masks, one block of `words_` per symbol
};

/// LCS score, Crochemore et al. update: V = (V + (V & M)) | (V & ~M).
Index lcs_bitparallel_crochemore(SequenceView a, SequenceView b);

/// LCS score, Hyyro's update: u = V & M; V = (V + u) | (V - u).
Index lcs_bitparallel_hyyro(SequenceView a, SequenceView b);

/// Grid rows lcs_window_band computes in lockstep, one word lane each.
inline constexpr Index kWindowBandRows = 16;

/// Largest alphabet lcs_window_band takes: its match table holds
/// alphabet x kWindowBandRows words (32 KiB at this bound).
inline constexpr Symbol kWindowBandMaxAlphabet = 256;

/// One band of an alignment plot with windows of at most one word:
///   out[u * cols + v] = LCS(a[a0 + u*step, +window), b[b0 + v*step, +window))
/// for u in [0, rows), v in [0, cols). Row u's a-window is lane u's match
/// mask; every cell runs `window` steps of Hyyro's update on one word, all
/// lanes in lockstep, with the masks of one table of symbol x lane built
/// once for the band. Requires 1 <= window <= 64, 1 <= rows <=
/// kWindowBandRows, cols >= 1, step >= 1, every window inside its string
/// and every symbol of them in [0, alphabet), alphabet <=
/// kWindowBandMaxAlphabet (dense codes: bitlcs/encoding.hpp's dense_remap);
/// throws std::invalid_argument otherwise.
void lcs_window_band(SequenceView a, SequenceView b, Symbol alphabet, Index a0, Index b0,
                     Index step, Index window, Index rows, Index cols, Index* out);

}  // namespace semilocal
