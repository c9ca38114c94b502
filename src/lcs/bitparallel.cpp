#include "lcs/bitparallel.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <stdexcept>

namespace semilocal {

MatchMasks::MatchMasks(SequenceView a)
    : length_(static_cast<Index>(a.size())),
      words_(std::max<Index>(1, ceil_div(static_cast<Index>(a.size()), kWordBits))) {
  zero_.assign(static_cast<std::size_t>(words_), 0);
  symbols_.assign(a.begin(), a.end());
  std::sort(symbols_.begin(), symbols_.end());
  symbols_.erase(std::unique(symbols_.begin(), symbols_.end()), symbols_.end());
  storage_.assign(symbols_.size() * static_cast<std::size_t>(words_), 0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto it = std::lower_bound(symbols_.begin(), symbols_.end(), a[i]);
    const std::size_t sym = static_cast<std::size_t>(it - symbols_.begin());
    storage_[sym * static_cast<std::size_t>(words_) + i / kWordBits] |=
        Word{1} << (i % kWordBits);
  }
}

const Word* MatchMasks::mask(Symbol c) const {
  const auto it = std::lower_bound(symbols_.begin(), symbols_.end(), c);
  if (it == symbols_.end() || *it != c) return zero_.data();
  const std::size_t sym = static_cast<std::size_t>(it - symbols_.begin());
  return storage_.data() + sym * static_cast<std::size_t>(words_);
}

namespace {

enum class Update { kCrochemore, kHyyro };

template <Update Kind>
Index bitparallel_impl(SequenceView a, SequenceView b) {
  const Index m = static_cast<Index>(a.size());
  if (m == 0 || b.empty()) return 0;
  const MatchMasks masks(a);
  const Index words = masks.words();
  // V starts all-ones; a zero bit at position i will mean "some strand got
  // stuck at a[i]", i.e. one more LCS symbol.
  std::vector<Word> v(static_cast<std::size_t>(words), ~Word{0});
  for (const Symbol c : b) {
    const Word* mask = masks.mask(c);
    Word carry = 0;
    for (Index w = 0; w < words; ++w) {
      const Word vw = v[static_cast<std::size_t>(w)];
      const Word u = vw & mask[w];
      // Multi-word addition vw + u + carry with explicit carry-out: this
      // inter-word dependency serializes the tile update.
      const Word sum = vw + u;
      const Word sum_c = sum + carry;
      const Word carry_out = static_cast<Word>((sum < vw) | (sum_c < sum));
      Word rest;
      if constexpr (Kind == Update::kCrochemore) {
        rest = vw & ~mask[w];
      } else {
        rest = vw - u;  // u is bitwise contained in vw: no inter-word borrow
      }
      v[static_cast<std::size_t>(w)] = sum_c | rest;
      carry = carry_out;
    }
  }
  // Count zero bits among the low m positions.
  Index zeros = 0;
  for (Index w = 0; w < words; ++w) {
    const Index bits_here = std::min<Index>(kWordBits, m - w * kWordBits);
    const Word live = v[static_cast<std::size_t>(w)] & low_mask(static_cast<int>(bits_here));
    zeros += bits_here - popcount(live);
  }
  return zeros;
}

}  // namespace

Index lcs_bitparallel_crochemore(SequenceView a, SequenceView b) {
  return bitparallel_impl<Update::kCrochemore>(a, b);
}

Index lcs_bitparallel_hyyro(SequenceView a, SequenceView b) {
  return bitparallel_impl<Update::kHyyro>(a, b);
}

void lcs_window_band(SequenceView a, SequenceView b, Symbol alphabet, Index a0, Index b0,
                     Index step, Index window, Index rows, Index cols, Index* out) {
  const auto n = static_cast<Index>(b.size());
  if (window < 1 || window > kWordBits || rows < 1 || rows > kWindowBandRows || cols < 1 ||
      step < 1 || alphabet < 1 || alphabet > kWindowBandMaxAlphabet || a0 < 0 || b0 < 0 ||
      a0 + (rows - 1) * step + window > static_cast<Index>(a.size()) ||
      b0 + (cols - 1) * step + window > n) {
    throw std::invalid_argument("lcs_window_band: band outside its strings or bounds");
  }
  const auto in_alphabet = [alphabet](Symbol c) { return c >= 0 && c < alphabet; };
  const Symbol* bw = b.data() + b0;
  const auto b_span = static_cast<std::size_t>((cols - 1) * step + window);
  if (!std::all_of(bw, bw + b_span, in_alphabet)) {
    throw std::invalid_argument("lcs_window_band: symbol outside the alphabet");
  }
  // The lanes as two vector values of eight words: the compiler keeps each
  // in one AVX-512 register (two on AVX2) and every step is a handful of
  // full-width ops. Left to auto-vectorization, a plain lane loop here came
  // out half scalar, and one 16-word vector lived on the stack.
  using Half [[gnu::vector_size(sizeof(Word) * kWindowBandRows / 2)]] = Word;
  struct Masks {
    Half lo;
    Half hi;
  };
  constexpr Index kHalf = kWindowBandRows / 2;
  // table[c] lane u: bit i set iff a-window u holds c at offset i. Lanes
  // past `rows` keep zero masks, so their V never changes.
  std::array<Masks, static_cast<std::size_t>(kWindowBandMaxAlphabet)> table;
  std::fill_n(table.begin(), alphabet, Masks{});
  for (Index u = 0; u < rows; ++u) {
    const Symbol* aw = a.data() + a0 + u * step;
    for (Index i = 0; i < window; ++i) {
      if (!in_alphabet(aw[i])) {
        throw std::invalid_argument("lcs_window_band: symbol outside the alphabet");
      }
      Masks& masks = table[static_cast<std::size_t>(aw[i])];
      if (u < kHalf) {
        masks.lo[u] |= Word{1} << i;
      } else {
        masks.hi[u - kHalf] |= Word{1} << i;
      }
    }
  }
  const Word live = low_mask(static_cast<int>(window));
  for (Index v = 0; v < cols; ++v) {
    const Symbol* column = bw + v * step;
    // Carries out of the window's bits only climb, so the bits above it
    // never reach the count. V & ~M in place of V - (V & M) is the same
    // word, and one ternary-logic op with the OR where the ISA has one.
    Half lo = ~Half{};
    Half hi = ~Half{};
    for (Index k = 0; k < window; ++k) {
      const Masks& mask = table[static_cast<std::size_t>(column[k])];
      lo = (lo + (lo & mask.lo)) | (lo & ~mask.lo);
      hi = (hi + (hi & mask.hi)) | (hi & ~mask.hi);
    }
    // Lanes leave through memory only here: subscripting lo or hi would
    // pin them to the stack inside the loop above.
    Word lanes[kWindowBandRows];
    std::memcpy(lanes, &lo, sizeof(lo));
    std::memcpy(lanes + kHalf, &hi, sizeof(hi));
    for (Index u = 0; u < rows; ++u) {
      out[u * cols + v] = window - popcount(lanes[u] & live);
    }
  }
}

}  // namespace semilocal
