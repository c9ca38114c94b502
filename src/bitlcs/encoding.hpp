// Binary string encodings for the bit-parallel combing algorithm.
//
// Per Section 4.4: string a is packed with both the word order and the bit
// order within each word reversed (most significant first), string b in
// normal order; the arrays of horizontal / vertical strand bits follow the
// same layouts. The "negated a" array implements the paper's third
// optimization (storing !a saves one negation per match test, since
// !(a ^ b) == !a ^ b).
//
// Lengths that are not multiples of the word size are padded; padded
// positions carry a validity mask forcing a mismatch in every padded cell,
// which leaves the LCS score unchanged while letting every block run the
// full-word kernel.
#pragma once

#include <vector>

#include "util/bits.hpp"
#include "util/types.hpp"

namespace semilocal {

/// Packed binary pair ready for the bit-parallel kernels.
struct BinaryEncoding {
  Index m = 0;   ///< |a|
  Index n = 0;   ///< |b|
  Index mw = 0;  ///< words covering a (and the h strands)
  Index nw = 0;  ///< words covering b (and the v strands)
  std::vector<Word> a_rev;      ///< reversed a: word g bit t = a[m-1-(g*w+t)]
  std::vector<Word> a_rev_neg;  ///< bitwise complement of a_rev (valid bits)
  std::vector<Word> a_valid;    ///< 1-bits at real (non-padded) a positions
  std::vector<Word> b_fwd;      ///< b in normal order: word g bit t = b[g*w+t]
  std::vector<Word> b_valid;    ///< 1-bits at real b positions
};

/// Packs a binary pair (symbols must be 0 or 1; throws otherwise).
BinaryEncoding encode_binary_pair(SequenceView a, SequenceView b);

/// Bit-plane encoding for the alphabet-generalized bit-parallel comber
/// (the paper's Section 6 open question): symbols in [0, 2^planes) are
/// stored as `planes` parallel bit arrays; two cells match iff every plane
/// agrees, i.e. the match word is the AND over planes of XNORs. Strand bits
/// remain one per strand, so the combing logic is unchanged.
struct PlaneEncoding {
  Index m = 0;
  Index n = 0;
  Index mw = 0;
  Index nw = 0;
  int planes = 0;
  /// planes * mw words; plane p of a-word g at [p * mw + g]. Reversed layout
  /// and bitwise-complemented (the negated-a trick applied per plane).
  std::vector<Word> a_rev_neg_planes;
  std::vector<Word> a_valid;
  /// planes * nw words; plane p of b-word g at [p * nw + g].
  std::vector<Word> b_planes;
  std::vector<Word> b_valid;
};

/// Most planes the plane kernel is compiled for: 8 planes cover any byte
/// string.
inline constexpr int kMaxPlanes = 8;

/// Packs a pair over the alphabet [0, alphabet); chooses the number of
/// planes as ceil(log2(alphabet)). Throws if symbols fall outside the range
/// or the alphabet needs more than kMaxPlanes planes (alphabet > 256).
PlaneEncoding encode_plane_pair(SequenceView a, SequenceView b, Symbol alphabet);

/// A pair rewritten over the dense alphabet [0, alphabet): the k distinct
/// symbols of a and b get codes 0..k-1 in order of first appearance, so
/// equal symbols stay equal and LCS scores are unchanged.
struct DensePair {
  Sequence a;
  Sequence b;
  Symbol alphabet = 0;  ///< k, the number of distinct symbols (0 if both empty)
};

/// Remaps (a, b) onto the smallest alphabet that holds them, which makes the
/// plane count ceil(log2 k) whatever the raw symbol values are: DNA bytes
/// need 2 planes, not the 7 their ASCII codes would.
DensePair dense_remap(SequenceView a, SequenceView b);

}  // namespace semilocal
