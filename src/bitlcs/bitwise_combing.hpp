// The paper's novel bit-parallel LCS algorithm (Section 4.4, Listing 8).
//
// Iterative combing on a binary alphabet with one bit per strand: h strands
// start as all-ones, v strands as all-zeros, and the per-cell combing
// condition "match OR crossed-before" becomes pure Boolean logic -- no
// integer addition, no carry propagation, no precomputed tables. The grid is
// processed in anti-diagonal w x w blocks; within a block, shifts align the
// reversed a/h words against the forward b/v words.
//
// Variants (evaluation legend of Figure 9):
//   bit_old   - Listing 8 without the memory-access optimization: every
//               internal anti-diagonal step of a block reloads and stores
//               the four words.
//   bit_new_1 - register blocking: each block's words are loaded once, all
//               2w-1 internal steps run in registers, results stored once.
//   bit_new_2 - bit_new_1 plus the optimized Boolean formula (12 ops instead
//               of 18) and the negated-a encoding.
//
// The final score is |a| - popcount(h) (plus padding correction), obtained
// with the hardware popcount.
#pragma once

#include "util/types.hpp"

namespace semilocal {

/// Which implementation level to run.
enum class BitVariant {
  kOld,          ///< bit_old
  kBlocked,      ///< bit_new_1
  kOptimized,    ///< bit_new_2
  /// bit_new_2 plus 4-way block interleaving: four independent blocks of the
  /// same anti-diagonal are kept in registers simultaneously so their
  /// 2w-1-step dependency chains overlap in the CPU pipeline. An ablation
  /// beyond the paper: it recovers, on a single superscalar core, the
  /// instruction-level parallelism that the register-blocking optimization
  /// of bit_new_1 otherwise trades away (see EXPERIMENTS.md, Figure 9(a)).
  kInterleaved,
};

/// LCS score of two binary strings (symbols in {0,1}; throws otherwise).
/// `parallel` processes each anti-diagonal of blocks with OpenMP threads.
Index lcs_bit_combing(SequenceView a, SequenceView b,
                      BitVariant variant = BitVariant::kOptimized,
                      bool parallel = false);

/// Alphabet-generalized bit-parallel combing -- an implementation of the
/// paper's open question "how well this algorithm can be generalized to an
/// arbitrary alphabet" (Section 6). Symbols must lie in [0, alphabet) with
/// alphabet <= 256; the match word is computed from ceil(log2 alphabet)
/// bit-planes while the strand state stays one bit per strand, so the cost
/// grows only in the match test: 3 ops per plane per step. The plane count
/// is a compile-time constant of the kernel (1..8, dispatched at run time),
/// and independent blocks of each anti-diagonal run 16 at a time in
/// lockstep, like kInterleaved's four. Remap sparse symbol
/// sets with dense_remap (bitlcs/encoding.hpp) first: the plane count
/// follows the alphabet bound, not the number of distinct symbols.
/// `parallel` as in lcs_bit_combing.
Index lcs_bit_combing_alphabet(SequenceView a, SequenceView b, Symbol alphabet,
                               bool parallel = false);

}  // namespace semilocal
