// Top-level public API: one entry point over every semi-local LCS algorithm
// in the library, keyed by strategy. This is what examples and downstream
// users call; the per-algorithm headers remain available for fine control.
#pragma once

#include <span>
#include <string_view>
#include <vector>

#include "core/hybrid.hpp"
#include "core/iterative_combing.hpp"
#include "core/kernel.hpp"
#include "core/recursive_combing.hpp"
#include "util/types.hpp"

namespace semilocal {

class Workspace;

/// Algorithm selector; names follow the paper's evaluation legend.
enum class Strategy {
  kRowMajor,        ///< semi_rowmajor (Listing 1)
  kAntidiag,        ///< semi_antidiag (Listing 4, branching)
  kAntidiagSimd,    ///< semi_antidiag_SIMD (branchless)
  kLoadBalanced,    ///< semi_load_balanced (three phases + braid mult)
  kRecursive,       ///< recursive combing (Listing 3)
  kHybrid,          ///< semi_hybrid (Listing 6)
  kHybridTiled,     ///< semi_hybrid_iterative (Listing 7)
};

/// Human-readable strategy name (the paper's legend string).
std::string_view strategy_name(Strategy s);

/// The strategy a tool's `--algorithm` names: antidiag (the branchless
/// kAntidiagSimd), hybrid, tiled, recursive, rowmajor or loadbalanced.
/// Throws std::invalid_argument on any other name.
Strategy parse_strategy(std::string_view name);

/// Unified options. Defaults give the strongest sequential configuration.
struct SemiLocalOptions {
  Strategy strategy = Strategy::kAntidiagSimd;
  /// Enable OpenMP parallelism (threads/tasks as appropriate per strategy).
  bool parallel = false;
  /// Recursion/tile depth for the recursive and hybrid strategies.
  int depth = 2;
  /// Allow 16-bit strand indices when m + n < 2^16.
  bool allow_16bit = true;
  /// Steady-ant configuration used by composing strategies.
  SteadyAntOptions ant = {.precalc = true, .preallocate = true};
};

/// Computes the semi-local LCS kernel of (a, b) with the chosen strategy.
SemiLocalKernel semi_local_kernel(SequenceView a, SequenceView b,
                                  const SemiLocalOptions& opts = {});

/// Same, drawing all scratch from `ws` (see core/workspace.hpp). With a
/// reused workspace, repeated calls allocate only for the returned kernel.
/// nullptr uses the calling thread's persistent tls_workspace().
SemiLocalKernel semi_local_kernel(SequenceView a, SequenceView b,
                                  const SemiLocalOptions& opts, Workspace* ws);

/// Global LCS score via the semi-local kernel.
Index lcs_semilocal(SequenceView a, SequenceView b, const SemiLocalOptions& opts = {});

/// One comparison job of a batch.
struct SequencePair {
  SequenceView a;
  SequenceView b;
};

/// Computes the kernels of many pairs in one call. With opts.parallel, the
/// pairs (not the cells) are the parallel unit: the whole batch runs inside
/// a single OpenMP parallel region -- one thread-team spin-up for the whole
/// batch -- and every thread combs its pairs serially with its persistent
/// per-thread workspace, so a warm serving loop does zero steady-state
/// scratch allocation. Per-pair strategy options are honoured except
/// `parallel`, which is forced off inside the region.
std::vector<SemiLocalKernel> semi_local_kernel_batch(
    std::span<const SequencePair> pairs, const SemiLocalOptions& opts = {});

/// Batched global LCS scores: out[i] = LCS(pairs[i].a, pairs[i].b), with the
/// same execution model as semi_local_kernel_batch. Scores are read straight
/// off the kernel permutation (no dominance structure is built), so the only
/// steady-state allocations are the transient per-pair kernels. `out` must
/// have pairs.size() entries.
void lcs_semilocal_batch(std::span<const SequencePair> pairs, std::span<Index> out,
                         const SemiLocalOptions& opts = {});

}  // namespace semilocal
