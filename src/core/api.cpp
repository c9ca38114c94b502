#include "core/api.hpp"

#include <cstdint>
#include <stdexcept>
#include <string>

#include "core/workspace.hpp"

namespace semilocal {

std::string_view strategy_name(Strategy s) {
  switch (s) {
    case Strategy::kRowMajor: return "semi_rowmajor";
    case Strategy::kAntidiag: return "semi_antidiag";
    case Strategy::kAntidiagSimd: return "semi_antidiag_SIMD";
    case Strategy::kLoadBalanced: return "semi_load_balanced";
    case Strategy::kRecursive: return "semi_recursive";
    case Strategy::kHybrid: return "semi_hybrid";
    case Strategy::kHybridTiled: return "semi_hybrid_iterative";
  }
  return "unknown";
}

Strategy parse_strategy(std::string_view name) {
  if (name == "antidiag") return Strategy::kAntidiagSimd;
  if (name == "hybrid") return Strategy::kHybrid;
  if (name == "tiled") return Strategy::kHybridTiled;
  if (name == "recursive") return Strategy::kRecursive;
  if (name == "rowmajor") return Strategy::kRowMajor;
  if (name == "loadbalanced") return Strategy::kLoadBalanced;
  throw std::invalid_argument("unknown --algorithm '" + std::string(name) + "'");
}

SemiLocalKernel semi_local_kernel(SequenceView a, SequenceView b,
                                  const SemiLocalOptions& opts, Workspace* ws) {
  switch (opts.strategy) {
    case Strategy::kRowMajor:
      return comb_rowmajor(a, b);
    case Strategy::kAntidiag:
      return comb_antidiag(
          a, b, CombOptions{.branchless = false, .parallel = opts.parallel,
                            .allow_16bit = opts.allow_16bit},
          ws);
    case Strategy::kAntidiagSimd:
      return comb_antidiag(
          a, b, CombOptions{.branchless = true, .parallel = opts.parallel,
                            .allow_16bit = opts.allow_16bit},
          ws);
    case Strategy::kLoadBalanced:
      return comb_load_balanced(
          a, b, CombOptions{.branchless = true, .parallel = opts.parallel,
                            .allow_16bit = opts.allow_16bit},
          opts.ant, ws);
    case Strategy::kRecursive:
      return recursive_combing(a, b, opts.ant, opts.parallel ? opts.depth : 0);
    case Strategy::kHybrid:
      return hybrid_combing(
          a, b, HybridOptions{.depth = opts.depth, .parallel = opts.parallel,
                              .comb = {.branchless = true, .parallel = false,
                                       .allow_16bit = opts.allow_16bit},
                              .ant = opts.ant});
    case Strategy::kHybridTiled:
      return hybrid_tiled_combing(
          a, b, 0, 0,
          HybridOptions{.depth = opts.depth, .parallel = opts.parallel,
                        .comb = {.branchless = true, .parallel = false,
                                 .allow_16bit = opts.allow_16bit},
                        .ant = opts.ant});
  }
  throw std::invalid_argument("semi_local_kernel: unknown strategy");
}

SemiLocalKernel semi_local_kernel(SequenceView a, SequenceView b,
                                  const SemiLocalOptions& opts) {
  return semi_local_kernel(a, b, opts, nullptr);
}

Index lcs_semilocal(SequenceView a, SequenceView b, const SemiLocalOptions& opts) {
  return semi_local_kernel(a, b, opts).lcs();
}

namespace {

// Pairs are the parallel unit inside a batch; per-pair combing runs serially.
SemiLocalOptions per_pair_options(const SemiLocalOptions& opts) {
  SemiLocalOptions per = opts;
  per.parallel = false;
  return per;
}

// Runs `job(i)` for every pair index, inside one parallel region when asked.
template <typename Job>
void for_each_pair(std::size_t count, bool parallel, const Job& job) {
  const auto total = static_cast<std::int64_t>(count);
  if (parallel) {
#pragma omp parallel for schedule(dynamic)
    for (std::int64_t i = 0; i < total; ++i) job(i);
  } else {
    for (std::int64_t i = 0; i < total; ++i) job(i);
  }
}

}  // namespace

std::vector<SemiLocalKernel> semi_local_kernel_batch(std::span<const SequencePair> pairs,
                                                     const SemiLocalOptions& opts) {
  std::vector<SemiLocalKernel> out(pairs.size());
  const SemiLocalOptions per = per_pair_options(opts);
  for_each_pair(pairs.size(), opts.parallel, [&](std::int64_t i) {
    const auto& [a, b] = pairs[static_cast<std::size_t>(i)];
    out[static_cast<std::size_t>(i)] = semi_local_kernel(a, b, per, &tls_workspace());
  });
  return out;
}

void lcs_semilocal_batch(std::span<const SequencePair> pairs, std::span<Index> out,
                         const SemiLocalOptions& opts) {
  if (out.size() != pairs.size()) {
    throw std::invalid_argument("lcs_semilocal_batch: out.size() != pairs.size()");
  }
  const SemiLocalOptions per = per_pair_options(opts);
  for_each_pair(pairs.size(), opts.parallel, [&](std::int64_t i) {
    const auto& [a, b] = pairs[static_cast<std::size_t>(i)];
    out[static_cast<std::size_t>(i)] = semi_local_kernel(a, b, per, &tls_workspace()).lcs();
  });
}

}  // namespace semilocal
