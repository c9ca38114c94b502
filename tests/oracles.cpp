#include "oracles.hpp"

#include <algorithm>
#include <vector>

#include "core/kernel_codec.hpp"
#include "util/random.hpp"

namespace semilocal::testing {

Index lcs_oracle(SequenceView a, SequenceView b) {
  const Index m = static_cast<Index>(a.size());
  const Index n = static_cast<Index>(b.size());
  std::vector<Index> prev(static_cast<std::size_t>(n) + 1, 0);
  std::vector<Index> cur(static_cast<std::size_t>(n) + 1, 0);
  for (Index i = 1; i <= m; ++i) {
    cur[0] = 0;
    for (Index j = 1; j <= n; ++j) {
      const Symbol x = a[static_cast<std::size_t>(i - 1)];
      const Symbol y = b[static_cast<std::size_t>(j - 1)];
      const bool match = (x == y) || x == kWildcard || y == kWildcard;
      if (match) {
        cur[static_cast<std::size_t>(j)] = prev[static_cast<std::size_t>(j - 1)] + 1;
      } else {
        cur[static_cast<std::size_t>(j)] = std::max(prev[static_cast<std::size_t>(j)],
                                                    cur[static_cast<std::size_t>(j - 1)]);
      }
    }
    std::swap(prev, cur);
  }
  return prev[static_cast<std::size_t>(n)];
}

DenseMatrix semi_local_h_oracle(SequenceView a, SequenceView b) {
  const Index m = static_cast<Index>(a.size());
  const Index n = static_cast<Index>(b.size());
  Sequence b_pad(static_cast<std::size_t>(m), kWildcard);
  b_pad.insert(b_pad.end(), b.begin(), b.end());
  b_pad.insert(b_pad.end(), static_cast<std::size_t>(m), kWildcard);
  DenseMatrix h(m + n + 1, m + n + 1, 0);
  for (Index i = 0; i <= m + n; ++i) {
    for (Index j = 0; j <= m + n; ++j) {
      if (i < j + m) {
        const SequenceView window{b_pad.data() + i, static_cast<std::size_t>(j + m - i)};
        h.at(i, j) = lcs_oracle(a, window);
      } else {
        h.at(i, j) = j + m - i;
      }
    }
  }
  return h;
}

Sequence random_string(Index length, Symbol alphabet, std::uint64_t seed) {
  return uniform_sequence(length, alphabet, seed ^ 0x9e3779b97f4a7c15ULL);
}

Permutation prepend_identity(const Permutation& p, Index k) {
  Permutation out(p.size() + k);
  for (Index i = 0; i < k; ++i) out.set(i, i);
  for (const auto& [r, c] : p.nonzeros()) out.set(k + r, k + c);
  return out;
}

Permutation append_identity(const Permutation& p, Index k) {
  Permutation out(p.size() + k);
  for (const auto& [r, c] : p.nonzeros()) out.set(r, c);
  for (Index i = 0; i < k; ++i) out.set(p.size() + i, p.size() + i);
  return out;
}

SemiLocalKernel padded_compose_horizontal(const SemiLocalKernel& first,
                                          const SemiLocalKernel& second) {
  const Permutation x = prepend_identity(first.permutation(), second.m());
  const Permutation y = append_identity(second.permutation(), first.m());
  return SemiLocalKernel(multiply(x, y), first.m() + second.m(), first.n());
}

SemiLocalKernel padded_compose_vertical(const SemiLocalKernel& first,
                                        const SemiLocalKernel& second) {
  return padded_compose_horizontal(first.flipped(), second.flipped()).flipped();
}

std::string raw_v2_kernel_bytes(const SemiLocalKernel& kernel) {
  const auto& row_to_col = kernel.permutation().row_to_col();
  const auto m = static_cast<std::int64_t>(kernel.m());
  const auto n = static_cast<std::int64_t>(kernel.n());
  std::string body;
  body.append(reinterpret_cast<const char*>(&m), sizeof(m));
  body.append(reinterpret_cast<const char*>(&n), sizeof(n));
  body.append(reinterpret_cast<const char*>(row_to_col.data()),
              row_to_col.size() * sizeof(std::int32_t));
  const std::uint32_t version = 2;
  const std::uint64_t checksum = fnv1a64(kFnv64Basis, body.data(), body.size());
  std::string out(kKernelMagic.data(), kKernelMagic.size());
  out.append(reinterpret_cast<const char*>(&version), sizeof(version));
  out += body;
  out.append(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  return out;
}

}  // namespace semilocal::testing
