#include "core/kernel.hpp"

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "core/iterative_combing.hpp"
#include "core/query_formulas.hpp"
#include "core/query_index.hpp"
#include "dominance/mergesort_tree.hpp"
#include "dominance/prefix_oracle.hpp"
#include "oracles.hpp"
#include "util/random.hpp"

namespace semilocal {
namespace {

// The definition-level check: the kernel computed by row-major combing must
// reproduce the entire H matrix of Definition 3.3.
class KernelDefinition
    : public ::testing::TestWithParam<std::tuple<Index, Index, Symbol, std::uint64_t>> {};

TEST_P(KernelDefinition, HMatrixMatchesBruteForce) {
  const auto [m, n, alphabet, seed] = GetParam();
  const auto a = testing::random_string(m, alphabet, seed * 11 + 1);
  const auto b = testing::random_string(n, alphabet, seed * 11 + 2);
  const auto kernel = comb_rowmajor(a, b);
  const auto expected = testing::semi_local_h_oracle(a, b);
  EXPECT_EQ(kernel.to_h_matrix(), expected) << "m=" << m << " n=" << n;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KernelDefinition,
    ::testing::Combine(::testing::Values<Index>(1, 2, 3, 5, 8, 13),
                       ::testing::Values<Index>(1, 2, 4, 9, 16),
                       ::testing::Values<Symbol>(2, 4),
                       ::testing::Values<std::uint64_t>(1, 2, 3)));

TEST(Kernel, HQueryMatchesMaterializedMatrix) {
  const auto a = testing::random_string(14, 3, 5);
  const auto b = testing::random_string(19, 3, 6);
  const auto kernel = comb_rowmajor(a, b);
  const auto h = kernel.to_h_matrix();
  for (Index i = 0; i <= kernel.order(); ++i) {
    for (Index j = 0; j <= kernel.order(); ++j) {
      EXPECT_EQ(kernel.h(i, j), h.at(i, j));
    }
  }
}

// The kernel's own scan, QueryIndex and H read off the dense prefix oracle
// are three dominance counts of one permutation: on random shapes, empty
// strings included, they must agree for every query kind and every window,
// and both query APIs must reject the same bad windows.
TEST(Kernel, ScanIndexAndDenseOracleAgreeOnRandomShapes) {
  Rng rng(2929);
  for (int round = 0; round < 24; ++round) {
    const Index m = round == 0 ? 0 : rng.uniform(0, 24);
    const Index n = round == 1 ? 0 : rng.uniform(0, 24);
    const auto a = testing::random_string(m, 3, rng.engine()());
    const auto b = testing::random_string(n, 3, rng.engine()());
    const auto kernel = comb_rowmajor(a, b);
    const QueryIndex index(kernel);
    const DensePrefixOracle dense(kernel.permutation());
    const auto dense_answer = [&](const HQuery& q) {
      return h_from_sigma(m, q.i, q.j, dense.count(q.i, q.j)) - q.correction;
    };
    SCOPED_TRACE("m=" + std::to_string(m) + " n=" + std::to_string(n));

    for (Index i = 0; i <= kernel.order(); ++i) {
      for (Index j = 0; j <= kernel.order(); ++j) {
        const Index want = dense_answer({i, j, 0});
        ASSERT_EQ(kernel.h(i, j), want) << "i=" << i << " j=" << j;
        ASSERT_EQ(index.h(i, j), want) << "i=" << i << " j=" << j;
      }
    }
    EXPECT_EQ(kernel.lcs(), dense_answer(lcs_query(m, n)));
    EXPECT_EQ(index.lcs(), dense_answer(lcs_query(m, n)));
    for (Index x = 0; x <= n; ++x) {
      for (Index y = x; y <= n; ++y) {
        const Index want = dense_answer(string_substring_query(m, n, x, y));
        ASSERT_EQ(kernel.string_substring(x, y), want) << "j0=" << x << " j1=" << y;
        ASSERT_EQ(index.string_substring(x, y), want) << "j0=" << x << " j1=" << y;
      }
    }
    for (Index x = 0; x <= m; ++x) {
      for (Index y = x; y <= m; ++y) {
        const Index want = dense_answer(substring_string_query(m, n, x, y));
        ASSERT_EQ(kernel.substring_string(x, y), want) << "i0=" << x << " i1=" << y;
        ASSERT_EQ(index.substring_string(x, y), want) << "i0=" << x << " i1=" << y;
      }
    }
    for (Index x = 0; x <= m; ++x) {
      for (Index y = 0; y <= n; ++y) {
        const Index prefix_suffix = dense_answer(prefix_suffix_query(m, n, x, y));
        ASSERT_EQ(kernel.prefix_suffix(x, y), prefix_suffix) << "k=" << x << " l=" << y;
        ASSERT_EQ(index.prefix_suffix(x, y), prefix_suffix) << "k=" << x << " l=" << y;
        const Index suffix_prefix = dense_answer(suffix_prefix_query(m, n, x, y));
        ASSERT_EQ(kernel.suffix_prefix(x, y), suffix_prefix) << "s=" << x << " j=" << y;
        ASSERT_EQ(index.suffix_prefix(x, y), suffix_prefix) << "s=" << x << " j=" << y;
      }
    }

    const Index order = kernel.order();
    EXPECT_THROW((void)kernel.h(-1, 0), std::out_of_range);
    EXPECT_THROW((void)index.h(-1, 0), std::out_of_range);
    EXPECT_THROW((void)kernel.h(0, order + 1), std::out_of_range);
    EXPECT_THROW((void)index.h(0, order + 1), std::out_of_range);
    EXPECT_THROW((void)kernel.string_substring(0, n + 1), std::out_of_range);
    EXPECT_THROW((void)index.string_substring(0, n + 1), std::out_of_range);
    EXPECT_THROW((void)kernel.string_substring(-1, 0), std::out_of_range);
    EXPECT_THROW((void)index.string_substring(-1, 0), std::out_of_range);
    EXPECT_THROW((void)kernel.substring_string(0, m + 1), std::out_of_range);
    EXPECT_THROW((void)index.substring_string(0, m + 1), std::out_of_range);
    EXPECT_THROW((void)kernel.prefix_suffix(m + 1, 0), std::out_of_range);
    EXPECT_THROW((void)index.prefix_suffix(m + 1, 0), std::out_of_range);
    EXPECT_THROW((void)kernel.suffix_prefix(0, n + 1), std::out_of_range);
    EXPECT_THROW((void)index.suffix_prefix(0, n + 1), std::out_of_range);
    if (n > 0) {
      EXPECT_THROW((void)kernel.string_substring(1, 0), std::out_of_range);
      EXPECT_THROW((void)index.string_substring(1, 0), std::out_of_range);
    }
  }
}

// H read off the dense prefix oracle and off the merge-sort tree, the two
// dominance counters the kernel's queries used to switch between, must agree
// with each other and with the kernel's own scan.
TEST(Kernel, DenseQueriesAgreeWithTreeQueries) {
  const auto a = testing::random_string(20, 4, 7);
  const auto b = testing::random_string(25, 4, 8);
  const auto kernel = comb_rowmajor(a, b);
  const DensePrefixOracle dense(kernel.permutation());
  const MergesortTree tree(kernel.permutation());
  const Index m = kernel.m();
  for (Index i = 0; i <= kernel.order(); i += 3) {
    for (Index j = 0; j <= kernel.order(); j += 2) {
      const Index from_dense = h_from_sigma(m, i, j, dense.count(i, j));
      EXPECT_EQ(from_dense, h_from_sigma(m, i, j, tree.count(i, j))) << "i=" << i << " j=" << j;
      EXPECT_EQ(from_dense, kernel.h(i, j)) << "i=" << i << " j=" << j;
    }
  }
}

TEST(Kernel, GlobalLcsAgreesWithOracle) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const auto a = testing::random_string(40, 3, seed * 2);
    const auto b = testing::random_string(55, 3, seed * 2 + 1);
    EXPECT_EQ(comb_rowmajor(a, b).lcs(), testing::lcs_oracle(a, b));
  }
}

// All four quadrant accessors against brute force on every argument pair.
TEST(Kernel, QuadrantQueriesMatchBruteForce) {
  const auto a = testing::random_string(9, 3, 21);
  const auto b = testing::random_string(12, 3, 22);
  const Index m = 9;
  const Index n = 12;
  const auto kernel = comb_rowmajor(a, b);
  const SequenceView va{a};
  const SequenceView vb{b};
  for (Index j0 = 0; j0 <= n; ++j0) {
    for (Index j1 = j0; j1 <= n; ++j1) {
      EXPECT_EQ(kernel.string_substring(j0, j1),
                testing::lcs_oracle(va, vb.subspan(static_cast<std::size_t>(j0),
                                                   static_cast<std::size_t>(j1 - j0))))
          << "string_substring(" << j0 << "," << j1 << ")";
    }
  }
  for (Index i0 = 0; i0 <= m; ++i0) {
    for (Index i1 = i0; i1 <= m; ++i1) {
      EXPECT_EQ(kernel.substring_string(i0, i1),
                testing::lcs_oracle(va.subspan(static_cast<std::size_t>(i0),
                                               static_cast<std::size_t>(i1 - i0)),
                                    vb))
          << "substring_string(" << i0 << "," << i1 << ")";
    }
  }
  for (Index k = 0; k <= m; ++k) {
    for (Index l = 0; l <= n; ++l) {
      EXPECT_EQ(kernel.prefix_suffix(k, l),
                testing::lcs_oracle(va.subspan(0, static_cast<std::size_t>(k)),
                                    vb.subspan(static_cast<std::size_t>(l))))
          << "prefix_suffix(" << k << "," << l << ")";
      EXPECT_EQ(kernel.suffix_prefix(k, l),
                testing::lcs_oracle(va.subspan(static_cast<std::size_t>(k)),
                                    vb.subspan(0, static_cast<std::size_t>(l))))
          << "suffix_prefix(" << k << "," << l << ")";
    }
  }
}

TEST(Kernel, FlipSwapsRoles) {
  const auto a = testing::random_string(11, 4, 31);
  const auto b = testing::random_string(7, 4, 32);
  const auto kab = comb_rowmajor(a, b);
  const auto kba = comb_rowmajor(b, a);
  EXPECT_EQ(kab.flipped().permutation(), kba.permutation());
  EXPECT_EQ(kab.flipped().m(), kba.m());
  EXPECT_EQ(kba.flipped().permutation(), kab.permutation());
}

// Theorem 3.4: composing the kernels of a = a'a'' against b reproduces the
// directly-combed kernel of a against b.
class KernelComposition
    : public ::testing::TestWithParam<std::tuple<Index, Index, Index, std::uint64_t>> {};

TEST_P(KernelComposition, HorizontalCompositionMatchesDirect) {
  const auto [m1, m2, n, seed] = GetParam();
  const auto a1 = testing::random_string(m1, 3, seed * 5 + 1);
  const auto a2 = testing::random_string(m2, 3, seed * 5 + 2);
  const auto b = testing::random_string(n, 3, seed * 5 + 3);
  Sequence a(a1);
  a.insert(a.end(), a2.begin(), a2.end());
  const auto composed = compose_horizontal(comb_rowmajor(a1, b), comb_rowmajor(a2, b));
  const auto direct = comb_rowmajor(a, b);
  EXPECT_EQ(composed.permutation(), direct.permutation());
  EXPECT_EQ(composed.m(), direct.m());
  EXPECT_EQ(composed.n(), direct.n());
}

TEST_P(KernelComposition, VerticalCompositionMatchesDirect) {
  const auto [n1, n2, m, seed] = GetParam();
  const auto b1 = testing::random_string(n1, 3, seed * 9 + 1);
  const auto b2 = testing::random_string(n2, 3, seed * 9 + 2);
  const auto a = testing::random_string(m, 3, seed * 9 + 3);
  Sequence b(b1);
  b.insert(b.end(), b2.begin(), b2.end());
  const auto composed = compose_vertical(comb_rowmajor(a, b1), comb_rowmajor(a, b2));
  const auto direct = comb_rowmajor(a, b);
  EXPECT_EQ(composed.permutation(), direct.permutation());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KernelComposition,
    ::testing::Combine(::testing::Values<Index>(1, 3, 8), ::testing::Values<Index>(1, 4, 7),
                       ::testing::Values<Index>(1, 5, 12),
                       ::testing::Values<std::uint64_t>(1, 2)));

TEST(Kernel, DirectSumHelpers) {
  const auto p = Permutation::from_row_to_col({1, 0});
  const auto pre = prepend_identity(p, 2);
  EXPECT_EQ(pre.col_of(0), 0);
  EXPECT_EQ(pre.col_of(1), 1);
  EXPECT_EQ(pre.col_of(2), 3);
  EXPECT_EQ(pre.col_of(3), 2);
  const auto app = append_identity(p, 1);
  EXPECT_EQ(app.col_of(0), 1);
  EXPECT_EQ(app.col_of(1), 0);
  EXPECT_EQ(app.col_of(2), 2);
}

TEST(Kernel, InvalidConstructionThrows) {
  EXPECT_THROW(SemiLocalKernel(Permutation::identity(5), 2, 2), std::invalid_argument);
  const auto k = comb_rowmajor(to_sequence("AB"), to_sequence("BA"));
  EXPECT_THROW((void)k.h(-1, 0), std::out_of_range);
  EXPECT_THROW((void)k.h(0, 5), std::out_of_range);
  EXPECT_THROW((void)k.string_substring(1, 0), std::out_of_range);
  EXPECT_THROW((void)k.substring_string(0, 3), std::out_of_range);
}

TEST(Kernel, EmptyStringKernels) {
  const auto k1 = comb_rowmajor(Sequence{}, to_sequence("ABC"));
  EXPECT_EQ(k1.lcs(), 0);
  EXPECT_EQ(k1.to_h_matrix(), testing::semi_local_h_oracle(Sequence{}, to_sequence("ABC")));
  const auto k2 = comb_rowmajor(to_sequence("ABC"), Sequence{});
  EXPECT_EQ(k2.lcs(), 0);
  EXPECT_EQ(k2.to_h_matrix(), testing::semi_local_h_oracle(to_sequence("ABC"), Sequence{}));
}

}  // namespace
}  // namespace semilocal
