#include "bitlcs/bitwise_combing.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "bitlcs/encoding.hpp"

namespace semilocal {
namespace {

// --- bit_old / bit_new_1: the unoptimized 18-op step ------------------------
//
// Upper-left steps (shift k = w-1 .. 0) pair h-bit (u + k) with v-bit u for
// u in [0, w-k); lower-right steps (k = 1 .. w-1) pair h-bit (u - k) with
// v-bit u for u in [k, w). `a` is the reversed-a word, `va`/`vb` are
// validity masks forcing mismatches in padded cells. Always inlined: called
// through the references, a step would keep h and v in memory.

__attribute__((always_inline)) inline void step_upper_left(Word& h, Word& v, Word a, Word va,
                                                           Word b, Word vb, int k) {
  const Word mask = low_mask(kWordBits - k);
  const Word hk = h >> k;
  const Word s = ~((a >> k) ^ b) & (va >> k) & vb;
  Word c = mask & (s | (~hk & v));
  const Word v_old = v;
  v = (~c & v) | (c & hk);
  c <<= k;
  h = (~c & h) | (c & (v_old << k));
}

__attribute__((always_inline)) inline void step_lower_right(Word& h, Word& v, Word a, Word va,
                                                            Word b, Word vb, int k) {
  const Word mask = ~low_mask(k);
  const Word hk = h << k;
  const Word s = ~((a << k) ^ b) & (va << k) & vb;
  Word c = mask & (s | (~hk & v));
  const Word v_old = v;
  v = (~c & v) | (c & hk);
  c >>= k;
  h = (~c & h) | (c & (v_old >> k));
}

// All 2w-1 internal anti-diagonals of one block, fully in registers
// (bit_new_1). The local copies keep h and v in registers even when the
// compiler does not inline this: through the references it would have to
// assume they alias and reload both on every step.
inline void process_block(Word& h_out, Word& v_out, Word a, Word va, Word b, Word vb) {
  Word h = h_out;
  Word v = v_out;
  for (int k = kWordBits - 1; k >= 0; --k) step_upper_left(h, v, a, va, b, vb, k);
  for (int k = 1; k < kWordBits; ++k) step_lower_right(h, v, a, va, b, vb, k);
  h_out = h;
  v_out = v;
}

// One internal step applied to a block with immediate load/store (bit_old):
// st in [0, 2w-2], the block-internal anti-diagonal index.
__attribute__((always_inline)) inline void apply_single_step(Word& h, Word& v, Word a, Word va,
                                                             Word b, Word vb, int st) {
  if (st < kWordBits) {
    step_upper_left(h, v, a, va, b, vb, kWordBits - 1 - st);
  } else {
    step_lower_right(h, v, a, va, b, vb, st - (kWordBits - 1));
  }
}

struct State {
  const BinaryEncoding* e;
  std::vector<Word> h;
  std::vector<Word> v;
  const Word* a;  // e->a_rev
};

template <bool Parallel>
inline void run_segment_blocked(State& st, Index len, Index hi, Index vi) {
  const auto body = [&](Index j) {
    Word h_vec = st.h[static_cast<std::size_t>(hi + j)];
    Word v_vec = st.v[static_cast<std::size_t>(vi + j)];
    process_block(h_vec, v_vec, st.a[hi + j],
                  st.e->a_valid[static_cast<std::size_t>(hi + j)],
                  st.e->b_fwd[static_cast<std::size_t>(vi + j)],
                  st.e->b_valid[static_cast<std::size_t>(vi + j)]);
    st.h[static_cast<std::size_t>(hi + j)] = h_vec;
    st.v[static_cast<std::size_t>(vi + j)] = v_vec;
  };
  if constexpr (Parallel) {
#pragma omp for schedule(static)
    for (Index j = 0; j < len; ++j) body(j);
  } else {
    for (Index j = 0; j < len; ++j) body(j);
  }
}

// Unblocked segment (bit_old): every internal step re-loads and re-stores
// the block's words, paying the full memory traffic the optimization of
// Section 4.4 removes. Auto-vectorization across blocks is disabled so this
// baseline stays word-at-a-time, as Listing 8 is written: otherwise the
// compiler fuses the independent blocks of a step into SIMD lanes and the
// "unoptimized" variant silently becomes a different (wider) algorithm. The
// per-block body is forced inline so that a call per block and step does
// not stand in for the memory traffic being measured.
template <bool Parallel>
__attribute__((optimize("no-tree-vectorize", "no-tree-slp-vectorize")))
inline void run_segment_old(State& st, Index len, Index hi, Index vi) {
  for (int step = 0; step <= 2 * (kWordBits - 1); ++step) {
    const auto body = [&](Index j) __attribute__((always_inline)) {
      Word h_vec = st.h[static_cast<std::size_t>(hi + j)];
      Word v_vec = st.v[static_cast<std::size_t>(vi + j)];
      apply_single_step(h_vec, v_vec, st.a[hi + j],
                        st.e->a_valid[static_cast<std::size_t>(hi + j)],
                        st.e->b_fwd[static_cast<std::size_t>(vi + j)],
                        st.e->b_valid[static_cast<std::size_t>(vi + j)], step);
      st.h[static_cast<std::size_t>(hi + j)] = h_vec;
      st.v[static_cast<std::size_t>(vi + j)] = v_vec;
    };
    if constexpr (Parallel) {
#pragma omp for schedule(static)
      for (Index j = 0; j < len; ++j) body(j);
    } else {
      for (Index j = 0; j < len; ++j) body(j);
    }
  }
}

// Three-phase sweep over the block grid (M <= N, mirroring Listing 4):
// `segment(len, hi, vi)` combs the len independent blocks of one
// anti-diagonal, pairing h-word (hi + j) with v-word (vi + j). In parallel
// mode every thread runs the phases and each segment is a worksharing loop,
// whose implicit barrier orders consecutive anti-diagonals.
template <bool Parallel, typename Segment>
void sweep(Index big_m, Index big_n, const Segment& segment) {
  const Index full = big_n - big_m + 1;
  const auto phases = [&] {
    for (Index d = 0; d < big_m - 1; ++d) segment(d + 1, big_m - 1 - d, 0);
    for (Index k = 0; k < full; ++k) segment(big_m, 0, k);
    Index vi = full;
    for (Index len = big_m - 1; len >= 1; --len) segment(len, 0, vi++);
  };
  if constexpr (Parallel) {
#pragma omp parallel
    phases();
  } else {
    phases();
  }
}

// ---------------------------------------------------------------------------
// Plane kernel (bit_new_2 and its alphabet generalization): P bit-planes per
// symbol, G blocks of one anti-diagonal in lockstep.
// ---------------------------------------------------------------------------

/// Read-only operands: plane p of a-word g at na[p * mw + g] (reversed and
/// negated, so each plane's match test is one XOR), plane p of b-word g at
/// b[p * nw + g]. The binary encoding is the P = 1 case.
struct PlaneOperands {
  const Word* na;
  const Word* b;
  const Word* va;
  const Word* vb;
  Index mw;
  Index nw;
};

// G independent blocks (h-words hi.., v-words vi..) run their 2w-1 internal
// steps in lockstep. Every array is indexed by the lane u innermost, so the
// compiler holds one quantity of all G lanes in a few SIMD registers and the
// G dependency chains overlap instead of running back to back. Per step and
// lane: 3 ops per plane for the match word, 8 for the combing itself (the
// paper's optimized formula; the validity masks already clear every bit a
// shift exposes, so the match word needs no range mask of its own).
template <int P, int G>
inline void comb_group(Word* h, Word* v, const PlaneOperands& op, Index hi, Index vi) {
  Word hh[G];
  Word vv[G];
  Word va[G];
  Word vb[G];
  Word na[P][G];
  Word bb[P][G];
  for (int u = 0; u < G; ++u) {
    hh[u] = h[hi + u];
    vv[u] = v[vi + u];
    va[u] = op.va[hi + u];
    vb[u] = op.vb[vi + u];
  }
  for (int p = 0; p < P; ++p) {
    for (int u = 0; u < G; ++u) {
      na[p][u] = op.na[p * op.mw + hi + u];
      bb[p][u] = op.b[p * op.nw + vi + u];
    }
  }
  // Upper-left: h-bit (t + k) meets v-bit t; v-bits >= w-k sit outside.
  for (int k = kWordBits - 1; k >= 0; --k) {
    const Word outside = ~low_mask(kWordBits - k);
    for (int u = 0; u < G; ++u) {
      Word s = (va[u] >> k) & vb[u];
      for (int p = 0; p < P; ++p) s &= (na[p][u] >> k) ^ bb[p][u];
      const Word v_new = ((hh[u] >> k) | outside) & (vv[u] | s);
      hh[u] ^= (vv[u] ^ v_new) << k;
      vv[u] = v_new;
    }
  }
  // Lower-right: h-bit (t - k) meets v-bit t; v-bits < k sit outside.
  for (int k = 1; k < kWordBits; ++k) {
    const Word outside = low_mask(k);
    for (int u = 0; u < G; ++u) {
      Word s = (va[u] << k) & vb[u];
      for (int p = 0; p < P; ++p) s &= (na[p][u] << k) ^ bb[p][u];
      const Word v_new = ((hh[u] << k) | outside) & (vv[u] | s);
      hh[u] ^= (vv[u] ^ v_new) >> k;
      vv[u] = v_new;
    }
  }
  for (int u = 0; u < G; ++u) {
    h[hi + u] = hh[u];
    v[vi + u] = vv[u];
  }
}

// `count` <= G blocks from (hi, vi): one full group, then the remainder in
// halving groups, so a short anti-diagonal never pays for idle lanes.
template <int P, int G>
inline void comb_blocks(Word* h, Word* v, const PlaneOperands& op, Index hi, Index vi,
                        Index count) {
  if (count >= G) {
    comb_group<P, G>(h, v, op, hi, vi);
    hi += G;
    vi += G;
    count -= G;
  }
  if constexpr (G > 1) {
    if (count > 0) comb_blocks<P, G / 2>(h, v, op, hi, vi, count);
  }
}

template <int P, int G, bool Parallel>
Index comb_planes(const PlaneOperands& op) {
  std::vector<Word> h(static_cast<std::size_t>(op.mw), ~Word{0});
  std::vector<Word> v(static_cast<std::size_t>(op.nw), 0);
  sweep<Parallel>(op.mw, op.nw, [&](Index len, Index hi, Index vi) {
    const Index groups = ceil_div(len, G);
    const auto body = [&](Index g) {
      const Index j = g * G;
      comb_blocks<P, G>(h.data(), v.data(), op, hi + j, vi + j, std::min<Index>(G, len - j));
    };
    if constexpr (Parallel) {
#pragma omp for schedule(static)
      for (Index g = 0; g < groups; ++g) body(g);
    } else {
      for (Index g = 0; g < groups; ++g) body(g);
    }
  });
  // Padded strands keep their initial 1-bit, so the padded-length formula
  // m_pad - popcount(h) equals the true score m - popcount(real h bits).
  return op.mw * kWordBits - popcount(std::span<const Word>{h});
}

// Lockstep width of the alphabet kernel: 16 lanes are two AVX-512 (four
// AVX2) registers per operand; 8 or 32 measured slower at 2 planes, and at 8
// planes 8 and 16 lanes measured the same.
constexpr int kLockstep = 16;

template <bool Parallel>
Index comb_alphabet(const PlaneOperands& op, int planes) {
  switch (planes) {
    case 1:
      return comb_planes<1, kLockstep, Parallel>(op);
    case 2:
      return comb_planes<2, kLockstep, Parallel>(op);
    case 3:
      return comb_planes<3, kLockstep, Parallel>(op);
    case 4:
      return comb_planes<4, kLockstep, Parallel>(op);
    case 5:
      return comb_planes<5, kLockstep, Parallel>(op);
    case 6:
      return comb_planes<6, kLockstep, Parallel>(op);
    case 7:
      return comb_planes<7, kLockstep, Parallel>(op);
    case 8:
      return comb_planes<8, kLockstep, Parallel>(op);
    default:
      throw std::invalid_argument("lcs_bit_combing_alphabet: unsupported plane count");
  }
}

template <BitVariant V, bool Parallel>
Index run_binary(const BinaryEncoding& e) {
  if constexpr (V == BitVariant::kOptimized || V == BitVariant::kInterleaved) {
    const PlaneOperands op{e.a_rev_neg.data(), e.b_fwd.data(), e.a_valid.data(),
                           e.b_valid.data(), e.mw, e.nw};
    return comb_planes<1, V == BitVariant::kOptimized ? 1 : 4, Parallel>(op);
  } else {
    State st;
    st.e = &e;
    st.h.assign(static_cast<std::size_t>(e.mw), ~Word{0});
    st.v.assign(static_cast<std::size_t>(e.nw), 0);
    st.a = e.a_rev.data();
    sweep<Parallel>(e.mw, e.nw, [&](Index len, Index hi, Index vi) {
      if constexpr (V == BitVariant::kOld) {
        run_segment_old<Parallel>(st, len, hi, vi);
      } else {
        run_segment_blocked<Parallel>(st, len, hi, vi);
      }
    });
    return e.mw * kWordBits - popcount(std::span<const Word>{st.h});
  }
}

}  // namespace

Index lcs_bit_combing_alphabet(SequenceView a, SequenceView b, Symbol alphabet,
                               bool parallel) {
  if (a.empty() || b.empty()) return 0;
  if (a.size() > b.size()) std::swap(a, b);
  const PlaneEncoding e = encode_plane_pair(a, b, alphabet);
  const PlaneOperands op{e.a_rev_neg_planes.data(), e.b_planes.data(), e.a_valid.data(),
                         e.b_valid.data(), e.mw, e.nw};
  return parallel ? comb_alphabet<true>(op, e.planes) : comb_alphabet<false>(op, e.planes);
}

Index lcs_bit_combing(SequenceView a, SequenceView b, BitVariant variant, bool parallel) {
  if (a.empty() || b.empty()) return 0;
  if (a.size() > b.size()) std::swap(a, b);
  const BinaryEncoding e = encode_binary_pair(a, b);
  switch (variant) {
    case BitVariant::kOld:
      return parallel ? run_binary<BitVariant::kOld, true>(e)
                      : run_binary<BitVariant::kOld, false>(e);
    case BitVariant::kBlocked:
      return parallel ? run_binary<BitVariant::kBlocked, true>(e)
                      : run_binary<BitVariant::kBlocked, false>(e);
    case BitVariant::kOptimized:
      return parallel ? run_binary<BitVariant::kOptimized, true>(e)
                      : run_binary<BitVariant::kOptimized, false>(e);
    case BitVariant::kInterleaved:
      return parallel ? run_binary<BitVariant::kInterleaved, true>(e)
                      : run_binary<BitVariant::kInterleaved, false>(e);
  }
  return 0;
}

}  // namespace semilocal
