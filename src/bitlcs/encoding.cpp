#include "bitlcs/encoding.hpp"

#include <array>
#include <stdexcept>
#include <unordered_map>

namespace semilocal {

BinaryEncoding encode_binary_pair(SequenceView a, SequenceView b) {
  for (const Symbol s : a) {
    if (s != 0 && s != 1) throw std::invalid_argument("encode_binary_pair: a is not binary");
  }
  for (const Symbol s : b) {
    if (s != 0 && s != 1) throw std::invalid_argument("encode_binary_pair: b is not binary");
  }
  BinaryEncoding e;
  e.m = static_cast<Index>(a.size());
  e.n = static_cast<Index>(b.size());
  e.mw = std::max<Index>(1, ceil_div(e.m, kWordBits));
  e.nw = std::max<Index>(1, ceil_div(e.n, kWordBits));
  e.a_rev.assign(static_cast<std::size_t>(e.mw), 0);
  e.a_valid.assign(static_cast<std::size_t>(e.mw), 0);
  e.b_fwd.assign(static_cast<std::size_t>(e.nw), 0);
  e.b_valid.assign(static_cast<std::size_t>(e.nw), 0);
  // Reversed layout: global strand slot s corresponds to a[m-1-s].
  for (Index s = 0; s < e.m; ++s) {
    const std::size_t word = static_cast<std::size_t>(s / kWordBits);
    const int bit = static_cast<int>(s % kWordBits);
    if (a[static_cast<std::size_t>(e.m - 1 - s)] != 0) e.a_rev[word] |= Word{1} << bit;
    e.a_valid[word] |= Word{1} << bit;
  }
  for (Index j = 0; j < e.n; ++j) {
    const std::size_t word = static_cast<std::size_t>(j / kWordBits);
    const int bit = static_cast<int>(j % kWordBits);
    if (b[static_cast<std::size_t>(j)] != 0) e.b_fwd[word] |= Word{1} << bit;
    e.b_valid[word] |= Word{1} << bit;
  }
  e.a_rev_neg.resize(e.a_rev.size());
  for (std::size_t g = 0; g < e.a_rev.size(); ++g) {
    e.a_rev_neg[g] = ~e.a_rev[g];
  }
  return e;
}

PlaneEncoding encode_plane_pair(SequenceView a, SequenceView b, Symbol alphabet) {
  if (alphabet < 2) throw std::invalid_argument("encode_plane_pair: alphabet must be >= 2");
  int planes = 0;
  while ((Symbol{1} << planes) < alphabet) ++planes;
  if (planes == 0) planes = 1;
  if (planes > kMaxPlanes) throw std::invalid_argument("encode_plane_pair: alphabet too large");
  for (const Symbol s : a) {
    if (s < 0 || s >= alphabet) throw std::invalid_argument("encode_plane_pair: a symbol out of range");
  }
  for (const Symbol s : b) {
    if (s < 0 || s >= alphabet) throw std::invalid_argument("encode_plane_pair: b symbol out of range");
  }
  PlaneEncoding e;
  e.m = static_cast<Index>(a.size());
  e.n = static_cast<Index>(b.size());
  e.mw = std::max<Index>(1, ceil_div(e.m, kWordBits));
  e.nw = std::max<Index>(1, ceil_div(e.n, kWordBits));
  e.planes = planes;
  e.a_rev_neg_planes.assign(static_cast<std::size_t>(planes) * static_cast<std::size_t>(e.mw), 0);
  e.a_valid.assign(static_cast<std::size_t>(e.mw), 0);
  e.b_planes.assign(static_cast<std::size_t>(planes) * static_cast<std::size_t>(e.nw), 0);
  e.b_valid.assign(static_cast<std::size_t>(e.nw), 0);
  for (Index s = 0; s < e.m; ++s) {
    const std::size_t word = static_cast<std::size_t>(s / kWordBits);
    const int bit = static_cast<int>(s % kWordBits);
    const Symbol sym = a[static_cast<std::size_t>(e.m - 1 - s)];
    for (int p = 0; p < planes; ++p) {
      if ((sym >> p) & 1) {
        e.a_rev_neg_planes[static_cast<std::size_t>(p) * static_cast<std::size_t>(e.mw) + word] |=
            Word{1} << bit;
      }
    }
    e.a_valid[word] |= Word{1} << bit;
  }
  // Negate every a-plane so each plane's match test is a plain XOR.
  for (auto& w : e.a_rev_neg_planes) w = ~w;
  for (Index j = 0; j < e.n; ++j) {
    const std::size_t word = static_cast<std::size_t>(j / kWordBits);
    const int bit = static_cast<int>(j % kWordBits);
    const Symbol sym = b[static_cast<std::size_t>(j)];
    for (int p = 0; p < planes; ++p) {
      if ((sym >> p) & 1) {
        e.b_planes[static_cast<std::size_t>(p) * static_cast<std::size_t>(e.nw) + word] |=
            Word{1} << bit;
      }
    }
    e.b_valid[word] |= Word{1} << bit;
  }
  return e;
}

DensePair dense_remap(SequenceView a, SequenceView b) {
  // Byte symbols (every wire request) take the table; any other value the map.
  std::array<Symbol, 256> byte_code;
  byte_code.fill(-1);
  std::unordered_map<Symbol, Symbol> other_code;
  DensePair out;
  const auto code = [&](Symbol s) {
    if (s >= 0 && s < 256) {
      Symbol& c = byte_code[static_cast<std::size_t>(s)];
      if (c < 0) c = out.alphabet++;
      return c;
    }
    const auto [it, fresh] = other_code.try_emplace(s, out.alphabet);
    if (fresh) ++out.alphabet;
    return it->second;
  };
  out.a.reserve(a.size());
  out.b.reserve(b.size());
  for (const Symbol s : a) out.a.push_back(code(s));
  for (const Symbol s : b) out.b.push_back(code(s));
  return out;
}

}  // namespace semilocal
