#include "engine/key.hpp"

#include <array>
#include <bit>

namespace semilocal {
namespace {

constexpr std::uint64_t kPrime1 = 0x9e3779b185ebca87ULL;
constexpr std::uint64_t kPrime2 = 0xc2b2ae3d27d4eb4fULL;
constexpr std::uint64_t kPrime3 = 0x165667b19e3779f9ULL;
constexpr std::uint64_t kPrime4 = 0x85ebca77c2b2ae63ULL;
constexpr std::uint64_t kPrime5 = 0x27d4eb2f165667c5ULL;

/// A symbol's 32-bit value: a Symbol as it is, a wire byte widened the way
/// decode_request widens it.
std::uint32_t symbol_value(Symbol s) { return static_cast<std::uint32_t>(s); }
std::uint32_t symbol_value(char c) { return static_cast<unsigned char>(c); }

/// Two symbols as one word, built arithmetically so the digest does not
/// depend on the host byte order.
template <typename T>
std::uint64_t word_at(const T* p) {
  return static_cast<std::uint64_t>(symbol_value(p[0])) |
         static_cast<std::uint64_t>(symbol_value(p[1])) << 32;
}

std::uint64_t lane_round(std::uint64_t acc, std::uint64_t word) {
  return std::rotl(acc + word * kPrime2, 31) * kPrime1;
}

std::uint64_t merge_lane(std::uint64_t hash, std::uint64_t lane) {
  return (hash ^ lane_round(0, lane)) * kPrime1 + kPrime4;
}

template <typename T>
std::uint64_t digest(const T* p, std::size_t size) {
  const T* const end = p + size;
  std::uint64_t hash = kPrime5;
  if (size >= 8) {
    // Four independent lanes, one word (two symbols) each per step: the
    // multiplies of one step do not wait on each other.
    std::uint64_t v1 = kPrime1 + kPrime2;
    std::uint64_t v2 = kPrime2;
    std::uint64_t v3 = 0;
    std::uint64_t v4 = 0 - kPrime1;
    for (; end - p >= 8; p += 8) {
      v1 = lane_round(v1, word_at(p));
      v2 = lane_round(v2, word_at(p + 2));
      v3 = lane_round(v3, word_at(p + 4));
      v4 = lane_round(v4, word_at(p + 6));
    }
    hash = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) + std::rotl(v4, 18);
    hash = merge_lane(hash, v1);
    hash = merge_lane(hash, v2);
    hash = merge_lane(hash, v3);
    hash = merge_lane(hash, v4);
  }
  hash += static_cast<std::uint64_t>(size) * sizeof(Symbol);
  // Tail of up to 7 symbols: whole words, then a lone symbol.
  for (; end - p >= 2; p += 2) {
    hash = std::rotl(hash ^ lane_round(0, word_at(p)), 27) * kPrime1 + kPrime4;
  }
  if (p != end) {
    hash ^= static_cast<std::uint64_t>(symbol_value(*p)) * kPrime1;
    hash = std::rotl(hash, 23) * kPrime2 + kPrime3;
  }
  // Avalanche: every input bit reaches every output bit.
  hash ^= hash >> 33;
  hash *= kPrime2;
  hash ^= hash >> 29;
  hash *= kPrime3;
  hash ^= hash >> 32;
  return hash;
}

}  // namespace

std::uint64_t sequence_digest(SequenceView s) { return digest(s.data(), s.size()); }

PairKey make_pair_key(SequenceView a, SequenceView b) {
  return PairKey{.hash_a = sequence_digest(a),
                 .hash_b = sequence_digest(b),
                 .len_a = static_cast<Index>(a.size()),
                 .len_b = static_cast<Index>(b.size())};
}

PairKey make_wire_pair_key(std::string_view a, std::string_view b) {
  return PairKey{.hash_a = digest(a.data(), a.size()),
                 .hash_b = digest(b.data(), b.size()),
                 .len_a = static_cast<Index>(a.size()),
                 .len_b = static_cast<Index>(b.size())};
}

std::string PairKey::hex() const {
  static constexpr std::array<char, 16> kDigits = {'0', '1', '2', '3', '4', '5', '6', '7',
                                                   '8', '9', 'a', 'b', 'c', 'd', 'e', 'f'};
  std::string out(32, '0');
  for (int i = 0; i < 16; ++i) {
    out[static_cast<std::size_t>(15 - i)] = kDigits[(hash_a >> (4 * i)) & 0xf];
    out[static_cast<std::size_t>(31 - i)] = kDigits[(hash_b >> (4 * i)) & 0xf];
  }
  return out;
}

}  // namespace semilocal
