#include "workload.hpp"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <stdexcept>

#include "engine/lru_cache.hpp"

namespace perfbench {

using semilocal::PlotSpec;
using semilocal::QueryKind;
using semilocal::Request;
using semilocal::WindowQuery;

namespace {

constexpr std::size_t kPoolPairs = 256;
constexpr std::size_t kPoolLongPairs = 64;  // the other 192 are short
constexpr Index kShort = 2000;
constexpr Index kLong = 8000;
constexpr double kZipfS = 1.1;

constexpr std::size_t kDocs = 6;
constexpr Index kDocBase = 3000;
constexpr Index kDocMax = 4500;
constexpr Index kEdit = 256;
/// A query or plot reads each document at the newest version whose upsert
/// was due at least this long before it: the version the schedule has
/// acknowledged at nominal load. Keeps the stream independent of timing.
constexpr std::uint64_t kAckLagNs = 1'000'000'000;
constexpr std::size_t kDefaultCacheBytes = std::size_t{64} << 20;

Sequence random_dna(Rng& rng, Index length) {
  static constexpr char kAlphabet[] = {'A', 'C', 'G', 'T'};
  Sequence s(static_cast<std::size_t>(length));
  for (auto& c : s) c = kAlphabet[rng.below(4)];
  return s;
}

/// Zipf(s) over ranks 0..n-1, rank r drawing item perm[r].
class Zipf {
 public:
  explicit Zipf(std::vector<std::size_t> perm) : cdf_(perm.size()), perm_(std::move(perm)) {
    double total = 0;
    for (std::size_t r = 0; r < cdf_.size(); ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfS);
      cdf_[r] = total;
    }
    for (auto& c : cdf_) c /= total;
  }
  std::size_t operator()(Rng& rng) const {
    const double u = rng.unit();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return perm_[std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                                       perm_.size() - 1)];
  }

 private:
  std::vector<double> cdf_;
  std::vector<std::size_t> perm_;
};

/// 0..n-1 in seeded random order.
std::vector<std::size_t> shuffled(std::size_t n, Rng& rng) {
  std::vector<std::size_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = i;
  for (std::size_t i = n; i > 1; --i) std::swap(v[i - 1], v[rng.below(i)]);
  return v;
}

/// A category per request, each category k holding exactly its share of
/// the n requests (the last one takes the rounding rest), in seeded order:
/// the seed changes which requests are heavy, never how many are, so the
/// work of a window does not swing from seed to seed.
std::vector<std::size_t> exact_mix(Rng& rng, std::size_t n, std::initializer_list<double> shares) {
  std::vector<std::size_t> deck;
  std::size_t k = 0;
  for (const double share : shares) {
    const auto count = static_cast<std::size_t>(std::llround(share * static_cast<double>(n)));
    deck.insert(deck.end(), std::min(count, n - deck.size()), k++);
  }
  deck.resize(n, k - 1);
  for (std::size_t i = n; i > 1; --i) std::swap(deck[i - 1], deck[rng.below(i)]);
  return deck;
}

/// N arrivals over [0, window): a Poisson process conditioned on its count,
/// so every seed offers exactly rate * seconds requests.
std::vector<std::uint64_t> arrivals(Rng& rng, std::size_t n, std::uint64_t window_ns) {
  std::vector<std::uint64_t> t(n);
  for (auto& v : t) v = static_cast<std::uint64_t>(rng.unit() * static_cast<double>(window_ns));
  std::sort(t.begin(), t.end());
  return t;
}

void window_of(Rng& rng, Op op, Index m, Index n, Index& x, Index& y) {
  const Index len = op == Op::kSubstringString ? m : n;
  if (op == Op::kLcs) {
    x = y = 0;
    return;
  }
  x = static_cast<Index>(rng.below(static_cast<std::uint64_t>(len) + 1));
  y = static_cast<Index>(rng.below(static_cast<std::uint64_t>(len) + 1));
  if (x > y) std::swap(x, y);
}

Op single_op(Rng& rng) {
  static constexpr Op kOps[] = {Op::kLcs, Op::kStringSubstring, Op::kSubstringString};
  return kOps[rng.below(3)];
}

void make_warm(Stream& s, Rng& rng) {
  for (std::size_t p = 0; p < kPoolPairs; ++p) {
    const Index len = p < kPoolPairs - kPoolLongPairs ? kShort : kLong;
    s.seqs.push_back(random_dna(rng, len));
    s.seqs.push_back(random_dna(rng, len));
    Planned warm;
    warm.cls = Cls::kBatch;
    warm.op = Op::kBatchQuery;
    warm.sa = static_cast<std::uint32_t>(2 * p);
    warm.sb = static_cast<std::uint32_t>(2 * p + 1);
    warm.conn = static_cast<std::uint32_t>(p % kConnections);
    s.setup.push_back(warm);
  }
  // Every fourth popularity rank is a long pair, whatever the seed: the seed
  // picks which pairs, never how much of the traffic is long.
  const std::size_t shorts = kPoolPairs - kPoolLongPairs;
  const std::vector<std::size_t> short_order = shuffled(shorts, rng);
  const std::vector<std::size_t> long_order = shuffled(kPoolLongPairs, rng);
  std::vector<std::size_t> by_rank;
  for (std::size_t r = 0; r < kPoolPairs; ++r) {
    by_rank.push_back(r % 4 == 3 ? shorts + long_order[r / 4] : short_order[r - r / 4]);
  }
  const Zipf zipf(std::move(by_rank));
  const auto due = arrivals(rng, static_cast<std::size_t>(s.rate * 1e-9 *
                                                          static_cast<double>(s.window_ns)),
                            s.window_ns);
  const std::vector<std::size_t> batch = exact_mix(rng, due.size(), {0.9, 0.1});
  for (std::size_t i = 0; i < due.size(); ++i) {
    Planned p;
    p.due_ns = due[i];
    p.conn = static_cast<std::uint32_t>(i % kConnections);
    const std::size_t pair = zipf(rng);
    p.sa = static_cast<std::uint32_t>(2 * pair);
    p.sb = static_cast<std::uint32_t>(2 * pair + 1);
    if (batch[i] == 1) {
      p.cls = Cls::kBatch;
      p.op = Op::kBatchQuery;
    } else {
      p.op = single_op(rng);
      window_of(rng, p.op, static_cast<Index>(s.seqs[p.sa].size()),
                static_cast<Index>(s.seqs[p.sb].size()), p.x, p.y);
    }
    s.reqs.push_back(p);
  }
}

void make_cold(Stream& s, Rng& rng) {
  const auto due = arrivals(rng, static_cast<std::size_t>(s.rate * 1e-9 *
                                                          static_cast<double>(s.window_ns)),
                            s.window_ns);
  const std::vector<std::size_t> long_pair = exact_mix(rng, due.size(), {0.75, 0.25});
  const std::vector<std::size_t> windowed = exact_mix(rng, due.size(), {0.5, 0.5});
  for (std::size_t i = 0; i < due.size(); ++i) {
    const Index len = long_pair[i] == 1 ? kLong : kShort;
    Planned p;
    p.due_ns = due[i];
    p.conn = static_cast<std::uint32_t>(i % kConnections);
    p.sa = static_cast<std::uint32_t>(s.seqs.size());
    s.seqs.push_back(random_dna(rng, len));
    p.sb = static_cast<std::uint32_t>(s.seqs.size());
    s.seqs.push_back(random_dna(rng, len));
    p.op = windowed[i] == 1 ? Op::kStringSubstring : Op::kLcs;
    window_of(rng, p.op, len, len, p.x, p.y);
    s.reqs.push_back(p);
  }
}

void make_corpus(Stream& s, Rng& rng) {
  struct Version {
    std::uint64_t due_ns;
    std::uint32_t seq;
  };
  std::vector<std::vector<Version>> history(kDocs);
  for (std::size_t d = 0; d < kDocs; ++d) {
    std::string id_text = "d";
    id_text += std::to_string(d);
    s.doc_ids.push_back(id_text);
    const auto id = static_cast<std::uint32_t>(s.seqs.size());
    s.seqs.push_back(random_dna(rng, kDocBase));
    history[d].push_back({0, id});
    Planned up;
    up.cls = Cls::kUpsert;
    up.op = Op::kUpsert;
    up.doc = static_cast<std::uint32_t>(d);
    up.sb = id;
    s.setup.push_back(up);
  }
  const auto acknowledged = [&](std::size_t d, std::uint64_t due) {
    std::uint32_t seq = history[d].front().seq;
    for (const Version& v : history[d]) {
      if (v.due_ns + kAckLagNs <= due) seq = v.seq;
    }
    return seq;
  };

  // Plot regions: 2000 x 2000 blocks inside the base symbols of a
  // document pair. Enough regions that their strips total twice the default
  // cache, sampled Zipf-skewed.
  struct Region {
    std::size_t i, j;
    Index r0, c0;
  };
  std::vector<Region> regions;
  for (std::size_t i = 0; i < kDocs; ++i) {
    for (std::size_t j = i + 1; j < kDocs; ++j) {
      for (Index r0 = 0; r0 + kPlotRegion <= kDocBase; r0 += kPlotRegion / 2) {
        for (Index c0 = 0; c0 + kPlotRegion <= kDocBase; c0 += kPlotRegion / 2) {
          regions.push_back({i, j, r0, c0});
        }
      }
    }
  }
  for (std::size_t k = regions.size(); k > 1; --k) {
    std::swap(regions[k - 1], regions[rng.below(k)]);
  }
  const std::size_t strip_bytes =
      semilocal::decoded_entry_bytes(kPlotWindow + kPlotRegion) *
      static_cast<std::size_t>(kPlotCells);
  const std::size_t kept =
      std::min(regions.size(), (2 * kDefaultCacheBytes + strip_bytes - 1) / strip_bytes);
  regions.resize(kept);
  const Zipf region_zipf(shuffled(regions.size(), rng));

  const auto due = arrivals(rng, static_cast<std::size_t>(s.rate * 1e-9 *
                                                          static_cast<double>(s.window_ns)),
                            s.window_ns);
  const std::vector<std::size_t> cls = exact_mix(rng, due.size(), {0.60, 0.25, 0.15});
  std::size_t next_doc = rng.below(kDocs);
  for (std::size_t k = 0; k < due.size(); ++k) {
    Planned p;
    p.due_ns = due[k];
    p.conn = static_cast<std::uint32_t>(k % kConnections);
    if (cls[k] == 0) {
      const std::size_t i = rng.below(kDocs - 1);
      const std::size_t j = i + 1 + rng.below(kDocs - 1 - i);
      p.sa = acknowledged(i, p.due_ns);
      p.sb = acknowledged(j, p.due_ns);
      p.op = single_op(rng);
      window_of(rng, p.op, static_cast<Index>(s.seqs[p.sa].size()),
                static_cast<Index>(s.seqs[p.sb].size()), p.x, p.y);
    } else if (cls[k] == 1) {
      const Region& r = regions[region_zipf(rng)];
      p.cls = Cls::kPlot;
      p.op = Op::kAlignmentPlot;
      p.sa = acknowledged(r.i, p.due_ns);
      p.sb = acknowledged(r.j, p.due_ns);
      p.x = r.r0;
      p.y = r.c0;
    } else {
      // Round-robin over documents keeps successive upserts of one document
      // several upserts apart; the checker follows the order the server
      // acknowledged them in, so it does not rely on this spacing.
      const std::size_t d = next_doc;
      next_doc = (next_doc + 1) % kDocs;
      const Sequence& cur = s.seqs[history[d].back().seq];
      const auto len = static_cast<Index>(cur.size());
      std::vector<int> allowed = {1};  // mid-document edit
      if (len + kEdit <= kDocMax) allowed.push_back(0);  // append
      if (len > kDocBase) allowed.push_back(2);          // truncate
      const int kind = allowed[rng.below(allowed.size())];
      Sequence next = cur;
      if (kind == 0) {
        const Sequence tail = random_dna(rng, kEdit);
        next.insert(next.end(), tail.begin(), tail.end());
      } else if (kind == 1) {
        const auto at = static_cast<std::size_t>(rng.below(static_cast<std::uint64_t>(len - kEdit)));
        const Sequence patch = random_dna(rng, kEdit);
        std::copy(patch.begin(), patch.end(), next.begin() + static_cast<std::ptrdiff_t>(at));
      } else {
        next.resize(static_cast<std::size_t>(std::max(kDocBase, len - 2 * kEdit)));
      }
      p.cls = Cls::kUpsert;
      p.op = Op::kUpsert;
      p.doc = static_cast<std::uint32_t>(d);
      p.sb = static_cast<std::uint32_t>(s.seqs.size());
      s.seqs.push_back(std::move(next));
      history[d].push_back({p.due_ns, p.sb});
    }
    s.reqs.push_back(p);
  }
}

}  // namespace

Workload parse_workload(const std::string& name) {
  if (name == "warm_queries") return Workload::kWarmQueries;
  if (name == "cold_compute") return Workload::kColdCompute;
  if (name == "corpus_mixed") return Workload::kCorpusMixed;
  if (name == "sharded_warm") return Workload::kShardedWarm;
  throw std::invalid_argument("unknown workload '" + name + "'");
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kWarmQueries:
      return "warm_queries";
    case Workload::kColdCompute:
      return "cold_compute";
    case Workload::kCorpusMixed:
      return "corpus_mixed";
    case Workload::kShardedWarm:
      return "sharded_warm";
  }
  return "?";
}

QueryKind kind_of(Op op) {
  switch (op) {
    case Op::kStringSubstring:
      return QueryKind::kStringSubstring;
    case Op::kSubstringString:
      return QueryKind::kSubstringString;
    default:
      return QueryKind::kLcs;
  }
}

PlotSpec plot_spec() {
  return PlotSpec{.row0 = 0,
                  .col0 = 0,
                  .rows = kPlotCells,
                  .cols = kPlotCells,
                  .step = kPlotStep,
                  .window = kPlotWindow,
                  .quant = 16};
}

Stream make_stream(Workload workload, std::uint64_t seed, double seconds, double rate_scale) {
  Stream s;
  s.workload = workload;
  s.seed = seed;
  s.window_ns = static_cast<std::uint64_t>(seconds * 1e9);
  // sharded_warm replays warm_queries byte for byte: the difference between
  // the two isolates the router hop.
  Rng rng(mix(seed, workload == Workload::kShardedWarm
                        ? static_cast<std::uint64_t>(Workload::kWarmQueries)
                        : static_cast<std::uint64_t>(workload)));
  switch (workload) {
    case Workload::kWarmQueries:
    case Workload::kShardedWarm:
      s.rate = 2000 * rate_scale;
      s.limit_ms = 10;
      make_warm(s, rng);
      break;
    case Workload::kColdCompute:
      s.rate = 100 * rate_scale;
      s.limit_ms = 100;
      make_cold(s, rng);
      break;
    case Workload::kCorpusMixed:
      s.rate = 50 * rate_scale;
      s.limit_ms = 1000;
      make_corpus(s, rng);
      break;
  }
  return s;
}

std::vector<WindowQuery> batch_windows(const Stream& s, std::size_t index, const Planned& p) {
  Rng rng(mix(s.seed, 0x6261746368ULL + index));
  const auto m = static_cast<Index>(s.seqs[p.sa].size());
  const auto n = static_cast<Index>(s.seqs[p.sb].size());
  std::vector<WindowQuery> out(kBatchWindows);
  for (auto& w : out) {
    const Op op = single_op(rng);
    w.kind = kind_of(op);
    window_of(rng, op, m, n, w.x, w.y);
  }
  return out;
}

namespace {

Request request_of(const Stream& s, std::size_t index, const Planned& p, bool setup) {
  Request r;
  r.op = p.op;
  r.x = p.x;
  r.y = p.y;
  const Sequence& a = s.seqs[p.sa];
  const Sequence& b = s.seqs[p.sb];
  switch (p.cls) {
    case Cls::kQuery:
      r.a = a;
      r.b = b;
      break;
    case Cls::kBatch:
      r.a = a;
      r.b = b;
      if (setup) {  // prewarm: compute the kernel and build its index
        const auto m = static_cast<Index>(a.size());
        const auto n = static_cast<Index>(b.size());
        r.windows = {{semilocal::QueryKind::kLcs, 0, 0},
                     {semilocal::QueryKind::kStringSubstring, 0, n / 2},
                     {semilocal::QueryKind::kSubstringString, m / 2, m}};
      } else {
        r.windows = batch_windows(s, index, p);
      }
      break;
    case Cls::kPlot:
      r.x = r.y = 0;
      r.a.assign(a.begin() + p.x, a.begin() + p.x + kPlotRegion);
      r.b.assign(b.begin() + p.y, b.begin() + p.y + kPlotRegion);
      r.plot = plot_spec();
      break;
    case Cls::kUpsert:
      r.a = semilocal::to_sequence(s.doc_ids[p.doc]);
      r.b = b;
      break;
  }
  return r;
}

}  // namespace

std::string encode(const Stream& s, std::size_t index, const Planned& p, bool setup) {
  return semilocal::encode_request(request_of(s, index, p, setup));
}

std::uint64_t stream_digest(const Stream& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto eat = [&h](const void* data, std::size_t len) {
    const auto* b = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < len; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ULL;
    }
  };
  for (std::size_t i = 0; i < s.setup.size(); ++i) {
    const std::string payload = encode(s, i, s.setup[i], true);
    eat(payload.data(), payload.size());
    eat(&s.setup[i].conn, sizeof(s.setup[i].conn));
  }
  for (std::size_t i = 0; i < s.reqs.size(); ++i) {
    const std::string payload = encode(s, i, s.reqs[i]);
    eat(payload.data(), payload.size());
    eat(&s.reqs[i].due_ns, sizeof(s.reqs[i].due_ns));
    eat(&s.reqs[i].conn, sizeof(s.reqs[i].conn));
  }
  return h;
}

}  // namespace perfbench
