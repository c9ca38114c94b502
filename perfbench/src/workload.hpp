// Seeded request streams for the four benchmark workloads.
//
// A Stream is a pure function of (workload, seed, seconds): the setup
// traffic, the open-loop arrival schedule and every request payload. The
// servers see only the encoded frames, never the seed. Payloads are encoded
// on demand (encode()) so a 40k-request stream costs a few MB, not the
// hundreds of MB its sequences and batch windows would take materialized.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "engine/protocol.hpp"
#include "util/types.hpp"

namespace perfbench {

using semilocal::Index;
using semilocal::Op;
using semilocal::Sequence;

enum class Workload { kWarmQueries, kColdCompute, kCorpusMixed, kShardedWarm };

/// Op class of a request: the latency bucket it lands in.
enum class Cls : std::uint8_t { kQuery = 0, kBatch = 1, kPlot = 2, kUpsert = 3 };
inline constexpr const char* kClsNames[] = {"query", "batch", "plot", "upsert"};

Workload parse_workload(const std::string& name);
const char* workload_name(Workload w);

/// Deterministic 64-bit generator (splitmix64): identical across compilers
/// and standard libraries, unlike std::*_distribution.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// A seed derived from (a, b): independent streams for independent uses.
inline std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  return Rng(a ^ (b * 0x9e3779b97f4a7c15ULL)).next();
}

/// The query kind a single-window op asks for (kLcs for every other op).
semilocal::QueryKind kind_of(Op op);

/// One planned request. Sequences are ids into Stream::seqs.
struct Planned {
  std::uint64_t due_ns = 0;  ///< offset from the window start
  std::uint32_t conn = 0;
  Cls cls = Cls::kQuery;
  Op op = Op::kLcs;
  std::uint32_t sa = 0;
  std::uint32_t sb = 0;
  Index x = 0;  ///< query window start; plot: offset of the region in a
  Index y = 0;  ///< query window end; plot: offset of the region in b
  std::uint32_t doc = 0;  ///< upsert: document index
};

struct Stream {
  Workload workload = Workload::kWarmQueries;
  std::uint64_t seed = 0;
  double rate = 0;              ///< nominal offered load, req/s
  double limit_ms = 0;          ///< latency limit on p99
  std::uint64_t window_ns = 0;  ///< timed window length
  std::vector<Sequence> seqs;
  std::vector<Planned> setup;   ///< sent closed-loop before the window
  std::vector<Planned> reqs;    ///< the open-loop schedule, due-ordered
  /// corpus_mixed: document ids; setup upsert d sends document d's base.
  std::vector<std::string> doc_ids;
};

inline constexpr std::uint32_t kConnections = 4;
inline constexpr std::size_t kBatchWindows = 1024;
inline constexpr Index kPlotRegion = 2000;
inline constexpr Index kPlotWindow = 64;
inline constexpr Index kPlotStep = 8;
inline constexpr Index kPlotCells = (kPlotRegion - kPlotWindow) / kPlotStep + 1;

/// `rate_scale` multiplies the workload's nominal rate (the max-rate sweep).
Stream make_stream(Workload workload, std::uint64_t seed, double seconds,
                   double rate_scale = 1.0);

/// The kBatchQuery windows of `p`, regenerated from the stream seed.
std::vector<semilocal::WindowQuery> batch_windows(const Stream& s, std::size_t index,
                                                  const Planned& p);

/// The request `p` encoded as the server receives it. `index` is p's
/// position in its list (setup or reqs) and seeds its batch windows.
std::string encode(const Stream& s, std::size_t index, const Planned& p,
                   bool setup = false);

semilocal::PlotSpec plot_spec();

/// FNV-1a over every setup and timed payload plus due times and
/// connections: equal digests mean byte-identical request streams.
std::uint64_t stream_digest(const Stream& s);

}  // namespace perfbench
