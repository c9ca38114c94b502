// semilocal_loadgen -- open-loop load generator for semilocal_serve and
// semilocal_router.
//
//   semilocal_loadgen --port P [--arrival-rate R] [--connections C]
//                     [--duration-ms D] [--drain-ms D] [--json] [--verify]
//                     [--pairs K] [--length L] [--substring-frac F] [--zipf]
//                     [--seed S] [--queries-per-pair Q] [--plot-fraction F]
//                     [--upsert-fraction F]
//
// Fires R requests/second (default 1000) round-robin across C persistent
// sockets (default 256) for D ms on a fixed schedule, never waiting for
// responses (see client/open_loop.hpp): the latency-vs-offered-load curve
// this produces stays honest under overload. Each request samples a pair from
// a pool of K distinct sequence pairs (--zipf skews sampling toward a hot
// head). Prints client-side counts and latency percentiles, then the server's
// own stats endpoint for comparison. --json instead emits the OpenLoopResult
// as one JSON object on stdout (the bench harness parses it). Exit status is
// nonzero if any socket stalled (an unanswered request with no close), a
// response failed to decode, or --verify caught a wrong answer.
//
// --queries-per-pair Q > 1 switches each request to the batched kBatchQuery
// op: one frame carries Q windows (mixed LCS / string-substring /
// substring-string) over one pair, the window-sweep regime that the shared
// QueryIndex accelerates.
//
// --plot-fraction F turns F of the requests into streamed kAlignmentPlot ops
// (an 8x8 grid over the sampled pair, tiles drained to the terminal frame).
// Every request is tagged with an op class ("query" / "batch" / "plot" /
// "upsert") and --json reports per-class latency buckets, so the plot tail
// is visible separately from the point-query tail.
//
// --upsert-fraction F turns F of the requests into Op::kUpsert writes against
// a small set of rotating document ids ("lg-doc-0".."lg-doc-3"): each upsert
// re-sends a random-length prefix of the id's base document, so the server's
// upsert plans see the full mix of appends, truncations and idempotent
// re-sends under live query load. Requires the server to run with
// --corpus-dir (upserts answer kError otherwise and count as client errors).
//
// --verify turns the tool into a correctness oracle: the client computes the
// semi-local kernel of every pool pair up front and pins each single-window
// response (kLcs / the substring ops; batches are skipped) to its exact
// expected value. A mismatch is a wrong_answer and a nonzero exit -- the
// failover serve gate runs this against the shard router while killing a
// backend, where typed RETRY_AFTER is acceptable and a wrong value never is.
// (Incompatible with servers running --dna: packing changes window
// coordinates server-side.)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include <algorithm>
#include <cstring>
#include <iostream>
#include <vector>

#include "client/open_loop.hpp"
#include "core/api.hpp"
#include "engine/protocol.hpp"
#include "engine/query.hpp"
#include "fd_stream.hpp"
#include "util/cli.hpp"
#include "util/random.hpp"

using namespace semilocal;

namespace {

int usage() {
  std::cerr << "usage: semilocal_loadgen --port P [--arrival-rate R] [--connections C]\n"
               "                         [--duration-ms D] [--drain-ms D] [--json] [--verify]\n"
               "                         [--pairs K] [--length L] [--substring-frac F] [--zipf]\n"
               "                         [--seed S] [--queries-per-pair Q] [--plot-fraction F]\n"
               "                         [--upsert-fraction F]\n";
  return 2;
}

int connect_to(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error(std::string("connect: ") + std::strerror(errno));
  }
  const int nodelay = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
  return fd;
}

Sequence random_dna(Index length, Rng& rng) {
  static constexpr char kBases[] = {'A', 'C', 'G', 'T'};
  Sequence out;
  out.reserve(static_cast<std::size_t>(length));
  for (Index i = 0; i < length; ++i) {
    out.push_back(static_cast<Symbol>(kBases[rng.uniform(0, 3)]));
  }
  return out;
}

struct Workload {
  std::vector<std::pair<Sequence, Sequence>> pool;
  /// --verify: kernels[i] answers pool[i] client-side (empty otherwise).
  std::vector<SemiLocalKernel> kernels;
  double substring_frac = 0.0;
  /// Fraction of requests that become streamed kAlignmentPlot ops (an 8x8
  /// grid over the sampled pair) -- the mixed plot/query serving regime.
  double plot_frac = 0.0;
  /// Fraction of requests that become Op::kUpsert writes over the rotating
  /// upsert_docs ids -- the live-edit serving regime.
  double upsert_frac = 0.0;
  /// Base documents behind ids "lg-doc-<i>"; each upsert sends a random
  /// prefix of one, mixing appends, truncations and idempotent re-sends.
  std::vector<Sequence> upsert_docs;
  bool zipf = false;
  Index queries_per_pair = 1;  // > 1 => batched kBatchQuery frames
};

/// The value a correct kOk response to `request` (drawn from pool index
/// `idx`) must carry, or -1 when unverifiable (no kernels, or a batch --
/// batch responses carry the window count, not a single score).
Index expected_value(const Workload& workload, std::size_t idx, const Request& request) {
  if (workload.kernels.empty() || request.op == Op::kBatchQuery) return -1;
  const SemiLocalKernel& kernel = workload.kernels[idx];
  switch (request.op) {
    case Op::kLcs:
      return kernel_lcs(kernel);
    case Op::kStringSubstring:
      return kernel_string_substring(kernel, request.x, request.y);
    case Op::kSubstringString:
      return kernel_substring_string(kernel, request.x, request.y);
    default:
      return -1;
  }
}

WindowQuery pick_window(const Workload& workload, Index m, Index n, Rng& rng) {
  WindowQuery w;
  if (rng.uniform01() >= workload.substring_frac) return w;  // kLcs
  if (rng.uniform(0, 1) == 0) {
    w.kind = QueryKind::kStringSubstring;
    const Index j0 = rng.uniform(0, n / 2);
    w.x = j0;
    w.y = rng.uniform(j0, n);
  } else {
    w.kind = QueryKind::kSubstringString;
    const Index i0 = rng.uniform(0, m / 2);
    w.x = i0;
    w.y = rng.uniform(i0, m);
  }
  return w;
}

Request pick_request(const Workload& workload, Rng& rng,
                     std::size_t* pool_index = nullptr) {
  if (pool_index != nullptr) *pool_index = 0;
  if (workload.upsert_frac > 0 && !workload.upsert_docs.empty() &&
      rng.uniform01() < workload.upsert_frac) {
    const auto doc = static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(workload.upsert_docs.size()) - 1));
    const Sequence& base = workload.upsert_docs[doc];
    const auto keep = static_cast<std::size_t>(
        rng.uniform(1, static_cast<std::int64_t>(base.size())));
    Request request;
    request.op = Op::kUpsert;
    request.a = to_sequence("lg-doc-" + std::to_string(doc));
    request.b.assign(base.begin(),
                     base.begin() + static_cast<std::ptrdiff_t>(keep));
    return request;  // expected_value: -1 (writes are not oracle-checkable)
  }
  const auto pool_size = static_cast<std::int64_t>(workload.pool.size());
  std::int64_t idx = rng.uniform(0, pool_size - 1);
  if (workload.zipf) {
    // Cheap skew: min of two uniforms lands on the head ~2x as often.
    idx = std::min(idx, rng.uniform(0, pool_size - 1));
  }
  if (pool_index != nullptr) *pool_index = static_cast<std::size_t>(idx);
  const auto& [a, b] = workload.pool[static_cast<std::size_t>(idx)];
  Request request;
  request.a = a;
  request.b = b;
  const auto m = static_cast<Index>(a.size());
  const auto n = static_cast<Index>(b.size());
  if (workload.plot_frac > 0 && rng.uniform01() < workload.plot_frac) {
    PlotSpec spec;
    spec.rows = 8;
    spec.cols = 8;
    spec.window = std::max<Index>(1, std::min<Index>(64, std::min(m, n) / 4));
    const Index max_step = std::min((m - spec.window) / (spec.rows - 1),
                                    (n - spec.window) / (spec.cols - 1));
    if (max_step >= 1) {  // pair too short for a grid => plain query below
      spec.step = std::max<Index>(1, max_step / 2);
      spec.quant = 16;
      request.op = Op::kAlignmentPlot;
      request.plot = spec;
      return request;
    }
  }
  if (workload.queries_per_pair > 1) {
    request.op = Op::kBatchQuery;
    request.windows.reserve(static_cast<std::size_t>(workload.queries_per_pair));
    for (Index q = 0; q < workload.queries_per_pair; ++q) {
      request.windows.push_back(pick_window(workload, m, n, rng));
    }
    return request;
  }
  const WindowQuery w = pick_window(workload, m, n, rng);
  switch (w.kind) {
    case QueryKind::kLcs:
      request.op = Op::kLcs;
      break;
    case QueryKind::kStringSubstring:
      request.op = Op::kStringSubstring;
      break;
    case QueryKind::kSubstringString:
      request.op = Op::kSubstringString;
      break;
  }
  request.x = w.x;
  request.y = w.y;
  return request;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliArgs args = CliArgs::parse(argc, argv, 1, {"zipf", "json", "verify"});
    const auto port_opt = args.option("port");
    if (!port_opt) return usage();
    const int port = static_cast<int>(std::stol(*port_opt));
    const auto pairs = args.int_option_or("pairs", 16);
    const Index length = args.int_option_or("length", 2000);
    const auto seed = static_cast<std::uint64_t>(args.int_option_or("seed", 1));

    Workload workload;
    workload.substring_frac = args.double_option_or("substring-frac", 0.25);
    workload.plot_frac = args.double_option_or("plot-fraction", 0.0);
    if (workload.plot_frac < 0.0 || workload.plot_frac > 1.0) {
      throw std::invalid_argument("--plot-fraction out of range [0, 1]");
    }
    workload.upsert_frac = args.double_option_or("upsert-fraction", 0.0);
    if (workload.upsert_frac < 0.0 || workload.upsert_frac > 1.0) {
      throw std::invalid_argument("--upsert-fraction out of range [0, 1]");
    }
    workload.zipf = args.has_flag("zipf");
    workload.queries_per_pair = args.int_option_or("queries-per-pair", 1);
    if (workload.queries_per_pair < 1 ||
        static_cast<std::size_t>(workload.queries_per_pair) > kMaxBatchWindows) {
      throw std::invalid_argument("--queries-per-pair out of range");
    }
    Rng rng(seed);
    for (Index p = 0; p < pairs; ++p) {
      workload.pool.emplace_back(random_dna(length, rng), random_dna(length, rng));
    }
    if (workload.upsert_frac > 0) {
      for (int doc = 0; doc < 4; ++doc) {
        workload.upsert_docs.push_back(random_dna(length, rng));
      }
    }
    if (args.has_flag("verify")) {
      workload.kernels.reserve(workload.pool.size());
      for (const auto& [a, b] : workload.pool) {
        workload.kernels.push_back(semi_local_kernel(a, b));
      }
    }

    OpenLoopOptions open;
    open.port = port;
    open.connections = static_cast<std::size_t>(args.int_option_or("connections", 256));
    open.arrival_rate = args.double_option_or("arrival-rate", open.arrival_rate);
    open.duration_ms = static_cast<std::uint64_t>(args.int_option_or("duration-ms", 2000));
    open.drain_ms = static_cast<std::uint64_t>(args.int_option_or("drain-ms", 3000));
    Rng payload_rng(seed + 42);
    // next_payload / next_expected run back-to-back per send, so the
    // captured expectation always describes the request just encoded.
    Index pending_expected = -1;
    std::string pending_op;
    open.next_payload = [&workload, &payload_rng, &pending_expected, &pending_op] {
      std::size_t pool_index = 0;
      const Request request = pick_request(workload, payload_rng, &pool_index);
      pending_expected = expected_value(workload, pool_index, request);
      pending_op = request.op == Op::kAlignmentPlot ? "plot"
                   : request.op == Op::kBatchQuery  ? "batch"
                   : request.op == Op::kUpsert      ? "upsert"
                                                    : "query";
      return encode_request(request);
    };
    if (!workload.kernels.empty()) {
      open.next_expected = [&pending_expected] { return pending_expected; };
    }
    open.next_op_class = [&pending_op] { return pending_op; };
    const OpenLoopResult result = run_open_loop(open);
    const int status =
        (result.stalled == 0 && result.decode_errors == 0 && result.wrong_answers == 0) ? 0
                                                                                        : 1;
    if (args.has_flag("json")) {
      std::cout << to_json(result) << "\n";
      return status;
    }
    std::cout << "open loop: " << result.connected << " conns, offered "
              << open.arrival_rate << " req/s, achieved " << result.achieved_rate
              << " req/s\n"
              << "sent: " << result.sent << " received: " << result.received
              << " ok: " << result.ok << " overloaded: " << result.overloaded
              << " errors: " << result.errors << " closed_early: " << result.closed_early
              << " stalled: " << result.stalled << " wrong: " << result.wrong_answers
              << "\n"
              << "latency ms  p50: " << result.p50_ms << "  p90: " << result.p90_ms
              << "  p99: " << result.p99_ms << "  max: " << result.max_ms << "\n";
    for (const OpenLoopShardResult& per : result.per_shard) {
      std::cout << "shard " << per.shard << ": " << per.received << " responses, p50 "
                << per.p50_ms << " ms, p99 " << per.p99_ms << " ms\n";
    }
    for (const OpenLoopOpResult& per : result.per_op) {
      std::cout << "op " << per.op << ": " << per.received << " responses, p50 "
                << per.p50_ms << " ms, p99 " << per.p99_ms << " ms\n";
    }

    // Server-side view of the same run.
    tools::FdStream stats(connect_to(port));
    Request stats_request;
    stats_request.op = Op::kStats;
    write_frame(stats.out, encode_request(stats_request));
    if (const auto payload = read_frame(stats.in)) {
      std::cout << "server stats: " << decode_response(*payload).text << "\n";
    }
    return status;
  } catch (const std::exception& e) {
    std::cerr << "semilocal_loadgen: " << e.what() << "\n";
    return 1;
  }
}
