// Comparison-engine serving benchmark: throughput and latency percentiles
// of the store + cache + scheduler stack under three request mixes, written
// to results/bench_engine.json.
//
//   cold      every request is a distinct pair -- pure compute, batching is
//             the only lever (lower bound on serving throughput).
//   warm      a small pool requested many times over -- steady state is all
//             LRU hits, measuring the query-off-cached-kernel path.
//   coalesced many client threads hammer the same few pairs concurrently --
//             duplicate in-flight requests must fold into one computation.
//   warm_window_sweep
//             a small warm pool with many substring windows per request
//             (the batched-op shape), run twice: once through the shared
//             QueryIndex and once forced onto the O(m+n) scan. The ratio of
//             the two queries_per_s numbers is the serving-path win of the
//             index; the counters prove the indexed run never fell back.
//   capacity_sweep
//             the format-v3 capacity claim, measured: a disk-backed store
//             with a FIXED cache budget serves a pool far larger than the
//             decoded tier can hold, once with raw v2 kernels (every disk
//             hit decoded and index-projected) and once with compressed v3
//             (disk hits stay compressed-resident; only the hot subset is
//             promoted). Reports resident pairs per GB and the warm p50/p99
//             of a hot-heavy request stream for both legs, plus the derived
//             capacity_ratio (the check gate enforces >= 4) and
//             p50_regression (reported, not gated: at gate scale it is
//             timing noise).
//   frontend_sweep
//             the serve frontend measured over real sockets: an in-process
//             open-loop client (client/open_loop.hpp) fires a fixed offered
//             load at a warm engine behind the epoll reactor, sweeping the
//             arrival rate to produce the latency-vs-offered-load curve, plus
//             one high-concurrency point. Every leg records two gate
//             invariants: stalled_sockets (a request that got neither a
//             frame nor a close) must be 0, and shed_mismatch (server-side
//             RETRY_AFTER frames sent minus client-side kOverloaded frames
//             received) must be 0 -- overload is allowed, silent overload
//             is not.
//
// Engine stats are recorded alongside the client-side numbers so a regression
// in the *policy* (recompute where a hit was possible) is visible, not just a
// slowdown. SEMILOCAL_BENCH_SCALE scales pair length as usual.
#include "common.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <memory>
#include <thread>

#include "client/open_loop.hpp"
#include "core/api.hpp"
#include "engine/corpus_version.hpp"
#include "engine/engine.hpp"
#include "engine/frontend.hpp"
#include "engine/protocol.hpp"
#include "engine/shard/router.hpp"
#include "util/random.hpp"

using namespace semilocal;
using namespace semilocal::bench;

namespace {

struct MixResult {
  std::string name;
  int requests = 0;
  int distinct_pairs = 0;
  int client_threads = 0;
  int queries_per_request = 1;
  int passes = 1;  // timed repetitions; elapsed_s is the median pass
  double elapsed_s = 0.0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
  EngineStats stats;

  [[nodiscard]] double throughput() const {
    return elapsed_s > 0 ? static_cast<double>(requests) / elapsed_s : 0.0;
  }

  [[nodiscard]] double queries_per_s() const {
    return throughput() * static_cast<double>(queries_per_request);
  }
};

std::vector<std::pair<Sequence, Sequence>> make_pool(int pairs, Index length,
                                                     std::uint64_t seed) {
  std::vector<std::pair<Sequence, Sequence>> pool;
  pool.reserve(static_cast<std::size_t>(pairs));
  for (int p = 0; p < pairs; ++p) {
    const auto base = seed + static_cast<std::uint64_t>(p) * 2;
    pool.emplace_back(uniform_sequence(length, 4, base), uniform_sequence(length, 4, base + 1));
  }
  return pool;
}

double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(q * static_cast<double>(sorted.size() - 1));
  return sorted[idx];
}

/// Issues `requests` LCS queries round-robin over `pool` from
/// `client_threads` threads against a fresh engine; `prewarm` requests each
/// pair once first (excluded from timing).
MixResult run_mix(const std::string& name, int pairs, int requests, int client_threads,
                  Index length, bool prewarm) {
  MixResult result;
  result.name = name;
  result.requests = requests;
  result.distinct_pairs = pairs;
  result.client_threads = client_threads;

  const auto pool = make_pool(pairs, length, 1000 + std::hash<std::string>{}(name) % 1000);
  EngineOptions options;  // no disk tier: isolate cache + scheduler behavior
  options.scheduler.workers = hardware_threads();
  options.scheduler.max_queue = static_cast<std::size_t>(std::max(1024, requests));
  ComparisonEngine engine(options);
  if (prewarm) {
    for (const auto& [a, b] : pool) (void)engine.lcs(a, b);
  }

  std::vector<std::vector<double>> per_thread(static_cast<std::size_t>(client_threads));
  std::vector<std::thread> team;
  // Gate all clients on a start barrier: without it, thread-spawn latency
  // staggers the first wave and concurrent duplicates never materialize.
  std::atomic<int> at_gate{0};
  Timer wall;
  for (int t = 0; t < client_threads; ++t) {
    team.emplace_back([&, t] {
      auto& latencies = per_thread[static_cast<std::size_t>(t)];
      at_gate.fetch_add(1);
      while (at_gate.load() < client_threads) std::this_thread::yield();
      for (int i = t; i < requests; i += client_threads) {
        const auto& [a, b] = pool[static_cast<std::size_t>(i) % pool.size()];
        Timer timer;
        (void)engine.lcs(a, b);
        latencies.push_back(timer.milliseconds());
      }
    });
  }
  for (std::thread& t : team) t.join();
  result.elapsed_s = wall.seconds();

  std::vector<double> merged;
  for (const auto& v : per_thread) merged.insert(merged.end(), v.begin(), v.end());
  std::sort(merged.begin(), merged.end());
  result.p50_ms = percentile(merged, 0.50);
  result.p90_ms = percentile(merged, 0.90);
  result.p99_ms = percentile(merged, 0.99);
  result.max_ms = merged.empty() ? 0.0 : merged.back();
  result.stats = engine.stats();
  return result;
}

/// Warm window-sweep: every request is a batch of `queries_per_request`
/// mixed windows over one pair from a prewarmed pool. `use_index` selects
/// the QueryIndex route; false forces the O(m+n) scan (the ablation leg).
MixResult run_window_sweep(const std::string& name, int pairs, int requests,
                           int client_threads, Index length, int queries_per_request,
                           bool use_index) {
  MixResult result;
  result.name = name;
  result.requests = requests;
  result.distinct_pairs = pairs;
  result.client_threads = client_threads;
  result.queries_per_request = queries_per_request;

  const auto pool = make_pool(pairs, length, 4242);
  EngineOptions options;
  options.index_queries = use_index;
  options.scheduler.workers = hardware_threads();
  ComparisonEngine engine(options);
  for (const auto& [a, b] : pool) (void)engine.entry(a, b);  // prewarm (no queries)

  // One fixed window batch per pair, built up front so both legs answer the
  // exact same queries and the timed loop measures answering only.
  std::vector<std::vector<WindowQuery>> batches(pool.size());
  Rng rng(7);
  for (std::size_t p = 0; p < pool.size(); ++p) {
    auto& windows = batches[p];
    windows.reserve(static_cast<std::size_t>(queries_per_request));
    const auto m = static_cast<Index>(pool[p].first.size());
    const auto n = static_cast<Index>(pool[p].second.size());
    for (int q = 0; q < queries_per_request; ++q) {
      switch (rng.uniform(0, 2)) {
        case 0:
          windows.push_back({QueryKind::kLcs, 0, 0});
          break;
        case 1: {
          const Index j0 = rng.uniform(0, n);
          windows.push_back({QueryKind::kStringSubstring, j0, rng.uniform(j0, n)});
          break;
        }
        default: {
          const Index i0 = rng.uniform(0, m);
          windows.push_back({QueryKind::kSubstringString, i0, rng.uniform(i0, m)});
          break;
        }
      }
    }
  }

  // Median of several timed passes: one pass is ~tens of milliseconds, and
  // on a shared/virtualized machine a single pass can absorb a scheduling
  // hiccup that swamps the very ratio this mix exists to measure.
  constexpr int kPasses = 5;
  result.passes = kPasses;
  std::vector<std::vector<double>> per_thread(static_cast<std::size_t>(client_threads));
  std::vector<double> pass_seconds;
  for (int pass = 0; pass < kPasses; ++pass) {
    std::vector<std::thread> team;
    std::atomic<int> at_gate{0};
    Timer wall;
    for (int t = 0; t < client_threads; ++t) {
      team.emplace_back([&, t] {
        auto& latencies = per_thread[static_cast<std::size_t>(t)];
        at_gate.fetch_add(1);
        while (at_gate.load() < client_threads) std::this_thread::yield();
        for (int i = t; i < requests; i += client_threads) {
          const std::size_t p = static_cast<std::size_t>(i) % pool.size();
          Timer timer;
          (void)engine.answer_batch(pool[p].first, pool[p].second, batches[p]);
          latencies.push_back(timer.milliseconds());
        }
      });
    }
    for (std::thread& t : team) t.join();
    pass_seconds.push_back(wall.seconds());
  }
  std::sort(pass_seconds.begin(), pass_seconds.end());
  result.elapsed_s = pass_seconds[pass_seconds.size() / 2];

  std::vector<double> merged;
  for (const auto& v : per_thread) merged.insert(merged.end(), v.begin(), v.end());
  std::sort(merged.begin(), merged.end());
  result.p50_ms = percentile(merged, 0.50);
  result.p90_ms = percentile(merged, 0.90);
  result.p99_ms = percentile(merged, 0.99);
  result.max_ms = merged.empty() ? 0.0 : merged.back();
  result.stats = engine.stats();
  return result;
}

struct CapacityLeg {
  std::string name;
  std::size_t resident_pairs = 0;
  double pairs_per_gb = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::uint64_t bytes_on_disk = 0;     // from the build phase (it persisted)
  double compression_ratio = 1.0;      // raw-equivalent bytes / actual bytes
  EngineStats stats;
};

struct CapacityResult {
  int pool_pairs = 0;
  int hot_pairs = 0;
  std::size_t cache_bytes = 0;
  CapacityLeg v2;
  CapacityLeg v3;

  /// How many more pairs the fixed budget keeps resident under v3.
  [[nodiscard]] double capacity_ratio() const {
    return v2.pairs_per_gb > 0 ? v3.pairs_per_gb / v2.pairs_per_gb : 0.0;
  }

  /// Warm p50 cost of compression on the hot path (negative = v3 faster).
  [[nodiscard]] double p50_regression() const {
    return v2.p50_ms > 0 ? (v3.p50_ms - v2.p50_ms) / v2.p50_ms : 0.0;
  }
};

/// One capacity leg: build a disk store of `pairs` kernels in `format`, then
/// restart cold over it and replay `rounds` hot-heavy request rounds (each:
/// every pair once, each of the first `hot` pairs `hot_weight` times, so hot
/// requests are the majority and p50 reflects the hot serving path). The
/// first round is untimed warm-up; residency is read after the last round.
CapacityLeg run_capacity_leg(const std::string& name, KernelFormat format,
                             const std::vector<std::pair<Sequence, Sequence>>& pool,
                             int hot, int hot_weight, int rounds,
                             std::size_t cache_bytes) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / ("semilocal_bench_" + name);
  fs::remove_all(dir);

  EngineOptions options;
  options.store.dir = dir.string();
  options.store.format = format;
  options.store.cache_bytes = cache_bytes;
  // Half the budget may hold promoted (fully decoded + indexed) entries;
  // the rest is for the compressed tail. The hot subset must fit decoded.
  options.store.promoted_fraction = 0.5;
  options.store.promote_after_hits = 2;
  options.scheduler.workers = hardware_threads();
  options.scheduler.max_queue = pool.size() * 2;

  CapacityLeg leg;
  leg.name = name;
  {  // Build phase: compute + persist every pair, then drop the engine.
    ComparisonEngine builder(options);
    for (const auto& [a, b] : pool) (void)builder.lcs(a, b);
    leg.bytes_on_disk = builder.stats().store.bytes_on_disk;
    leg.compression_ratio = builder.stats().store.compression_ratio();
  }
  ComparisonEngine engine(options);  // cold cache over the populated store
  std::vector<double> latencies;
  for (int round = 0; round < rounds + 1; ++round) {
    const bool timed = round > 0;
    for (std::size_t p = 0; p < pool.size(); ++p) {
      const int repeats = p < static_cast<std::size_t>(hot) ? hot_weight : 1;
      for (int r = 0; r < repeats; ++r) {
        Timer timer;
        (void)engine.lcs(pool[p].first, pool[p].second);
        if (timed) latencies.push_back(timer.milliseconds());
      }
    }
  }
  std::sort(latencies.begin(), latencies.end());
  leg.p50_ms = percentile(latencies, 0.50);
  leg.p99_ms = percentile(latencies, 0.99);
  leg.stats = engine.stats();
  leg.resident_pairs = leg.stats.store.cache.entries;
  leg.pairs_per_gb = static_cast<double>(leg.resident_pairs) *
                     (static_cast<double>(std::size_t{1} << 30) /
                      static_cast<double>(cache_bytes));
  fs::remove_all(dir);
  return leg;
}

CapacityResult run_capacity_sweep(Index length) {
  CapacityResult result;
  result.pool_pairs = 64;
  result.hot_pairs = 4;
  // The fixed budget: room for ~10 fully decoded entries. The pool is 64
  // pairs, so the decoded-only leg must evict while the compressed leg can
  // keep the whole pool resident.
  result.cache_bytes = 10 * decoded_entry_bytes(2 * length);
  const auto pool = make_pool(result.pool_pairs, length, 8600);
  // hot_weight 20 over 64 pairs: 80 of 140 requests per round are hot.
  result.v2 = run_capacity_leg("capacity_v2_raw", KernelFormat::kV2Raw, pool,
                               result.hot_pairs, /*hot_weight=*/20, /*rounds=*/3,
                               result.cache_bytes);
  result.v3 = run_capacity_leg("capacity_v3_compressed", KernelFormat::kV3Compressed,
                               pool, result.hot_pairs, /*hot_weight=*/20,
                               /*rounds=*/3, result.cache_bytes);
  return result;
}

struct FrontendLeg {
  std::size_t connections = 0;
  double offered_rate = 0.0;
  OpenLoopResult open;
  FrontendStats frontend;  // timed-window delta (warm-up excluded)

  /// RETRY_AFTER frames the server sent minus kOverloaded frames the client
  /// decoded. Nonzero means an overload verdict vanished in transit -- the
  /// exact silent failure the typed-backpressure contract forbids.
  [[nodiscard]] std::int64_t shed_mismatch() const {
    return static_cast<std::int64_t>(frontend.retry_after_sent) -
           static_cast<std::int64_t>(open.overloaded);
  }
};

FrontendStats frontend_delta(const FrontendStats& before, const FrontendStats& after) {
  FrontendStats d;
  d.connections_accepted = after.connections_accepted - before.connections_accepted;
  d.connections_shed = after.connections_shed - before.connections_shed;
  d.retry_after_sent = after.retry_after_sent - before.retry_after_sent;
  d.frames_decoded = after.frames_decoded - before.frames_decoded;
  d.partial_frames = after.partial_frames - before.partial_frames;
  d.protocol_errors = after.protocol_errors - before.protocol_errors;
  d.inline_answers = after.inline_answers - before.inline_answers;
  d.pump_answers = after.pump_answers - before.pump_answers;
  return d;
}

/// Distinct kLcs request payloads over a small random pool, pre-encoded so
/// the open-loop send path does no work but a copy.
std::vector<std::string> make_frontend_payloads(int pairs, Index length) {
  static constexpr char kBases[] = {'A', 'C', 'G', 'T'};
  Rng rng(2026);
  std::vector<std::string> payloads;
  payloads.reserve(static_cast<std::size_t>(pairs));
  for (int p = 0; p < pairs; ++p) {
    Request request;
    request.op = Op::kLcs;
    for (Index i = 0; i < length; ++i) {
      request.a.push_back(static_cast<Symbol>(kBases[rng.uniform(0, 3)]));
      request.b.push_back(static_cast<Symbol>(kBases[rng.uniform(0, 3)]));
    }
    payloads.push_back(encode_request(request));
  }
  return payloads;
}

/// One open-loop measurement of a reactor over a warm engine: spins the
/// event loop on a helper thread, replays the payload pool once at a low
/// rate so the engine is warm (cold-compute samples would otherwise pollute
/// the p99 this sweep exists to compare), then fires the timed window and
/// stops the server.
FrontendLeg run_frontend_leg(std::size_t connections, double rate,
                             std::uint64_t duration_ms,
                             const std::vector<std::string>& payloads) {
  EngineOptions options;  // memory store: the sweep measures the frontend
  options.scheduler.workers = hardware_threads();
  options.scheduler.max_queue = 4096;
  ComparisonEngine engine(options);
  EngineService service(engine);

  FrontendOptions frontend;
  frontend.port = 0;
  frontend.max_connections = connections + 64;  // headroom for the warm-up conns
  frontend.idle_timeout_ms = 0;                 // legs pause between phases
  frontend.read_timeout_ms = 0;
  FrontendServer server(service, frontend);

  FrontendLeg leg;
  leg.connections = connections;
  leg.offered_rate = rate;

  std::thread loop([&server] { server.run(); });
  std::size_t warm_idx = 0;
  OpenLoopOptions warm;
  warm.port = server.port();
  warm.connections = 4;
  warm.arrival_rate = 200.0;
  warm.duration_ms = 50 * static_cast<std::uint64_t>(payloads.size());
  warm.next_payload = [&payloads, &warm_idx] {
    return payloads[warm_idx++ % payloads.size()];
  };
  (void)run_open_loop(warm);
  const FrontendStats before = server.stats();

  std::size_t idx = 0;
  OpenLoopOptions open;
  open.port = server.port();
  open.connections = connections;
  open.arrival_rate = rate;
  open.duration_ms = duration_ms;
  open.drain_ms = 5000;
  open.next_payload = [&payloads, &idx] { return payloads[idx++ % payloads.size()]; };
  leg.open = run_open_loop(open);
  leg.frontend = frontend_delta(before, server.stats());
  server.request_stop();
  loop.join();
  return leg;
}

std::vector<FrontendLeg> run_frontend_sweep(Index length) {
  // Short pairs: warm kLcs answers are cheap by design, so the socket /
  // decode / admission path is what the sweep times, not kernel compute.
  const auto payloads = make_frontend_payloads(/*pairs=*/8, std::max<Index>(64, length / 8));
  std::vector<FrontendLeg> legs;
  for (const double rate : {500.0, 1000.0, 2000.0, 4000.0}) {
    legs.push_back(run_frontend_leg(/*connections=*/128, rate, /*duration_ms=*/1000,
                                    payloads));
  }
  // The high-concurrency point: 2000 sockets on one event loop.
  legs.push_back(run_frontend_leg(/*connections=*/2000, /*rate=*/2000.0,
                                  /*duration_ms=*/1000, payloads));
  return legs;
}

// ---------------------------------------------------------------------------
// shard_sweep: the sharded serving tier (engine/shard/) measured end to end.
//
// All shards of this bench share one host's cores, so the scale legs cannot
// honestly demonstrate *compute* scaling -- that is the multi-node deployment's
// job. What a single host CAN measure is the router itself: whether it keeps
// N backends busy, spills overflow to replicas, and stays off the critical
// path. The scale legs therefore run against emulated shard nodes -- reactors
// over a sleeping Service with pump_threads=1, i.e. a
// remote node's serial service loop with its capacity pinned by latency, not
// local CPU. Every leg (1, 2, 4 shards) is offered the SAME rate, calibrated
// to ~3.2x one node's measured capacity: the 1-shard leg saturates and sheds
// typed RETRY_AFTER, the 4-shard leg must absorb nearly all of it. The
// speedup_4x_vs_1x ratio is the gated aggregate-throughput claim.
//
// The failover leg uses REAL engine backends: 3 shards, R=2, a kill of shard
// 0 mid-window, and client-side oracle verification of every kOk value. The
// gate is the router's core contract: zero wrong answers, zero stalled
// sockets, zero decode errors -- a dead backend may cost latency or a typed
// refusal, never a lie.

struct ShardLeg {
  int shards = 0;
  double offered_rate = 0.0;
  OpenLoopResult open;
  RouterStats router;

  [[nodiscard]] double throughput() const {
    return open.elapsed_s > 0 ? static_cast<double>(open.ok) / open.elapsed_s : 0.0;
  }
};

struct ShardSweepResult {
  double service_us = 0.0;       ///< emulated per-node service time
  double single_shard_rps = 0.0; ///< calibrated capacity of one node
  std::vector<ShardLeg> scale;   ///< 1, 2, 4 shards at one offered rate
  ShardLeg failover;             ///< real backends, one killed mid-window

  [[nodiscard]] double speedup() const {
    if (scale.size() < 3 || scale.front().throughput() <= 0) return 0.0;
    return scale.back().throughput() / scale.front().throughput();
  }
};

/// In-process stand-in for one remote shard node: a reactor whose single
/// pump sleeps a fixed service time per request, then answers from the
/// shared oracle table (requests carry their pool index in x).
struct EmulatedShard final : Service {
  const std::vector<Index>& oracle;
  std::uint64_t service_us;
  FrontendServer server;
  std::thread loop;

  EmulatedShard(const std::vector<Index>& oracle_table, std::uint64_t sleep_us)
      : oracle(oracle_table),
        service_us(sleep_us),
        server(*this, emulated_options()),
        loop([this] { server.run(); }) {}

  ~EmulatedShard() override {
    server.request_stop();
    loop.join();
  }

  Step begin(Request&& request, bool may_defer) override {
    if (!may_defer) return {};
    return Step{std::nullopt, [this, x = request.x](const Sink& sink) {
                  std::this_thread::sleep_for(std::chrono::microseconds(service_us));
                  Response response;
                  response.value =
                      oracle.empty() ? 0
                                     : oracle[static_cast<std::size_t>(x) % oracle.size()];
                  (void)sink(std::move(response));
                }};
  }

  static FrontendOptions emulated_options() {
    FrontendOptions frontend;
    frontend.port = 0;
    frontend.idle_timeout_ms = 0;
    frontend.read_timeout_ms = 0;
    frontend.pump_threads = 1;  // the node's serial service loop
    return frontend;
  }
};

/// kLcs payloads over distinct pairs, request.x = pool index so emulated
/// shards and the client verifier agree on the expected value.
std::vector<std::string> make_shard_payloads(int pairs, Index length,
                                             std::vector<Index>& oracle) {
  std::vector<std::string> payloads;
  for (int p = 0; p < pairs; ++p) {
    Request request;
    request.op = Op::kLcs;
    const auto base = 7000 + static_cast<std::uint64_t>(p) * 2;
    request.a = uniform_sequence(length, 4, base);
    request.b = uniform_sequence(length, 4, base + 1);
    request.x = p;
    oracle.push_back(lcs_semilocal(request.a, request.b));
    payloads.push_back(encode_request(request));
  }
  return payloads;
}

/// One scale leg: K emulated shards behind a ShardRouter behind its own
/// reactor, driven by the open-loop client with verification on.
ShardLeg run_shard_scale_leg(int shards, const std::vector<Index>& oracle,
                             const std::vector<std::string>& payloads,
                             std::uint64_t service_us, double rate,
                             std::uint64_t duration_ms) {
  ShardLeg leg;
  leg.shards = shards;
  leg.offered_rate = rate;

  std::vector<std::unique_ptr<EmulatedShard>> nodes;
  RouterOptions options;
  for (int s = 0; s < shards; ++s) {
    nodes.push_back(std::make_unique<EmulatedShard>(oracle, service_us));
    options.shards.push_back(
        ShardConfig{s, "127.0.0.1", nodes.back()->server.port(), 1});
  }
  options.replicas = 2;             // overflow from a hot shard spills over
  options.vnodes_per_weight = 128;  // tighter ring balance for the key pool
  options.pool_connections = 8;
  options.attempt_timeout_ms = 1000;
  options.retry_after_ms = 20;
  ShardRouter router(std::move(options));

  FrontendOptions frontend;
  frontend.port = 0;
  frontend.idle_timeout_ms = 0;
  frontend.read_timeout_ms = 0;
  frontend.pump_threads = 32;  // pumps block on backend RTTs: this is fan-out
  FrontendServer server(router, std::move(frontend));
  std::thread loop([&server] { server.run(); });

  std::size_t idx = 0;
  std::size_t pending = 0;
  OpenLoopOptions open;
  open.port = server.port();
  open.connections = 24;
  open.arrival_rate = rate;
  open.duration_ms = duration_ms;
  open.drain_ms = 8000;
  open.next_payload = [&payloads, &idx, &pending] {
    pending = idx++ % payloads.size();
    return payloads[pending];
  };
  open.next_expected = [&oracle, &pending] { return oracle[pending]; };
  leg.open = run_open_loop(open);
  leg.router = router.stats();
  server.request_stop();
  loop.join();
  return leg;
}

/// The failover leg: three REAL engine backends, R=2, shard 0 killed
/// mid-window. Every kOk value is oracle-checked client side.
ShardLeg run_shard_failover_leg(Index length, double rate, std::uint64_t duration_ms,
                                std::uint64_t kill_after_ms) {
  ShardLeg leg;
  leg.shards = 3;
  leg.offered_rate = rate;

  std::vector<Index> oracle;
  std::vector<std::string> payloads = make_shard_payloads(/*pairs=*/16, length, oracle);

  struct RealShard {
    ComparisonEngine engine;
    EngineService service;
    FrontendServer server;
    std::thread loop;
    RealShard()
        : engine(real_engine_options()),
          service(engine),
          server(service, real_frontend_options()),
          loop([this] { server.run(); }) {}
    ~RealShard() { stop(); }
    void stop() {
      if (loop.joinable()) {
        server.request_stop();
        loop.join();
      }
    }
    static EngineOptions real_engine_options() {
      EngineOptions options;  // memory store; the leg measures routing
      options.scheduler.workers = 1;
      options.scheduler.max_queue = 1024;
      return options;
    }
    static FrontendOptions real_frontend_options() {
      FrontendOptions frontend;
      frontend.port = 0;
      frontend.idle_timeout_ms = 0;
      frontend.read_timeout_ms = 0;
      return frontend;
    }
  };

  std::vector<std::unique_ptr<RealShard>> nodes;
  RouterOptions options;
  for (int s = 0; s < 3; ++s) {
    nodes.push_back(std::make_unique<RealShard>());
    options.shards.push_back(
        ShardConfig{s, "127.0.0.1", nodes.back()->server.port(), 1});
  }
  options.replicas = 2;
  options.attempt_timeout_ms = 1000;
  options.hedge_after_ms = 100;   // bound the tail while shard 0 dies
  options.unhealthy_after = 2;
  options.probe_interval_ms = 100;  // bench the corpse quickly
  options.retry_after_ms = 25;
  ShardRouter router(std::move(options));

  // Warm every pair through the router once so the timed window is the
  // routing path, not cold kernel compute (replica spillover after the kill
  // is the one deliberate cold path).
  for (std::size_t p = 0; p < payloads.size(); ++p) {
    Request request = decode_request(payloads[p]);
    (void)router.route(request);
  }

  FrontendOptions frontend;
  frontend.port = 0;
  frontend.idle_timeout_ms = 0;
  frontend.read_timeout_ms = 0;
  frontend.pump_threads = 16;
  FrontendServer server(router, std::move(frontend));
  std::thread loop([&server] { server.run(); });

  std::thread killer([&nodes, kill_after_ms] {
    std::this_thread::sleep_for(std::chrono::milliseconds(kill_after_ms));
    nodes[0]->stop();  // in-flight exchanges see EOF; fresh dials are refused
  });

  std::size_t idx = 0;
  std::size_t pending = 0;
  OpenLoopOptions open;
  open.port = server.port();
  open.connections = 16;
  open.arrival_rate = rate;
  open.duration_ms = duration_ms;
  open.drain_ms = 8000;
  open.next_payload = [&payloads, &idx, &pending] {
    pending = idx++ % payloads.size();
    return payloads[pending];
  };
  open.next_expected = [&oracle, &pending] { return oracle[pending]; };
  leg.open = run_open_loop(open);
  killer.join();
  leg.router = router.stats();
  server.request_stop();
  loop.join();
  return leg;
}

ShardSweepResult run_shard_sweep() {
  ShardSweepResult result;
  result.service_us = 1000.0;  // 1 ms: robust against sleep_for overshoot

  std::vector<Index> oracle;
  const auto payloads = make_shard_payloads(/*pairs=*/256, /*length=*/64, oracle);
  const auto service_us = static_cast<std::uint64_t>(result.service_us);

  // Calibrate one node's capacity by overdriving a single shard briefly.
  const double overdrive = 4.0 * 1e6 / result.service_us;
  const ShardLeg probe = run_shard_scale_leg(1, oracle, payloads, service_us,
                                             overdrive, /*duration_ms=*/700);
  result.single_shard_rps = std::max(50.0, probe.throughput());

  // One offered rate for every leg: ~3.2x a single node. The 1-shard leg
  // saturates; the 4-shard leg must absorb it (replica spillover covers ring
  // imbalance across the 256-key pool).
  const double offered = 3.2 * result.single_shard_rps;
  for (const int shards : {1, 2, 4}) {
    result.scale.push_back(run_shard_scale_leg(shards, oracle, payloads, service_us,
                                               offered, /*duration_ms=*/1000));
  }

  result.failover = run_shard_failover_leg(scaled(2000), /*rate=*/400.0,
                                           /*duration_ms=*/2200,
                                           /*kill_after_ms=*/700);
  return result;
}

void write_shard_leg(std::ofstream& out, const ShardLeg& leg, bool last) {
  const OpenLoopResult& r = leg.open;
  out << "    {\"shards\": " << leg.shards << ", \"offered_rate\": " << leg.offered_rate
      << ", \"throughput_rps\": " << leg.throughput()
      << ", \"elapsed_s\": " << r.elapsed_s
      << ",\n     \"sent\": " << r.sent << ", \"received\": " << r.received
      << ", \"ok\": " << r.ok << ", \"overloaded\": " << r.overloaded
      << ", \"errors\": " << r.errors << ", \"decode_errors\": " << r.decode_errors
      << ", \"wrong_answers\": " << r.wrong_answers
      << ", \"stalled_sockets\": " << r.stalled
      << ",\n     \"p50_ms\": " << r.p50_ms << ", \"p99_ms\": " << r.p99_ms
      << ", \"router_forwarded\": " << leg.router.forwarded
      << ", \"router_failovers\": " << leg.router.failovers
      << ", \"router_hedges\": " << leg.router.hedges
      << ", \"router_unavailable\": " << leg.router.unavailable
      << ",\n     \"per_shard\": [";
  for (std::size_t i = 0; i < r.per_shard.size(); ++i) {
    const OpenLoopShardResult& s = r.per_shard[i];
    out << (i ? ", " : "") << "{\"shard\": " << s.shard << ", \"received\": "
        << s.received << ", \"p50_ms\": " << s.p50_ms << ", \"p99_ms\": " << s.p99_ms
        << "}";
  }
  out << "]}" << (last ? "" : ",") << "\n";
}

void write_frontend_leg(std::ofstream& out, const FrontendLeg& leg, bool last) {
  const OpenLoopResult& r = leg.open;
  out << "    {\"connections\": " << leg.connections
      << ", \"offered_rate\": " << leg.offered_rate
      << ", \"achieved_rate\": " << r.achieved_rate
      << ",\n     \"sent\": " << r.sent << ", \"received\": " << r.received
      << ", \"ok\": " << r.ok << ", \"overloaded\": " << r.overloaded
      << ", \"errors\": " << r.errors << ", \"decode_errors\": " << r.decode_errors
      << ", \"closed_early\": " << r.closed_early
      << ",\n     \"stalled_sockets\": " << r.stalled
      << ", \"shed_mismatch\": " << leg.shed_mismatch()
      << ", \"connections_shed\": " << leg.frontend.connections_shed
      << ", \"retry_after_sent\": " << leg.frontend.retry_after_sent
      << ",\n     \"frames_decoded\": " << leg.frontend.frames_decoded
      << ", \"partial_frames\": " << leg.frontend.partial_frames
      << ", \"inline_answers\": " << leg.frontend.inline_answers
      << ", \"pump_answers\": " << leg.frontend.pump_answers
      << ",\n     \"p50_ms\": " << r.p50_ms << ", \"p90_ms\": " << r.p90_ms
      << ", \"p99_ms\": " << r.p99_ms << ", \"max_ms\": " << r.max_ms << "}"
      << (last ? "" : ",") << "\n";
}

void write_capacity_leg(std::ofstream& out, const CapacityLeg& leg, bool last) {
  const EngineStats& s = leg.stats;
  out << "    {\"name\": \"" << leg.name << "\", \"resident_pairs\": "
      << leg.resident_pairs << ", \"pairs_per_gb\": " << leg.pairs_per_gb
      << ", \"p50_ms\": " << leg.p50_ms << ", \"p99_ms\": " << leg.p99_ms
      << ",\n     \"disk_hits\": " << s.store.disk_hits
      << ", \"disk_errors\": " << s.store.disk_errors
      << ", \"compressed_loads\": " << s.store.compressed_loads
      << ", \"promotions\": " << s.store.promotions
      << ", \"blocks_decoded\": " << s.store.blocks_decoded + s.queries.blocks_decoded
      << ",\n     \"store_bytes_on_disk\": " << leg.bytes_on_disk
      << ", \"store_bytes_resident\": " << s.store.cache.bytes
      << ", \"compression_ratio\": " << leg.compression_ratio
      << ", \"queries_compressed\": " << s.queries.compressed
      << ", \"queries_scanned\": " << s.queries.scanned
      << ", \"mmap_fallbacks\": " << s.store.mmap_fallbacks << "}"
      << (last ? "" : ",") << "\n";
}

// plot_sweep: the alignment-plot planner measured end to end through the
// engine. One dense dot-plot (every strip cached after the first pass, so
// the timed passes isolate the query-lowering path, which is what the
// planner changes) is run twice: planner on, and the ablation that lowers
// every cell to a per-window kBatchQuery descent. The two grids must be
// bit-identical, and a sampled direct-kernel oracle pins them both to
// ground truth. The check gate enforces speedup >= 3x at stride <= 8 on a
// pair >= 4000, zero mismatches, and zero scan fallbacks on the planner leg.
struct PlotSweepResult {
  Index pair_length = 0;
  Index window = 0;
  Index stride = 0;
  Index rows = 0;
  Index cols = 0;
  double planner_windows_per_s = 0.0;
  double naive_windows_per_s = 0.0;
  std::uint64_t planner_reused_descents = 0;
  std::uint64_t planner_scan_fallbacks = 0;
  std::uint64_t naive_scan_fallbacks = 0;
  Index plot_mismatches = 0;

  [[nodiscard]] Index cells() const { return rows * cols; }
  [[nodiscard]] double speedup() const {
    return naive_windows_per_s > 0 ? planner_windows_per_s / naive_windows_per_s : 0.0;
  }
};

PlotSweepResult run_plot_sweep(Index length, Index stride, Index window) {
  PlotSweepResult r;
  r.pair_length = length;
  r.window = window;
  r.stride = stride;
  const auto a = uniform_sequence(length, 4, 91);
  const auto b = uniform_sequence(length, 4, 92);
  PlotSpec spec;
  spec.window = window;
  spec.step = stride;
  spec.rows = (static_cast<Index>(a.size()) - window) / stride + 1;
  spec.cols = (static_cast<Index>(b.size()) - window) / stride + 1;
  r.rows = spec.rows;
  r.cols = spec.cols;

  const auto run_leg = [&](bool planner, std::vector<Index>& grid,
                           EngineStats& stats) {
    EngineOptions options;
    options.plot_planner = planner;
    options.store.cache_bytes = std::size_t{1} << 30;  // every strip stays resident
    options.scheduler.workers = hardware_threads();
    options.scheduler.max_queue = 1024;
    ComparisonEngine engine(options);
    grid.assign(static_cast<std::size_t>(spec.cells()), 0);
    const auto run = [&](std::vector<Index>* sink) {
      engine.alignment_plot(a, b, spec, [&](PlotTile&& tile) {
        if (sink != nullptr) {
          const auto* src = reinterpret_cast<const unsigned char*>(tile.cells.data());
          for (std::uint32_t tr = 0; tr < tile.rows; ++tr) {
            for (std::uint32_t tc = 0; tc < tile.cols; ++tc) {
              const auto value =
                  static_cast<Index>(src[0]) | (static_cast<Index>(src[1]) << 8);
              src += 2;
              (*sink)[static_cast<std::size_t>(
                  (tile.row0 + static_cast<Index>(tr)) * spec.cols + tile.col0 +
                  static_cast<Index>(tc))] = value;
            }
          }
        }
        return true;
      });
    };
    run(&grid);  // cold pass: computes + caches every strip, captures the cells
    const double seconds = median_seconds([&] { run(nullptr); });
    stats = engine.stats();
    return static_cast<double>(spec.cells()) / seconds;
  };

  std::vector<Index> planner_grid;
  std::vector<Index> naive_grid;
  EngineStats planner_stats;
  EngineStats naive_stats;
  r.planner_windows_per_s = run_leg(true, planner_grid, planner_stats);
  r.naive_windows_per_s = run_leg(false, naive_grid, naive_stats);
  r.planner_reused_descents = planner_stats.queries.plot_reused_descents;
  r.planner_scan_fallbacks = planner_stats.queries.scanned;
  r.naive_scan_fallbacks = naive_stats.queries.scanned;

  for (std::size_t i = 0; i < planner_grid.size(); ++i) {
    if (planner_grid[i] != naive_grid[i]) ++r.plot_mismatches;
  }
  // Sampled ground-truth oracle: a few grid rows recomputed from scratch.
  for (const Index u : {Index{0}, spec.rows / 2, spec.rows - 1}) {
    const auto row_start = static_cast<std::size_t>(spec.row_start(u));
    const Sequence strip_a(a.begin() + static_cast<std::ptrdiff_t>(row_start),
                           a.begin() + static_cast<std::ptrdiff_t>(row_start + window));
    const SemiLocalKernel strip = semi_local_kernel(strip_a, b);
    for (const Index v : {Index{0}, spec.cols / 2, spec.cols - 1}) {
      const Index j0 = spec.col_start(v);
      const Index truth = kernel_string_substring(strip, j0, j0 + window);
      if (planner_grid[static_cast<std::size_t>(u * spec.cols + v)] != truth) {
        ++r.plot_mismatches;
      }
    }
  }
  return r;
}

// upsert_sweep: the incremental-corpus update path (engine/corpus_version)
// measured end to end -- update cost vs document length vs edit shape. Each
// seeded edit script runs through two managers side by side, edit by edit,
// with the same engine and store configuration: one gated (each pair takes
// the cheapest of the Cached / Resume / Whole plans) and one as the
// whole-recompute ablation, where every edited document is removed
// (untimed) before its upsert, so the corpus has no previous version to
// resume from and each pair not already in the store is recombed whole.
// Three shapes:
//
//   append_<L>  two documents of L symbols, 1000-symbol appends (one
//               chunk-wide tail strip and one compose per upsert);
//   mid_<L>     the same pair, one symbol mutated near the middle (never an
//               extension, so both runs recompute whole);
//   mixed       corpus_mixed's shape: six 3000-symbol random DNA documents,
//               60 seeded 256-symbol appends (while a document stays at
//               most 4500 symbols), mid-document patches and truncations,
//               a 2 GB cache and 4 workers.
//
// Every leg's published pair kernels are bit-compared against fresh
// semi_local_kernel computes at the end. The append crossover is the
// honest story: a fresh SIMD comb is O(mn) with a tiny constant while a
// steady-ant compose is O(N log N) with a large one, so at 8000 x 8000 the
// append wins ~2x and at 32000 the quadratic term dominates -- that larger
// point carries the >= 5x check gate. The mixed leg carries the other gate:
// on corpus-sized documents the gate must not lose to whole recompute
// (gated / whole mean CPU per upsert <= 1.1).
struct UpsertLeg {
  std::string name;
  Index doc_length = 0;     // starting document length (appends grow past it)
  std::size_t docs = 0;
  Index chunk = 0;
  int edits = 0;
  Index edit_bytes = 0;     // appended symbols per edit (0 = mid-doc mutate)
  double median_ms = 0.0;   // median per-upsert wall time
  double mean_cpu_ms = 0.0; // mean per-upsert process CPU time
  std::uint64_t chunks_computed = 0;
  std::uint64_t chunks_reused = 0;
  std::uint64_t prefix_reused = 0;
  std::uint64_t composes = 0;
  Index mismatches = 0;
};

struct UpsertSweepResult {
  Index chunk = 0;
  Index gate_length = 0;  // the doc length whose append speedup is gated
  std::vector<UpsertLeg> legs;

  [[nodiscard]] const UpsertLeg* find(const std::string& name) const {
    for (const UpsertLeg& leg : legs) {
      if (leg.name == name) return &leg;
    }
    return nullptr;
  }

  /// Whole-recompute median over gated median for one shape.
  [[nodiscard]] double speedup(const std::string& shape) const {
    const UpsertLeg* gated = find("upsert_" + shape + "_gated");
    const UpsertLeg* whole = find("upsert_" + shape + "_whole");
    if (gated == nullptr || whole == nullptr || gated->median_ms <= 0) return 0.0;
    return whole->median_ms / gated->median_ms;
  }

  [[nodiscard]] double append_speedup() const {
    return speedup("append_" + std::to_string(gate_length));
  }
  [[nodiscard]] double mid_speedup() const {
    return speedup("mid_" + std::to_string(gate_length));
  }
  /// Gated over whole mean CPU per upsert on the corpus_mixed-shaped leg
  /// (gated at <= 1.1). CPU, not wall time: whether the scheduler batches
  /// an upsert's five pair jobs on one worker or spreads them is a race
  /// that moves the wall-clock median by up to 2x for the same work.
  [[nodiscard]] double mixed_ratio() const {
    const UpsertLeg* gated = find("upsert_mixed_gated");
    const UpsertLeg* whole = find("upsert_mixed_whole");
    if (gated == nullptr || whole == nullptr || whole->mean_cpu_ms <= 0) return 0.0;
    return gated->mean_cpu_ms / whole->mean_cpu_ms;
  }

  [[nodiscard]] Index mismatches() const {
    Index total = 0;
    for (const UpsertLeg& leg : legs) total += leg.mismatches;
    return total;
  }
};

/// Mutates `docs` by one edit and returns the index of the edited document.
using UpsertEdit = std::function<std::size_t(std::vector<Sequence>& docs, Rng& rng)>;

/// One edit script through two managers side by side, each on its own
/// engine and store: gated, and the whole-recompute ablation, which removes
/// the edited document (untimed) before each upsert. Both build the corpus
/// from `docs` untimed, then take the same edits, alternating which side
/// goes first so drift in machine speed lands on both. Every published pair
/// kernel is oracle-checked at the end. Returns {gated, whole}.
std::pair<UpsertLeg, UpsertLeg> run_upsert_legs(const std::string& name,
                                                std::vector<Sequence> docs, Index chunk,
                                                int workers, std::size_t cache_bytes,
                                                int edits, Index edit_bytes,
                                                const UpsertEdit& edit) {
  namespace fs = std::filesystem;
  struct Side {
    UpsertLeg leg;
    fs::path dir;
    std::unique_ptr<ComparisonEngine> engine;
    std::unique_ptr<CorpusManager> corpus;
    std::vector<double> wall_ms;
    std::vector<double> cpu_ms;
  };
  const auto id_of = [](std::size_t d) { return "d" + std::to_string(d); };
  std::array<Side, 2> sides;  // [0] gated, [1] whole
  for (std::size_t k = 0; k < sides.size(); ++k) {
    Side& side = sides[k];
    side.leg.name = "upsert_" + name + (k == 0 ? "_gated" : "_whole");
    side.leg.doc_length = static_cast<Index>(docs.front().size());
    side.leg.docs = docs.size();
    side.leg.chunk = chunk;
    side.leg.edits = edits;
    side.leg.edit_bytes = edit_bytes;
    side.dir = fs::temp_directory_path() / ("semilocal_bench_" + side.leg.name);
    fs::remove_all(side.dir);
    EngineOptions options;
    options.store.dir = (side.dir / "store").string();
    options.store.cache_bytes = cache_bytes;  // every kernel stays resident
    options.scheduler.workers = workers;
    options.scheduler.max_queue = 1024;
    side.engine = std::make_unique<ComparisonEngine>(options);
    CorpusManagerOptions corpus_options;
    corpus_options.dir = (side.dir / "corpus").string();
    corpus_options.chunk = chunk;
    side.corpus = std::make_unique<CorpusManager>(*side.engine, corpus_options);
    for (std::size_t d = 0; d < docs.size(); ++d) {
      (void)side.corpus->upsert_document(id_of(d), docs[d]);  // untimed build
    }
  }

  Rng rng(77);
  for (int e = 0; e < edits; ++e) {
    const std::size_t d = edit(docs, rng);
    for (std::size_t turn = 0; turn < sides.size(); ++turn) {
      const std::size_t k = (turn + static_cast<std::size_t>(e)) % sides.size();
      Side& side = sides[k];
      if (k == 1) (void)side.corpus->remove_document(id_of(d));
      Timer timer;
      const std::clock_t cpu_start = std::clock();  // every thread of the process
      const UpsertReport report = side.corpus->upsert_document(id_of(d), docs[d]);
      side.cpu_ms.push_back(1e3 * static_cast<double>(std::clock() - cpu_start) /
                            CLOCKS_PER_SEC);
      side.wall_ms.push_back(timer.milliseconds());
      side.leg.chunks_computed += report.chunks_computed;
      side.leg.chunks_reused += report.chunks_reused;
      side.leg.prefix_reused += report.prefix_reused;
      side.leg.composes += report.composes;
    }
  }

  for (Side& side : sides) {
    std::sort(side.wall_ms.begin(), side.wall_ms.end());
    side.leg.median_ms = side.wall_ms[side.wall_ms.size() / 2];
    double cpu_total = 0.0;
    for (const double ms : side.cpu_ms) cpu_total += ms;
    side.leg.mean_cpu_ms = cpu_total / static_cast<double>(side.cpu_ms.size());
    // Ground truth: every published pair kernel must be bit-identical to a
    // fresh full compute over the final document bytes (ids sort as indices).
    for (std::size_t i = 0; i < docs.size(); ++i) {
      for (std::size_t j = i + 1; j < docs.size(); ++j) {
        const CachedKernelPtr published =
            side.engine->store().find(make_pair_key(docs[i], docs[j]));
        if (published == nullptr ||
            published->kernel().permutation() !=
                semi_local_kernel(docs[i], docs[j]).permutation()) {
          ++side.leg.mismatches;
        }
      }
    }
    side.corpus.reset();
    side.engine.reset();
    fs::remove_all(side.dir);
  }
  return {sides[0].leg, sides[1].leg};
}

UpsertSweepResult run_upsert_sweep() {
  UpsertSweepResult r;
  // Pinned, not scaled: the acceptance claims name exact document lengths,
  // so shrinking the geometry under SEMILOCAL_BENCH_SCALE would change the
  // experiment, not its cost.
  r.chunk = 1000;  // appends are exactly one chunk: one strip, one compose
  r.gate_length = 32000;
  const std::size_t pair_cache = std::size_t{1} << 30;
  for (const Index length : {Index{8000}, Index{32000}}) {
    const auto append = [&](std::vector<Sequence>& docs, Rng& rng) -> std::size_t {
      for (Index i = 0; i < r.chunk; ++i) {
        docs[0].push_back(static_cast<Symbol>(rng.uniform(0, 3)));
      }
      return 0;
    };
    int mid_edit = 0;
    const auto mid = [&](std::vector<Sequence>& docs, Rng&) -> std::size_t {
      // A different symbol near the middle each edit, so every upsert
      // really changes the bytes (no idempotent no-ops).
      const auto pos = static_cast<std::size_t>(length / 2 + mid_edit++);
      docs[0][pos] = static_cast<Symbol>((docs[0][pos] + 1) % 4);
      return 0;
    };
    const std::vector<Sequence> pair = {uniform_sequence(length, 4, 502),
                                        uniform_sequence(length, 4, 501)};
    for (const bool appends : {true, false}) {
      const auto [gated, whole] = run_upsert_legs(
          (appends ? "append_" : "mid_") + std::to_string(length), pair, r.chunk,
          hardware_threads(), pair_cache, /*edits=*/4, appends ? r.chunk : 0,
          appends ? UpsertEdit(append) : UpsertEdit(mid));
      r.legs.push_back(gated);
      r.legs.push_back(whole);
    }
  }

  // corpus_mixed's shape: the kind of each edit is drawn among those the
  // document's length allows, as the perfbench workload does.
  constexpr Index kBase = 3000;
  constexpr Index kMax = 4500;
  constexpr Index kEdit = 256;
  const auto mixed = [&](std::vector<Sequence>& docs, Rng& rng) -> std::size_t {
    const auto d = static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(docs.size()) - 1));
    Sequence& doc = docs[d];
    const auto len = static_cast<Index>(doc.size());
    std::vector<int> allowed = {1};                    // mid-document patch
    if (len + kEdit <= kMax) allowed.push_back(0);     // append
    if (len > kBase) allowed.push_back(2);             // truncate
    const int kind = allowed[static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(allowed.size()) - 1))];
    if (kind == 0) {
      for (Index i = 0; i < kEdit; ++i) doc.push_back(static_cast<Symbol>(rng.uniform(0, 3)));
    } else if (kind == 1) {
      const auto at = static_cast<std::size_t>(rng.uniform(0, len - kEdit - 1));
      for (Index i = 0; i < kEdit; ++i) {
        doc[at + static_cast<std::size_t>(i)] = static_cast<Symbol>(rng.uniform(0, 3));
      }
    } else {
      doc.resize(static_cast<std::size_t>(std::max(kBase, len - 2 * kEdit)));
    }
    return d;
  };
  std::vector<Sequence> corpus;
  for (std::uint64_t d = 0; d < 6; ++d) corpus.push_back(uniform_sequence(kBase, 4, 600 + d));
  const auto [gated, whole] =
      run_upsert_legs("mixed", corpus, CorpusManagerOptions{}.chunk, /*workers=*/4,
                      std::size_t{2} << 30, /*edits=*/60, kEdit, mixed);
  r.legs.push_back(gated);
  r.legs.push_back(whole);
  return r;
}

void write_upsert_leg(std::ofstream& out, const UpsertLeg& leg, bool last) {
  out << "    {\"name\": \"" << leg.name << "\", \"doc_length\": " << leg.doc_length
      << ", \"docs\": " << leg.docs << ", \"chunk\": " << leg.chunk
      << ", \"edits\": " << leg.edits << ", \"edit_bytes\": " << leg.edit_bytes
      << ", \"median_ms\": " << leg.median_ms
      << ", \"mean_cpu_ms\": " << leg.mean_cpu_ms
      << ",\n     \"chunks_computed\": " << leg.chunks_computed
      << ", \"chunks_reused\": " << leg.chunks_reused
      << ", \"prefix_reused\": " << leg.prefix_reused
      << ", \"composes\": " << leg.composes
      << ", \"mismatches\": " << leg.mismatches << "}" << (last ? "" : ",") << "\n";
}

void write_json(const std::string& path, const std::vector<MixResult>& mixes,
                const CapacityResult& capacity,
                const std::vector<FrontendLeg>& frontends,
                const ShardSweepResult& shard, const PlotSweepResult& plot,
                const UpsertSweepResult& upsert, Index length) {
  std::filesystem::create_directories(std::filesystem::path(path).parent_path());
  std::ofstream out(path);
  out << "{\n  \"workers\": " << hardware_threads() << ",\n";
  out << "  \"pair_length\": " << length << ",\n";
  out << "  \"mixes\": [\n";
  for (std::size_t i = 0; i < mixes.size(); ++i) {
    const MixResult& m = mixes[i];
    out << "    {\"name\": \"" << m.name << "\", \"requests\": " << m.requests
        << ", \"distinct_pairs\": " << m.distinct_pairs
        << ", \"client_threads\": " << m.client_threads
        << ", \"queries_per_request\": " << m.queries_per_request
        << ", \"passes\": " << m.passes
        << ", \"elapsed_s\": " << m.elapsed_s
        << ", \"throughput_req_s\": " << m.throughput()
        << ", \"queries_per_s\": " << m.queries_per_s()
        << ",\n     \"p50_ms\": " << m.p50_ms << ", \"p90_ms\": " << m.p90_ms
        << ", \"p99_ms\": " << m.p99_ms << ", \"max_ms\": " << m.max_ms
        << ",\n     \"computed\": " << m.stats.scheduler.computed
        << ", \"coalesced\": " << m.stats.scheduler.coalesced
        << ", \"cache_hits\": " << m.stats.store.cache.hits
        << ", \"cache_hit_rate\": " << m.stats.cache_hit_rate()
        << ",\n     \"queries_indexed\": " << m.stats.queries.indexed
        << ", \"queries_scanned\": " << m.stats.queries.scanned
        << ", \"index_builds\": " << m.stats.queries.index_builds << "}"
        << (i + 1 < mixes.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"capacity_sweep\": {\n"
      << "    \"pool_pairs\": " << capacity.pool_pairs
      << ", \"hot_pairs\": " << capacity.hot_pairs
      << ", \"cache_bytes\": " << capacity.cache_bytes
      << ", \"capacity_ratio\": " << capacity.capacity_ratio()
      << ", \"p50_regression\": " << capacity.p50_regression() << ",\n"
      << "    \"legs\": [\n";
  write_capacity_leg(out, capacity.v2, /*last=*/false);
  write_capacity_leg(out, capacity.v3, /*last=*/true);
  out << "  ]},\n";
  out << "  \"frontend_sweep\": {\n    \"legs\": [\n";
  for (std::size_t i = 0; i < frontends.size(); ++i) {
    write_frontend_leg(out, frontends[i], i + 1 == frontends.size());
  }
  out << "  ]},\n";
  out << "  \"plot_sweep\": {\n"
      << "    \"pair_length\": " << plot.pair_length << ", \"window\": " << plot.window
      << ", \"stride\": " << plot.stride << ", \"rows\": " << plot.rows
      << ", \"cols\": " << plot.cols << ", \"cells\": " << plot.cells() << ",\n"
      << "    \"planner_windows_per_s\": " << plot.planner_windows_per_s
      << ", \"naive_windows_per_s\": " << plot.naive_windows_per_s
      << ", \"plot_speedup\": " << plot.speedup() << ",\n"
      << "    \"planner_reused_descents\": " << plot.planner_reused_descents
      << ", \"planner_scan_fallbacks\": " << plot.planner_scan_fallbacks
      << ", \"naive_scan_fallbacks\": " << plot.naive_scan_fallbacks
      << ", \"plot_mismatches\": " << plot.plot_mismatches << "\n  },\n";
  out << "  \"upsert_sweep\": {\n"
      << "    \"chunk\": " << upsert.chunk
      << ", \"gate_length\": " << upsert.gate_length
      << ", \"upsert_speedup\": " << upsert.append_speedup()
      << ", \"upsert_mid_speedup\": " << upsert.mid_speedup()
      << ", \"upsert_crossover_speedup\": " << upsert.speedup("append_8000")
      << ", \"upsert_mixed_ratio\": " << upsert.mixed_ratio()
      << ", \"upsert_mismatches\": " << upsert.mismatches() << ",\n"
      << "    \"legs\": [\n";
  for (std::size_t i = 0; i < upsert.legs.size(); ++i) {
    write_upsert_leg(out, upsert.legs[i], i + 1 == upsert.legs.size());
  }
  out << "  ]},\n";
  out << "  \"shard_sweep\": {\n"
      << "    \"service_us\": " << shard.service_us
      << ", \"single_shard_rps\": " << shard.single_shard_rps
      << ", \"speedup_4x_vs_1x\": " << shard.speedup() << ",\n"
      << "    \"legs\": [\n";
  for (std::size_t i = 0; i < shard.scale.size(); ++i) {
    write_shard_leg(out, shard.scale[i], i + 1 == shard.scale.size());
  }
  out << "  ],\n"
      << "    \"failover\": {\"shards\": " << shard.failover.shards
      << ", \"wrong_answers\": " << shard.failover.open.wrong_answers
      << ", \"stalled_sockets\": " << shard.failover.open.stalled
      << ", \"decode_errors\": " << shard.failover.open.decode_errors
      << ", \"ok\": " << shard.failover.open.ok
      << ", \"overloaded\": " << shard.failover.open.overloaded
      << ",\n     \"router_failovers\": " << shard.failover.router.failovers
      << ", \"router_hedges\": " << shard.failover.router.hedges
      << ", \"router_unavailable\": " << shard.failover.router.unavailable
      << ", \"ring_generation\": " << shard.failover.router.ring_generation << "}\n"
      << "  }\n}\n";
  std::cout << "engine report written to " << path << "\n";
}

}  // namespace

int main() {
  const Index length = scaled(2000);
  // Client threads mostly block on futures, so run more of them than cores:
  // concurrency (and thus coalescing) should show even on small machines.
  const int threads = std::max(8, hardware_threads());

  std::vector<MixResult> mixes;
  // Cold: 64 distinct pairs, each requested exactly once.
  mixes.push_back(run_mix("cold_cache", 64, 64, threads, length, /*prewarm=*/false));
  // Warm: 16 pairs requested 512 times after a prewarm pass.
  mixes.push_back(run_mix("warm_cache", 16, 512, threads, length, /*prewarm=*/true));
  // Coalesced: 4 pairs, 256 concurrent requests against a cold engine.
  mixes.push_back(run_mix("coalesced_duplicates", 4, 256, threads, length,
                          /*prewarm=*/false));
  // Warm window sweep: 8 pairs, 128 batched requests of 4096 windows each --
  // the natural sweep shape for pairs of this length (a full sliding-window
  // profile over a 2000-symbol pair is ~4000 windows). Answered through the
  // QueryIndex and (ablation) through the scan; with a full profile per
  // frame the per-request cost (content hash + cache probe, identical on
  // both legs) amortizes away and the answer path dominates.
  // Unlike the coalescing mixes, the sweep measures pure answering
  // throughput, so it runs one client per core: oversubscribed clients only
  // add scheduler noise to an always-CPU-bound loop.
  const int sweep_threads = hardware_threads();
  mixes.push_back(run_window_sweep("warm_window_sweep_indexed", 8, 128, sweep_threads,
                                   length, /*queries_per_request=*/4096,
                                   /*use_index=*/true));
  mixes.push_back(run_window_sweep("warm_window_sweep_scan", 8, 128, sweep_threads,
                                   length, /*queries_per_request=*/4096,
                                   /*use_index=*/false));

  const CapacityResult capacity = run_capacity_sweep(length);
  const std::vector<FrontendLeg> frontends = run_frontend_sweep(length);
  const ShardSweepResult shard = run_shard_sweep();
  // The plot sweep's geometry is pinned, not scaled: the acceptance claim is
  // about stride <= 8 on a pair >= 4000, so shrinking it would change the
  // experiment rather than just its cost.
  const PlotSweepResult plot = run_plot_sweep(/*length=*/4000, /*stride=*/4,
                                              /*window=*/64);
  // Pinned for the same reason as the plot sweep: the gated claim names an
  // exact document length.
  const UpsertSweepResult upsert = run_upsert_sweep();

  Table table({"mix", "requests", "throughput_req_s", "queries_per_s", "p50_ms",
               "p99_ms", "computed", "coalesced", "cache_hit_rate", "indexed",
               "scanned"});
  for (const MixResult& m : mixes) {
    table.row()
        .cell(m.name)
        .cell(static_cast<long long>(m.requests))
        .cell(m.throughput(), 1)
        .cell(m.queries_per_s(), 0)
        .cell(m.p50_ms, 3)
        .cell(m.p99_ms, 3)
        .cell(static_cast<long long>(m.stats.scheduler.computed))
        .cell(static_cast<long long>(m.stats.scheduler.coalesced))
        .cell(m.stats.cache_hit_rate(), 3)
        .cell(static_cast<long long>(m.stats.queries.indexed))
        .cell(static_cast<long long>(m.stats.queries.scanned));
  }
  table.print(std::cout, "comparison engine serving mixes");

  Table cap({"leg", "resident_pairs", "pairs_per_gb", "p50_ms", "p99_ms",
             "compression", "promotions", "mmap_fallbacks"});
  for (const CapacityLeg* leg : {&capacity.v2, &capacity.v3}) {
    cap.row()
        .cell(leg->name)
        .cell(static_cast<long long>(leg->resident_pairs))
        .cell(leg->pairs_per_gb, 0)
        .cell(leg->p50_ms, 4)
        .cell(leg->p99_ms, 4)
        .cell(leg->compression_ratio, 2)
        .cell(static_cast<long long>(leg->stats.store.promotions))
        .cell(static_cast<long long>(leg->stats.store.mmap_fallbacks));
  }
  cap.print(std::cout, "capacity sweep (fixed cache budget)");
  std::cout << "capacity_ratio " << capacity.capacity_ratio() << "x, p50_regression "
            << 100.0 * capacity.p50_regression() << "%\n";

  Table fe({"conns", "offered_rps", "achieved_rps", "received", "overloaded",
            "stalled", "shed_mismatch", "p50_ms", "p99_ms"});
  for (const FrontendLeg& leg : frontends) {
    fe.row()
        .cell(static_cast<long long>(leg.connections))
        .cell(leg.offered_rate, 0)
        .cell(leg.open.achieved_rate, 0)
        .cell(static_cast<long long>(leg.open.received))
        .cell(static_cast<long long>(leg.open.overloaded))
        .cell(static_cast<long long>(leg.open.stalled))
        .cell(static_cast<long long>(leg.shed_mismatch()))
        .cell(leg.open.p50_ms, 3)
        .cell(leg.open.p99_ms, 3);
  }
  fe.print(std::cout, "frontend sweep (open-loop offered load)");

  Table sh({"leg", "shards", "offered_rps", "throughput_rps", "ok", "overloaded",
            "wrong", "stalled", "failovers", "p50_ms", "p99_ms"});
  const auto shard_row = [&sh](const std::string& name, const ShardLeg& leg) {
    sh.row()
        .cell(name)
        .cell(static_cast<long long>(leg.shards))
        .cell(leg.offered_rate, 0)
        .cell(leg.throughput(), 0)
        .cell(static_cast<long long>(leg.open.ok))
        .cell(static_cast<long long>(leg.open.overloaded))
        .cell(static_cast<long long>(leg.open.wrong_answers))
        .cell(static_cast<long long>(leg.open.stalled))
        .cell(static_cast<long long>(leg.router.failovers))
        .cell(leg.open.p50_ms, 3)
        .cell(leg.open.p99_ms, 3);
  };
  for (const ShardLeg& leg : shard.scale) {
    shard_row("scale_" + std::to_string(leg.shards), leg);
  }
  shard_row("failover_kill1of3", shard.failover);
  sh.print(std::cout, "shard sweep (consistent-hash router over emulated nodes)");
  std::cout << "shard speedup_4x_vs_1x " << shard.speedup() << "x (single node "
            << shard.single_shard_rps << " rps)\n";

  Table pt({"pair", "stride", "window", "cells", "planner_w_per_s",
            "naive_w_per_s", "speedup", "reused_descents", "scan_fallbacks",
            "mismatches"});
  pt.row()
      .cell(static_cast<long long>(plot.pair_length))
      .cell(static_cast<long long>(plot.stride))
      .cell(static_cast<long long>(plot.window))
      .cell(static_cast<long long>(plot.cells()))
      .cell(plot.planner_windows_per_s, 0)
      .cell(plot.naive_windows_per_s, 0)
      .cell(plot.speedup(), 2)
      .cell(static_cast<long long>(plot.planner_reused_descents))
      .cell(static_cast<long long>(plot.planner_scan_fallbacks))
      .cell(static_cast<long long>(plot.plot_mismatches));
  pt.print(std::cout, "plot sweep (warm strips: planner vs per-window lowering)");

  Table up({"leg", "doc_length", "docs", "chunk", "edits", "median_ms", "mean_cpu_ms",
            "chunks_computed",
            "chunks_reused", "prefix_reused", "composes", "mismatches"});
  for (const UpsertLeg& leg : upsert.legs) {
    up.row()
        .cell(leg.name)
        .cell(static_cast<long long>(leg.doc_length))
        .cell(static_cast<long long>(leg.docs))
        .cell(static_cast<long long>(leg.chunk))
        .cell(static_cast<long long>(leg.edits))
        .cell(leg.median_ms, 3)
        .cell(leg.mean_cpu_ms, 3)
        .cell(static_cast<long long>(leg.chunks_computed))
        .cell(static_cast<long long>(leg.chunks_reused))
        .cell(static_cast<long long>(leg.prefix_reused))
        .cell(static_cast<long long>(leg.composes))
        .cell(static_cast<long long>(leg.mismatches));
  }
  up.print(std::cout, "upsert sweep (gated upserts vs whole recompute)");
  std::cout << "upsert append speedup " << upsert.append_speedup() << "x at length "
            << upsert.gate_length << " (crossover point at 8000: "
            << upsert.speedup("append_8000") << "x), mid-edit "
            << upsert.mid_speedup() << "x, mixed gated/whole CPU " << upsert.mixed_ratio()
            << ", mismatches " << upsert.mismatches() << "\n";

  write_json("results/bench_engine.json", mixes, capacity, frontends, shard, plot,
             upsert, length);
  return 0;
}
