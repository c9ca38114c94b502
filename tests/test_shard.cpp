// Tests for the sharded serving tier (engine/shard/): hash-ring placement
// properties (statistical balance, minimal remap on add/remove, determinism
// across construction order), and the ShardRouter driven against real
// in-process backends -- replica failover when a backend dies mid-run,
// deterministic fault schedules through the Env socket seam ("shard:<id>"
// labels), hedged requests against a silent backend, backend kError and
// kOverloaded answers relayed unchanged, upserts confined to the ring
// primary, drain/undrain via kShardCtl frames, restart detection by the
// health prober, the golden router stats and health documents, one relay
// driven both by route() and by a live reactor (identical frames), and the
// per-shard pool bound under concurrent requests.
//
// The oracle discipline throughout: every kOk response must carry the exact
// client-side LCS value; a typed RETRY_AFTER (kOverloaded) is an acceptable
// refusal; a wrong value or a hang is a failure. That is the router's core
// contract under churn.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/api.hpp"
#include "engine/corpus_version.hpp"
#include "engine/engine.hpp"
#include "engine/env.hpp"
#include "engine/frontend.hpp"
#include "engine/loop.hpp"
#include "engine/protocol.hpp"
#include "engine/shard/ring.hpp"
#include "engine/shard/router.hpp"
#include "util/random.hpp"

namespace semilocal {
namespace {

using namespace std::chrono_literals;

// ---------------------------------------------------------------------------
// HashRing properties.

PairKey synthetic_key(std::uint64_t i) {
  // Sequential ids through PairKeyHash's fold and the ring's splitmix64
  // finalizer give well-spread ring points; the ring must balance them
  // without help.
  PairKey key;
  key.hash_a = i * 0x9e3779b97f4a7c15ULL + 1;
  key.hash_b = i ^ 0xdeadbeefcafef00dULL;
  key.len_a = static_cast<Index>(64 + i % 7);
  key.len_b = static_cast<Index>(64 + i % 5);
  return key;
}

std::vector<ShardConfig> equal_shards(int n) {
  std::vector<ShardConfig> shards;
  for (int i = 0; i < n; ++i) {
    shards.push_back(ShardConfig{i, "127.0.0.1", 9000 + i, 1});
  }
  return shards;
}

TEST(HashRing, BalancesRandomKeysWithinConstantFactorOfFairShare) {
  const HashRing ring(equal_shards(4));
  std::map<int, int> owned;
  constexpr int kKeys = 1000;
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    owned[ring.primary(synthetic_key(i))]++;
  }
  ASSERT_EQ(owned.size(), 4u);  // every shard owns something
  const int fair = kKeys / 4;
  for (const auto& [shard, count] : owned) {
    EXPECT_GT(count, fair / 2) << "shard " << shard << " starved";
    EXPECT_LT(count, fair * 2) << "shard " << shard << " overloaded";
  }
}

TEST(HashRing, WeightScalesOwnershipAndZeroDrains) {
  auto shards = equal_shards(3);
  shards[0].weight = 3;
  shards[2].weight = 0;  // drained
  const HashRing ring(shards);
  std::map<int, int> owned;
  for (std::uint64_t i = 0; i < 2000; ++i) owned[ring.primary(synthetic_key(i))]++;
  EXPECT_EQ(owned.count(2), 0u) << "weight-0 shard owns keys";
  // 3:1 split with slack: the heavy shard must own a clear majority.
  EXPECT_GT(owned[0], owned[1]);
  EXPECT_GT(owned[0], 2000 * 6 / 10);
}

TEST(HashRing, AddingAShardMovesKeysOnlyToTheNewShard) {
  const HashRing before(equal_shards(3));
  const HashRing after(equal_shards(4));
  int moved = 0;
  constexpr int kKeys = 1000;
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    const PairKey key = synthetic_key(i);
    const int old_id = before.shards()[static_cast<std::size_t>(before.primary(key))].id;
    const int new_id = after.shards()[static_cast<std::size_t>(after.primary(key))].id;
    if (old_id != new_id) {
      EXPECT_EQ(new_id, 3) << "key migrated between two pre-existing shards";
      ++moved;
    }
  }
  // The new shard takes roughly its fair quarter -- and nothing else moves.
  EXPECT_GT(moved, kKeys / 8);
  EXPECT_LT(moved, kKeys / 2);
}

TEST(HashRing, RemovingAShardStrandsOnlyItsOwnKeys) {
  const HashRing before(equal_shards(3));
  auto survivors = equal_shards(3);
  survivors.erase(survivors.begin() + 1);  // drop shard id 1
  const HashRing after(survivors);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const PairKey key = synthetic_key(i);
    const int old_id = before.shards()[static_cast<std::size_t>(before.primary(key))].id;
    const int new_id = after.shards()[static_cast<std::size_t>(after.primary(key))].id;
    if (old_id != 1) {
      EXPECT_EQ(new_id, old_id) << "survivor-owned key moved on removal";
    }
  }
}

TEST(HashRing, DeterministicAcrossRebuildAndConfigReordering) {
  const HashRing a(equal_shards(4));
  const HashRing b(equal_shards(4));
  auto reordered = equal_shards(4);
  std::swap(reordered[0], reordered[3]);
  std::swap(reordered[1], reordered[2]);
  const HashRing c(reordered);
  for (std::uint64_t i = 0; i < 500; ++i) {
    const PairKey key = synthetic_key(i);
    EXPECT_EQ(a.primary(key), b.primary(key));
    // Vnode points derive from the stable id, so a reordered config file
    // agrees on the owning *id* even though indices shifted.
    const int id_a = a.shards()[static_cast<std::size_t>(a.primary(key))].id;
    const int id_c = c.shards()[static_cast<std::size_t>(c.primary(key))].id;
    EXPECT_EQ(id_a, id_c);
  }
}

TEST(HashRing, ReplicaSetsAreDistinctAndPreferenceOrdered) {
  const HashRing ring(equal_shards(4));
  std::vector<int> replicas;
  for (std::uint64_t i = 0; i < 200; ++i) {
    const PairKey key = synthetic_key(i);
    ring.replicas_for(key, 2, replicas);
    ASSERT_EQ(replicas.size(), 2u);
    EXPECT_NE(replicas[0], replicas[1]);
    EXPECT_EQ(replicas[0], ring.primary(key));
    ring.replicas_for(key, 8, replicas);  // more than exist: all, each once
    EXPECT_EQ(replicas.size(), 4u);
  }
}

TEST(HashRing, RejectsDuplicateIdsAndNegativeWeights) {
  auto dup = equal_shards(2);
  dup[1].id = 0;
  EXPECT_THROW(HashRing{dup}, std::invalid_argument);
  auto negative = equal_shards(2);
  negative[0].weight = -1;
  EXPECT_THROW(HashRing{negative}, std::invalid_argument);
  EXPECT_THROW(HashRing(equal_shards(2), 0), std::invalid_argument);
}

TEST(HashRing, ParsesShardSpecs) {
  const auto shards = parse_shard_spec("9001,10.0.0.2:9002,10.0.0.3:9003:4");
  ASSERT_EQ(shards.size(), 3u);
  EXPECT_EQ(shards[0].id, 0);
  EXPECT_EQ(shards[0].host, "127.0.0.1");
  EXPECT_EQ(shards[0].port, 9001);
  EXPECT_EQ(shards[0].weight, 1);
  EXPECT_EQ(shards[1].host, "10.0.0.2");
  EXPECT_EQ(shards[1].port, 9002);
  EXPECT_EQ(shards[2].id, 2);
  EXPECT_EQ(shards[2].weight, 4);
  EXPECT_THROW(parse_shard_spec(""), std::invalid_argument);
  EXPECT_THROW(parse_shard_spec("notaport"), std::invalid_argument);
  EXPECT_THROW(parse_shard_spec("127.0.0.1:-1"), std::invalid_argument);
  EXPECT_THROW(parse_shard_spec("h:1:-2"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// ShardRouter against real in-process backends.

Sequence random_dna(Index length, Rng& rng) {
  static constexpr char kBases[] = {'A', 'C', 'G', 'T'};
  Sequence out;
  out.reserve(static_cast<std::size_t>(length));
  for (Index i = 0; i < length; ++i) {
    out.push_back(static_cast<Symbol>(kBases[rng.uniform(0, 3)]));
  }
  return out;
}

/// One in-process backend: engine + in-memory corpus + service + reactor
/// frontend + run() thread.
struct Backend {
  ComparisonEngine engine;
  CorpusManager corpus;
  EngineService service;
  FrontendServer server;
  std::thread thread;

  explicit Backend(int port = 0)
      : engine(small_engine()),
        corpus(engine, CorpusManagerOptions{}),
        service(engine, &corpus),
        server(service, frontend_on(port)),
        thread([this] { server.run(); }) {}

  ~Backend() { stop(); }

  void stop() {
    if (thread.joinable()) {
      server.request_stop();
      thread.join();
    }
  }

  [[nodiscard]] int port() const { return server.port(); }

  static EngineOptions small_engine() {
    EngineOptions options;
    options.store.dir = "";  // memory only
    options.store.cache_bytes = std::size_t{32} << 20;
    options.scheduler.workers = 2;
    options.scheduler.max_queue = 256;
    return options;
  }

  static FrontendOptions frontend_on(int port) {
    FrontendOptions options;
    options.port = port;
    options.idle_timeout_ms = 0;
    options.read_timeout_ms = 0;
    return options;
  }
};

/// A backend that accepts connections and never answers: the hedging tests'
/// straggler. Accepted sockets are held open (no EOF, no frames).
struct SilentBackend {
  int listen_fd = -1;
  int bound_port = 0;
  std::atomic<bool> stop{false};
  std::vector<int> accepted;
  std::thread thread;

  SilentBackend() {
    listen_fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(listen_fd, 16) != 0) {
      throw std::runtime_error("silent backend: bind/listen failed");
    }
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len);
    bound_port = ntohs(addr.sin_port);
    thread = std::thread([this] {
      while (!stop.load()) {
        pollfd p{listen_fd, POLLIN, 0};
        if (::poll(&p, 1, 20) <= 0) continue;
        const int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd >= 0) accepted.push_back(fd);
      }
    });
  }

  ~SilentBackend() {
    stop.store(true);
    if (thread.joinable()) thread.join();
    for (const int fd : accepted) ::close(fd);
    if (listen_fd >= 0) ::close(listen_fd);
  }
};

/// A backend that answers every request with one canned frame.
struct CannedBackend {
  struct Canned final : Service {
    explicit Canned(Response reply) : reply(std::move(reply)) {}
    Step begin(Request&&, bool) override { return Step{reply, {}}; }
    Response reply;
  } service;
  FrontendServer server;
  std::thread thread;

  explicit CannedBackend(Response reply)
      : service(std::move(reply)),
        server(service, Backend::frontend_on(0)),
        thread([this] { server.run(); }) {}

  ~CannedBackend() {
    server.request_stop();
    thread.join();
  }

  [[nodiscard]] int port() const { return server.port(); }
};

struct OraclePair {
  Sequence a;
  Sequence b;
  Index lcs = 0;
};

std::vector<OraclePair> oracle_pairs(int count, Index length, std::uint64_t seed) {
  std::vector<OraclePair> pairs;
  Rng rng(seed);
  for (int i = 0; i < count; ++i) {
    OraclePair pair;
    pair.a = random_dna(length, rng);
    pair.b = random_dna(length, rng);
    pair.lcs = lcs_semilocal(pair.a, pair.b);
    pairs.push_back(std::move(pair));
  }
  return pairs;
}

Request lcs_request(const OraclePair& pair) {
  Request request;
  request.op = Op::kLcs;
  request.a = pair.a;
  request.b = pair.b;
  return request;
}

RouterOptions router_over(const std::vector<int>& ports) {
  RouterOptions options;
  for (std::size_t i = 0; i < ports.size(); ++i) {
    options.shards.push_back(
        ShardConfig{static_cast<int>(i), "127.0.0.1", ports[i], 1});
  }
  return options;
}

/// The ring order of `key` over two shards with ids 0 and 1: the primary's
/// id first. Placement depends on the ids only, not on the ports.
std::vector<int> ring_order(const PairKey& key) {
  std::vector<int> order;
  HashRing(router_over({0, 0}).shards).replicas_for(key, 2, order);
  return order;
}

TEST(ShardRouter, RoutesOracleCheckedAnswersAndStampsShardIds) {
  Backend b0;
  Backend b1;
  ShardRouter router(router_over({b0.port(), b1.port()}));
  const auto pairs = oracle_pairs(24, 64, 7);
  std::map<int, int> served;
  for (const OraclePair& pair : pairs) {
    const Response response = router.route(lcs_request(pair));
    ASSERT_EQ(response.status, Status::kOk) << response.text;
    EXPECT_EQ(response.value, pair.lcs);
    ASSERT_GE(response.shard, 0);
    ASSERT_LE(response.shard, 1);
    served[response.shard]++;
  }
  EXPECT_EQ(served[0] + served[1], 24);
  const RouterStats stats = router.stats();
  EXPECT_EQ(stats.requests, 24u);
  EXPECT_EQ(stats.forwarded, 24u);
  EXPECT_EQ(stats.unavailable, 0u);
  EXPECT_EQ(static_cast<int>(stats.shards[0].ok), served[0]);
  EXPECT_EQ(static_cast<int>(stats.shards[1].ok), served[1]);
}

TEST(ShardRouter, AnswersPingStatsAndHealthLocally) {
  Backend b0;
  ShardRouter router(router_over({b0.port()}));
  Request ping;
  ping.op = Op::kPing;
  EXPECT_EQ(router.route(ping).status, Status::kOk);
  Request stats;
  stats.op = Op::kStats;
  const Response stats_response = router.route(stats);
  EXPECT_NE(stats_response.text.find("\"router_requests\""), std::string::npos);
  EXPECT_NE(stats_response.text.find("\"router_shards\""), std::string::npos);
  Request health;
  health.op = Op::kHealth;
  const Response health_response = router.route(health);
  EXPECT_NE(health_response.text.find("\"role\": \"router\""), std::string::npos);
  EXPECT_NE(health_response.text.find("\"pid\""), std::string::npos);
}

TEST(ShardRouter, FailsOverToTheReplicaWhenABackendDiesMidRun) {
  auto b0 = std::make_unique<Backend>();
  Backend b1;
  Backend b2;
  auto options = router_over({b0->port(), b1.port(), b2.port()});
  options.replicas = 2;
  options.attempt_timeout_ms = 2'000;
  ShardRouter router(std::move(options));

  const auto pairs = oracle_pairs(30, 64, 11);
  // Warm pass: every shard serves, pools hold live connections to b0.
  for (const OraclePair& pair : pairs) {
    const Response response = router.route(lcs_request(pair));
    ASSERT_EQ(response.status, Status::kOk);
    ASSERT_EQ(response.value, pair.lcs);
  }
  // Kill backend 0 outright: pooled connections see EOF (the in-flight
  // failover path), fresh dials see ECONNREFUSED.
  b0->stop();
  b0.reset();
  std::uint64_t overloaded = 0;
  for (int round = 0; round < 2; ++round) {
    for (const OraclePair& pair : pairs) {
      const Response response = router.route(lcs_request(pair));
      if (response.status == Status::kOverloaded) {
        ++overloaded;  // typed refusal: acceptable
        EXPECT_GT(response.retry_ms, 0);
        continue;
      }
      ASSERT_EQ(response.status, Status::kOk) << response.text;
      ASSERT_EQ(response.value, pair.lcs) << "WRONG ANSWER after backend death";
      EXPECT_NE(response.shard, 0) << "dead shard answered";
    }
  }
  const RouterStats stats = router.stats();
  EXPECT_GT(stats.failovers, 0u);
  EXPECT_EQ(overloaded, 0u) << "R=2 over 3 shards should always find a replica";
}

TEST(ShardRouter, SeededFaultScheduleNeverProducesAWrongAnswer) {
  Backend b0;
  Backend b1;
  Backend b2;
  // Deterministic schedule: half of the router's reads from shard 0 fail
  // with injected EIO, plus a scripted write fault window against shard 1.
  FaultPlan plan;
  plan.seed = 42;
  plan.clock_step_ns = 5'000'000;  // 5 ms per now_ns: deadlines stay cheap
  FaultRule read_rule;
  read_rule.op = EnvOp::kSockRead;
  read_rule.path_substring = "shard:0";
  read_rule.probability = 0.5;
  plan.rules.push_back(read_rule);
  FaultRule write_rule;
  write_rule.op = EnvOp::kSockWrite;
  write_rule.path_substring = "shard:1";
  write_rule.skip = 5;
  write_rule.count = 10;
  plan.rules.push_back(write_rule);
  FaultyEnv env(plan);

  auto options = router_over({b0.port(), b1.port(), b2.port()});
  options.replicas = 2;
  options.attempt_timeout_ms = 500;
  options.env = &env;
  ShardRouter router(std::move(options));

  const auto pairs = oracle_pairs(20, 64, 13);
  std::uint64_t ok = 0;
  std::uint64_t overloaded = 0;
  for (int round = 0; round < 5; ++round) {
    for (const OraclePair& pair : pairs) {
      const Response response = router.route(lcs_request(pair));
      if (response.status == Status::kOverloaded) {
        ++overloaded;
        continue;
      }
      ASSERT_EQ(response.status, Status::kOk) << response.text;
      ASSERT_EQ(response.value, pair.lcs) << "WRONG ANSWER under fault schedule";
      ++ok;
    }
  }
  EXPECT_GT(env.faults_injected(), 0u) << "schedule never fired";
  EXPECT_GT(ok, 0u);
  const RouterStats stats = router.stats();
  EXPECT_GT(stats.failovers + stats.unavailable + overloaded, 0u)
      << "faults fired but the router never noticed";
  // Replay determinism: the injected-fault trace is a pure function of the
  // plan and the call sequence; at minimum it must be non-empty and render.
  EXPECT_FALSE(env.trace_text().empty());
}

TEST(ShardRouter, HedgedRequestWinsAgainstASilentBackend) {
  SilentBackend silent;
  Backend live;
  auto options = router_over({silent.bound_port, live.port()});
  options.replicas = 2;
  options.hedge_after_ms = 20;
  options.attempt_timeout_ms = 3'000;
  ShardRouter router(std::move(options));

  const auto pairs = oracle_pairs(16, 64, 17);
  for (const OraclePair& pair : pairs) {
    const Response response = router.route(lcs_request(pair));
    ASSERT_EQ(response.status, Status::kOk) << response.text;
    ASSERT_EQ(response.value, pair.lcs);
    EXPECT_EQ(response.shard, 1) << "the silent shard cannot have answered";
  }
  const RouterStats stats = router.stats();
  // Keys whose primary is the silent shard only complete via the hedge.
  EXPECT_GT(stats.hedges, 0u);
  EXPECT_GT(stats.hedge_wins, 0u);
  EXPECT_EQ(stats.unavailable, 0u);
}

TEST(ShardRouter, ExhaustedReplicasYieldTypedRetryAfterNeverAStall) {
  // Nothing listens on either port: every dial fails fast.
  auto options = router_over({1, 2});
  for (auto& shard : options.shards) shard.port = 59'998 + shard.id;
  options.replicas = 2;
  options.retry_after_ms = 75;
  ShardRouter router(std::move(options));
  const auto pairs = oracle_pairs(3, 48, 19);
  for (const OraclePair& pair : pairs) {
    const Response response = router.route(lcs_request(pair));
    EXPECT_EQ(response.status, Status::kOverloaded);
    EXPECT_EQ(response.retry_ms, 75);
  }
  EXPECT_EQ(router.stats().unavailable, 3u);
}

TEST(ShardRouter, RelaysBackendErrorAndRetryAfterAnswersUnchanged) {
  // A backend's kError or kOverloaded is its answer, not a shard failure:
  // the router relays it and never tries the replica.
  const OraclePair pair = oracle_pairs(1, 64, 37)[0];
  const std::vector<int> order = ring_order(make_pair_key(pair.a, pair.b));
  ASSERT_EQ(order.size(), 2u);
  const auto stub_id = static_cast<std::size_t>(order[0]);
  const auto live_id = static_cast<std::size_t>(order[1]);
  for (const Response& canned :
       {error_response("stub: bad request"), overloaded_response(7, "stub: shedding")}) {
    CannedBackend stub(canned);
    Backend live;
    std::vector<int> ports(2);
    ports[stub_id] = stub.port();
    ports[live_id] = live.port();
    auto options = router_over(ports);
    options.replicas = 2;
    ShardRouter router(std::move(options));

    const Response response = router.route(lcs_request(pair));
    EXPECT_EQ(response.status, canned.status);
    EXPECT_EQ(response.text, canned.text);
    EXPECT_EQ(response.retry_ms, canned.retry_ms);
    EXPECT_EQ(response.shard, static_cast<int>(stub_id));
    const RouterStats stats = router.stats();
    EXPECT_EQ(stats.forwarded, 1u);
    EXPECT_EQ(stats.failovers, 0u);
    EXPECT_EQ(stats.unavailable, 0u);
    EXPECT_EQ(stats.shards[stub_id].ok, 1u);
    EXPECT_EQ(stats.shards[stub_id].errors, 0u);
    EXPECT_EQ(stats.shards[live_id].requests, 0u);
  }
}

TEST(ShardRouter, UpsertFailingOnItsPrimaryIsNeverWrittenToTheReplica) {
  // Seeded reproducer: the primary commits the upsert, then the router's
  // read of its answer fails. The client must get RETRY_AFTER and the
  // replica must never see the document -- a second copy written there would
  // diverge from the primary's on the next update.
  Backend b0;
  Backend b1;
  Backend* backends[] = {&b0, &b1};
  Rng rng(43);
  const Sequence base = random_dna(64, rng);
  for (Backend* backend : backends) (void)backend->corpus.upsert_document("base", base);

  const std::string id = "doc";
  const std::vector<int> order = ring_order(make_pair_key(to_sequence(id), {}));
  ASSERT_EQ(order.size(), 2u);
  Backend& primary = *backends[order[0]];
  Backend& replica = *backends[order[1]];

  FaultPlan plan;
  plan.clock_step_ns = 100'000;
  FaultRule rule;
  rule.op = EnvOp::kSockRead;
  rule.path_substring = "shard:" + std::to_string(order[0]);
  rule.skip = 0;
  rule.count = 1;
  plan.rules.push_back(rule);
  FaultyEnv env(plan);
  auto options = router_over({b0.port(), b1.port()});
  options.replicas = 2;
  options.env = &env;
  ShardRouter router(std::move(options));

  Request upsert;
  upsert.op = Op::kUpsert;
  upsert.a = to_sequence(id);
  upsert.b = random_dna(64, rng);
  const Response response = router.route(upsert);
  EXPECT_EQ(env.faults_injected(), 1u);
  EXPECT_EQ(response.status, Status::kOverloaded) << response.text;
  EXPECT_GT(response.retry_ms, 0);
  EXPECT_TRUE(primary.corpus.version(id).has_value()) << "the primary never committed";
  EXPECT_FALSE(replica.corpus.version(id).has_value()) << "upsert written to a replica";
  for (const CorpusIndexEntry& entry : replica.corpus.index_entries()) {
    EXPECT_NE(entry.id_a, id);
    EXPECT_NE(entry.id_b, id);
  }
  EXPECT_EQ(router.stats().failovers, 0u);
}

TEST(ShardRouter, DrainStopsNewTrafficAndUndrainRestoresIt) {
  Backend b0;
  Backend b1;
  ShardRouter router(router_over({b0.port(), b1.port()}));
  const auto pairs = oracle_pairs(30, 64, 23);

  ASSERT_TRUE(router.drain(0));
  EXPECT_EQ(router.stats().ring_generation, 1u);
  for (const OraclePair& pair : pairs) {
    const Response response = router.route(lcs_request(pair));
    ASSERT_EQ(response.status, Status::kOk);
    ASSERT_EQ(response.value, pair.lcs);
    EXPECT_EQ(response.shard, 1) << "drained shard took new traffic";
  }

  ASSERT_TRUE(router.undrain(0));
  EXPECT_EQ(router.stats().ring_generation, 2u);
  std::map<int, int> served;
  for (const OraclePair& pair : pairs) {
    const Response response = router.route(lcs_request(pair));
    ASSERT_EQ(response.status, Status::kOk);
    served[response.shard]++;
  }
  EXPECT_GT(served[0], 0) << "undrained shard never rejoined";

  EXPECT_FALSE(router.drain(9));  // unknown id
  EXPECT_FALSE(router.set_weight(0, -1));
}

TEST(ShardRouter, ShardCtlFramesDriveDrainWeightAndStatus) {
  Backend b0;
  Backend b1;
  ShardRouter router(router_over({b0.port(), b1.port()}));

  Request status;
  status.op = Op::kShardCtl;
  status.x = static_cast<Index>(ShardCtl::kStatus);
  const Response status_response = router.route(status);
  ASSERT_EQ(status_response.status, Status::kOk);
  EXPECT_NE(status_response.text.find("\"router_ring_generation\": 0"),
            std::string::npos);

  Request drain;
  drain.op = Op::kShardCtl;
  drain.x = static_cast<Index>(ShardCtl::kDrain);
  drain.y = 1;
  ASSERT_EQ(router.route(drain).status, Status::kOk);
  EXPECT_TRUE(router.stats().shards[1].drained);

  Request weight;
  weight.op = Op::kShardCtl;
  weight.x = static_cast<Index>(ShardCtl::kWeight);
  weight.y = 0;
  weight.a = to_sequence("5");
  ASSERT_EQ(router.route(weight).status, Status::kOk);
  EXPECT_EQ(router.stats().shards[0].weight, 5);

  Request undrain;
  undrain.op = Op::kShardCtl;
  undrain.x = static_cast<Index>(ShardCtl::kUndrain);
  undrain.y = 1;
  ASSERT_EQ(router.route(undrain).status, Status::kOk);
  EXPECT_FALSE(router.stats().shards[1].drained);
  EXPECT_EQ(router.stats().shards[1].weight, 1);

  Request bogus;
  bogus.op = Op::kShardCtl;
  bogus.x = static_cast<Index>(ShardCtl::kDrain);
  bogus.y = 42;
  EXPECT_EQ(router.route(bogus).status, Status::kError);
  Request bad_weight;
  bad_weight.op = Op::kShardCtl;
  bad_weight.x = static_cast<Index>(ShardCtl::kWeight);
  bad_weight.y = 0;
  bad_weight.a = to_sequence("pony");
  EXPECT_EQ(router.route(bad_weight).status, Status::kError);
}

TEST(ShardRouter, ProbesBenchAndRecoverBackendsAndCountRestarts) {
  auto b0 = std::make_unique<Backend>();
  Backend b1;
  const int port0 = b0->port();
  auto options = router_over({port0, b1.port()});
  options.unhealthy_after = 3;
  options.attempt_timeout_ms = 500;
  ShardRouter router(std::move(options));

  // Give backend 0 some measurable uptime, then record its identity.
  std::this_thread::sleep_for(150ms);
  router.probe_all();
  {
    const RouterStats stats = router.stats();
    EXPECT_TRUE(stats.shards[0].healthy);
    EXPECT_GT(stats.shards[0].last_pid, 0);
  }

  b0->stop();
  b0.reset();
  for (int i = 0; i < 3; ++i) router.probe_all();
  EXPECT_FALSE(router.stats().shards[0].healthy);
  EXPECT_GE(router.stats().shards[0].probe_failures, 3u);

  // A "restarted" backend on the same port: same pid (in-process), but its
  // uptime runs backwards -- the probe's other restart signal.
  Backend reborn(port0);
  router.probe_all();
  const RouterStats stats = router.stats();
  EXPECT_TRUE(stats.shards[0].healthy) << "probe success must un-bench";
  EXPECT_GE(stats.shards[0].restarts, 1u);

  // And traffic flows to it again.
  const auto pairs = oracle_pairs(8, 64, 29);
  for (const OraclePair& pair : pairs) {
    const Response response = router.route(lcs_request(pair));
    ASSERT_EQ(response.status, Status::kOk);
    ASSERT_EQ(response.value, pair.lcs);
  }
}

TEST(ShardRouter, ProberWaitingALongIntervalStopsAtOnceOnDestruction) {
  Backend backend;
  auto options = router_over({backend.port()});
  options.probe_interval_ms = 60'000;
  auto router = std::make_unique<ShardRouter>(std::move(options));
  // The first pass runs at once; after it the prober waits out 60 s.
  const auto until = std::chrono::steady_clock::now() + 5s;
  while (router->stats().shards[0].probes == 0 && std::chrono::steady_clock::now() < until) {
    std::this_thread::sleep_for(2ms);
  }
  ASSERT_EQ(router->stats().shards[0].probes, 1u);
  const auto start = std::chrono::steady_clock::now();
  router.reset();
  EXPECT_LT(std::chrono::steady_clock::now() - start, 1s);
}

TEST(ShardRouter, ServesThroughTheHandlerModeFrontendWithStatsSplice) {
  Backend b0;
  Backend b1;
  ShardRouter router(router_over({b0.port(), b1.port()}));
  FrontendOptions frontend;
  frontend.port = 0;
  frontend.idle_timeout_ms = 0;
  frontend.read_timeout_ms = 0;
  FrontendServer server(router, std::move(frontend));
  std::thread thread([&server] { server.run(); });

  // A raw client against the router's own reactor: the full wire path.
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(server.port()));
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  const auto exchange = [&](const Request& request) {
    const std::string frame = frame_payload(encode_request(request));
    EXPECT_EQ(::write(fd, frame.data(), frame.size()),
              static_cast<ssize_t>(frame.size()));
    FrameDecoder decoder;
    std::string payload;
    char buf[1 << 14];
    while (payload.empty()) {
      const auto n = ::read(fd, buf, sizeof(buf));
      if (n <= 0) break;
      decoder.feed(std::string_view(buf, static_cast<std::size_t>(n)),
                   [&](std::string_view p, bool) { payload.assign(p); });
    }
    return decode_response(payload);
  };

  const auto pairs = oracle_pairs(6, 64, 31);
  for (const OraclePair& pair : pairs) {
    const Response response = exchange(lcs_request(pair));
    ASSERT_EQ(response.status, Status::kOk);
    EXPECT_EQ(response.value, pair.lcs);
    EXPECT_GE(response.shard, 0);
  }
  Request stats;
  stats.op = Op::kStats;
  const Response stats_response = exchange(stats);
  // Both layers in one document: router_* from the router service,
  // frontend_* from the reactor's splice.
  EXPECT_NE(stats_response.text.find("\"router_forwarded\""), std::string::npos);
  EXPECT_NE(stats_response.text.find("\"frontend_connections\""), std::string::npos);
  // Every relayed request is loop work that ended in a terminal frame.
  EXPECT_EQ(router.stats().forwarded, pairs.size());
  EXPECT_EQ(server.stats().pump_answers, router.stats().forwarded);

  ::close(fd);
  server.request_stop();
  thread.join();
}

/// A router behind its own reactor, the way semilocal_router serves it.
struct ServedRouter {
  ShardRouter router;
  FrontendServer server;
  std::thread thread;

  explicit ServedRouter(RouterOptions options, FrontendOptions frontend = Backend::frontend_on(0))
      : router(std::move(options)),
        server(router, std::move(frontend)),
        thread([this] { server.run(); }) {}

  ~ServedRouter() {
    server.request_stop();
    thread.join();
  }
};

/// One blocking client connection: send a request, read its one response.
class RawClient {
 public:
  explicit RawClient(int port) : fd_(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0)) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      throw std::runtime_error("client connect failed");
    }
  }
  ~RawClient() { ::close(fd_); }
  RawClient(const RawClient&) = delete;
  RawClient& operator=(const RawClient&) = delete;

  Response exchange(const Request& request) {
    const std::string frame = frame_payload(encode_request(request));
    if (::write(fd_, frame.data(), frame.size()) != static_cast<ssize_t>(frame.size())) {
      throw std::runtime_error("client write failed");
    }
    FrameDecoder decoder;
    std::string payload;
    bool done = false;
    char buf[1 << 14];
    while (!done) {
      const auto n = ::read(fd_, buf, sizeof(buf));
      if (n <= 0) throw std::runtime_error("client read failed");
      decoder.feed(std::string_view(buf, static_cast<std::size_t>(n)),
                   [&](std::string_view p, bool) {
                     payload.assign(p);
                     done = true;
                   });
    }
    return decode_response(payload);
  }

 private:
  int fd_;
};

void expect_same_frame(const Response& routed, const Response& served, const char* what) {
  EXPECT_EQ(routed.status, served.status) << what;
  EXPECT_EQ(routed.value, served.value) << what;
  EXPECT_EQ(routed.retry_ms, served.retry_ms) << what;
  EXPECT_EQ(routed.text, served.text) << what;
  EXPECT_EQ(routed.values, served.values) << what;
  EXPECT_EQ(routed.shard, served.shard) << what;
  EXPECT_EQ(routed.tile.has_value(), served.tile.has_value()) << what;
}

TEST(ShardRouter, RouteAndServedRelayReturnIdenticalFrames) {
  // One relay, two drivers: route() on the caller's thread and a live
  // reactor over the router must hand back the same frame for the same
  // request, shard stamp included. Each driver gets its own fresh pair of
  // backends, so even an upsert (which bumps a version) answers alike.
  const OraclePair pair = oracle_pairs(1, 64, 41)[0];
  Request lcs = lcs_request(pair);
  Request batch = lcs_request(pair);
  batch.op = Op::kBatchQuery;
  batch.windows = {WindowQuery{QueryKind::kLcs, 0, 0},
                   WindowQuery{QueryKind::kStringSubstring, 3, 40},
                   WindowQuery{QueryKind::kSubstringString, 10, 20}};
  Request bad = lcs_request(pair);  // a window past the end: the backend's kError
  bad.op = Op::kStringSubstring;
  bad.x = 10;
  bad.y = 999;
  Request upsert;
  upsert.op = Op::kUpsert;
  upsert.a = to_sequence("doc");
  upsert.b = pair.b;
  const std::vector<std::pair<const char*, const Request*>> requests = {
      {"lcs", &lcs}, {"batch", &batch}, {"error", &bad}, {"upsert", &upsert}};

  std::vector<Response> routed;
  {
    Backend b0;
    Backend b1;
    ShardRouter router(router_over({b0.port(), b1.port()}));
    for (const auto& [name, request] : requests) routed.push_back(router.route(*request));
  }
  std::vector<Response> served;
  {
    Backend b0;
    Backend b1;
    ServedRouter rig(router_over({b0.port(), b1.port()}));
    RawClient client(rig.server.port());
    for (const auto& [name, request] : requests) served.push_back(client.exchange(*request));
    EXPECT_EQ(rig.router.stats().forwarded, requests.size());
  }
  ASSERT_EQ(routed.size(), served.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    expect_same_frame(routed[i], served[i], requests[i].first);
  }
  EXPECT_EQ(routed[0].status, Status::kOk);
  EXPECT_EQ(routed[0].value, pair.lcs);
  EXPECT_EQ(routed[1].values.size(), 3u);
  EXPECT_EQ(routed[2].status, Status::kError);
  EXPECT_FALSE(routed[2].text.empty());
  EXPECT_EQ(routed[3].status, Status::kOk) << routed[3].text;
  EXPECT_EQ(routed[3].value, 1);
  for (const Response& response : routed) EXPECT_GE(response.shard, 0);
}

/// A backend that holds every request until the test opens its latch, and
/// records the most exchanges it ever held at once.
struct LatchedBackend {
  struct Held final : Service {
    /// One held exchange: loop work that answers 1 once the latch opens.
    struct Hold final : LoopWork {
      Held& held;
      FrameOut* out = nullptr;
      explicit Hold(Held& h) : held(h) {}
      ~Hold() override { cancel(); }
      void start(EventLoop& loop, FrameOut& o) override {
        out = &o;
        held.park(loop, *this);
      }
      void resume() override {}
      void cancel() override { held.unpark(*this); }
      void answer() {
        Response response;
        response.value = 1;
        (void)out->frame(frame_payload(encode_response(response)), /*terminal=*/true);
      }
    };

    std::mutex mutex;
    bool open = false;
    int active = 0;
    int peak = 0;
    std::vector<Hold*> parked;         ///< the loop's thread, under mutex
    const EventLoop* loop = nullptr;  ///< where the held exchanges run

    Step begin(Request&&, bool may_defer) override {
      if (!may_defer) return {};
      return Step{std::nullopt, std::make_unique<Hold>(*this)};
    }

    void park(const EventLoop& on, Hold& hold) {
      {
        std::lock_guard lock(mutex);
        if (!open) {
          loop = &on;
          peak = std::max(peak, ++active);
          parked.push_back(&hold);
          return;
        }
      }
      hold.answer();
    }

    void unpark(Hold& hold) {
      std::lock_guard lock(mutex);
      const auto it = std::find(parked.begin(), parked.end(), &hold);
      if (it == parked.end()) return;
      parked.erase(it);
      --active;
    }

    /// Opens the latch; the held exchanges answer on their loop.
    void release() {
      const EventLoop* on = nullptr;
      {
        std::lock_guard lock(mutex);
        open = true;
        on = loop;
      }
      if (on == nullptr) return;
      on->post([this] {
        std::vector<Hold*> ready;
        {
          std::lock_guard lock(mutex);
          ready.swap(parked);
          active -= static_cast<int>(ready.size());
        }
        for (Hold* hold : ready) hold->answer();
      });
    }
  } service;
  FrontendServer server;
  std::thread thread;

  LatchedBackend()
      : server(service, Backend::frontend_on(0)), thread([this] { server.run(); }) {}
  ~LatchedBackend() {
    service.release();
    server.request_stop();
    thread.join();
  }
};

TEST(ShardRouter, PoolBoundsInFlightExchangesAndTimesOutWaiters) {
  // pool_connections = 2 bounds the exchanges one shard sees, whichever
  // driver sends. Five concurrent requests: two reach the backend and wait
  // on its latch; three find no connection free, wait connect_timeout_ms
  // and get the exhausted path's RETRY_AFTER. Then the latch opens and the
  // two held requests answer.
  constexpr int kRequests = 5;
  const OraclePair pair = oracle_pairs(1, 32, 53)[0];
  for (const bool served : {false, true}) {
    SCOPED_TRACE(served ? "served" : "route()");
    LatchedBackend backend;
    RouterOptions options = router_over({backend.server.port()});
    options.pool_connections = 2;
    options.connect_timeout_ms = 300;
    options.attempt_timeout_ms = 20'000;
    options.retry_after_ms = 9;
    FrontendOptions frontend = Backend::frontend_on(0);
    ServedRouter rig(std::move(options), std::move(frontend));

    std::atomic<int> ok{0};
    std::atomic<int> overloaded{0};
    std::vector<std::thread> clients;
    for (int i = 0; i < kRequests; ++i) {
      clients.emplace_back([&] {
        Response response;
        if (served) {
          RawClient client(rig.server.port());
          response = client.exchange(lcs_request(pair));
        } else {
          response = rig.router.route(lcs_request(pair));
        }
        if (response.status == Status::kOk && response.value == 1) ++ok;
        if (response.status == Status::kOverloaded && response.retry_ms == 9) ++overloaded;
      });
    }
    const auto until = std::chrono::steady_clock::now() + 10s;
    while (overloaded.load() < kRequests - 2 && std::chrono::steady_clock::now() < until) {
      std::this_thread::sleep_for(5ms);
    }
    EXPECT_EQ(ok.load(), 0) << "a held request answered before the latch opened";
    backend.service.release();
    for (std::thread& client : clients) client.join();
    EXPECT_EQ(ok.load(), 2);
    EXPECT_EQ(overloaded.load(), kRequests - 2);
    std::lock_guard lock(backend.service.mutex);
    EXPECT_EQ(backend.service.peak, 2) << "the pool let more exchanges through";
  }
}

TEST(ShardRouter, StatsAndHealthDocumentsGolden) {
  // No backend is ever dialed: only local ops and admin edits. A clock that
  // never advances pins uptime_ms at 0.
  FaultPlan plan;
  plan.clock_step_ns = 0;
  FaultyEnv env(plan);
  RouterOptions options = router_over({1, 2});
  options.shards[1].weight = 2;
  options.env = &env;
  ShardRouter router(options);
  ASSERT_TRUE(router.set_weight(1, 3));
  ASSERT_TRUE(router.drain(0));
  const std::string shard_zeros =
      "\"requests\": 0, \"ok\": 0, \"errors\": 0, \"hedges\": 0, \"hedge_wins\": 0, "
      "\"failovers\": 0, \"restarts\": 0, \"probes\": 0, \"probe_failures\": 0, "
      "\"last_pid\": 0, \"last_uptime_ms\": 0}";
  EXPECT_EQ(router.stats_json(),
            "{\"router_requests\": 0, \"router_forwarded\": 0, \"router_failovers\": 0, "
            "\"router_hedges\": 0, \"router_hedge_wins\": 0, \"router_unavailable\": 0, "
            "\"router_probes\": 0, \"router_probe_failures\": 0, "
            "\"router_ring_generation\": 2, \"router_shards\": ["
            "{\"id\": 0, \"weight\": 0, \"healthy\": 1, \"drained\": 1, " +
                shard_zeros + ", {\"id\": 1, \"weight\": 3, \"healthy\": 1, \"drained\": 0, " +
                shard_zeros + "]}");
  Request health;
  health.op = Op::kHealth;
  EXPECT_EQ(router.route(health).text,
            "{\"stats_version\": 2, \"pid\": " + std::to_string(::getpid()) +
                ", \"uptime_ms\": 0, \"role\": \"router\", \"ring_generation\": 2}");
}

}  // namespace
}  // namespace semilocal
