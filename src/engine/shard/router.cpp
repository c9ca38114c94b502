#include "engine/shard/router.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "engine/engine.hpp"  // kStatsVersion
#include "util/json.hpp"

namespace semilocal {

ShardRouter::ShardRouter(RouterOptions options)
    : options_(std::move(options)),
      env_(options_.env ? options_.env : &real_env()),
      start_ns_(env_->now_ns()) {
  if (options_.shards.empty()) {
    throw std::invalid_argument("router: empty shard config");
  }
  for (const ShardConfig& config : options_.shards) {
    auto shard = std::make_unique<Shard>();
    shard->config = config;
    shard->pre_drain_weight = std::max(1, config.weight);
    BackendOptions backend;
    backend.host = config.host;
    backend.port = config.port;
    backend.shard_id = config.id;
    backend.max_connections = options_.pool_connections;
    backend.connect_timeout_ms = options_.connect_timeout_ms;
    backend.env = env_;
    shard->pool = std::make_unique<BackendPool>(std::move(backend));
    shards_.push_back(std::move(shard));
  }
  {
    std::lock_guard lock(ring_mutex_);
    rebuild_ring();
    generation_.store(0, std::memory_order_relaxed);  // construction is gen 0
  }
  if (options_.probe_interval_ms > 0) {
    prober_ = std::thread([this] { prober_loop(); });
  }
}

ShardRouter::~ShardRouter() {
  stop_prober_.store(true, std::memory_order_relaxed);
  if (prober_.joinable()) prober_.join();
}

void ShardRouter::rebuild_ring() {
  std::vector<ShardConfig> configs;
  configs.reserve(shards_.size());
  for (const auto& shard : shards_) configs.push_back(shard->config);
  ring_ = std::make_shared<const HashRing>(std::move(configs),
                                           options_.vnodes_per_weight);
  generation_.fetch_add(1, std::memory_order_relaxed);
}

std::shared_ptr<const HashRing> ShardRouter::ring() const {
  std::lock_guard lock(ring_mutex_);
  return ring_;
}

void ShardRouter::record_failure(Shard& shard) {
  const int failures = shard.consecutive_failures.fetch_add(1, std::memory_order_relaxed) + 1;
  if (failures >= options_.unhealthy_after) {
    shard.healthy.store(false, std::memory_order_relaxed);
  }
}

void ShardRouter::record_success(Shard& shard) {
  shard.consecutive_failures.store(0, std::memory_order_relaxed);
  shard.healthy.store(true, std::memory_order_relaxed);
}

std::optional<Response> ShardRouter::control(const Request& request) {
  switch (request.op) {
    case Op::kPing:
      return Response{};  // the router itself is alive
    case Op::kStats: {
      Response response;
      response.text = stats_json();
      return response;
    }
    case Op::kHealth:
      return router_health();
    case Op::kShardCtl:
      return shardctl(request);
    default:
      return std::nullopt;
  }
}

Step ShardRouter::begin(Request&& request, bool may_defer) {
  if (auto answer = control(request)) return Step{std::move(answer), {}};
  if (!may_defer) return {};
  return Step{std::nullopt, [this, request = std::move(request)](const Sink& sink) {
                route_stream(request, sink);
              }};
}

Response ShardRouter::route(const Request& request) {
  if (auto answer = control(request)) return std::move(*answer);
  // A unary op is a stream of exactly one frame.
  Response answer;
  route_stream(request, [&answer](Response&& frame) {
    answer = std::move(frame);
    return false;
  });
  return answer;
}

Response ShardRouter::router_health() const {
  Response response;
  response.text = Json()
                      .begin_object()
                      .field("stats_version", kStatsVersion)
                      .field("pid", ::getpid())
                      .field("uptime_ms", (env_->now_ns() - start_ns_) / 1'000'000)
                      .field("role", "router")
                      .field("ring_generation", generation_.load(std::memory_order_relaxed))
                      .end_object()
                      .str();
  return response;
}

BackendPool::ConnPtr ShardRouter::lease_and_send(Shard& shard, std::string_view payload) {
  BackendPool::ConnPtr conn =
      shard.pool->acquire(env_->now_ns() + options_.connect_timeout_ms * 1'000'000);
  if (conn && !send_frame(*env_, *conn, payload,
                          env_->now_ns() + options_.attempt_timeout_ms * 1'000'000)) {
    shard.pool->discard(std::move(conn));
  }
  return conn;
}

RecvStatus ShardRouter::next_frame(const std::vector<BackendPool::Conn*>& conns,
                                   std::uint64_t deadline_ns, int& winner, Response& response) {
  std::string frame;
  const RecvStatus status = recv_first(*env_, conns, deadline_ns, winner, frame);
  if (status != RecvStatus::kOk) return status;
  try {
    response = decode_response(frame);
  } catch (const ProtocolError&) {
    return RecvStatus::kError;  // a garbled response is a shard failure, not a client error
  }
  return RecvStatus::kOk;
}

void ShardRouter::route_stream(const Request& request, const Sink& sink) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  // Upserts hash on the document id alone so every version of a document --
  // whatever its bytes -- lands on one shard's corpus, and they go to that
  // primary only: an upsert replayed on a replica after the primary may have
  // committed it would leave two copies that diverge. Pair queries keep the
  // full-content key and the whole replica list.
  const bool upsert = request.op == Op::kUpsert;
  const PairKey key = upsert ? make_pair_key(request.a, {})
                             : make_pair_key(request.a, request.b);
  std::vector<int> candidates;
  ring()->replicas_for(key, upsert ? 1 : std::max(1, options_.replicas), candidates);
  // Benched shards go to the back of the preference list, ring order
  // otherwise preserved -- they are a last resort, not gone (probes may be
  // stale, and a fully-benched fleet should still try rather than blackhole).
  std::stable_partition(candidates.begin(), candidates.end(), [&](int i) {
    return shards_[static_cast<std::size_t>(i)]->healthy.load(std::memory_order_relaxed);
  });
  if (candidates.empty()) {
    unavailable_.fetch_add(1, std::memory_order_relaxed);
    (void)sink(overloaded_response(options_.retry_after_ms, "ring is empty (all drained)"));
    return;
  }
  const std::string payload = encode_request(request);
  const std::uint64_t attempt_ns = options_.attempt_timeout_ms * 1'000'000;
  const bool plot = request.op == Op::kAlignmentPlot;

  std::vector<Attempt> live;
  std::size_t next = 0;
  /// Sends to the next candidate; skips candidates that fail at dial or send
  /// time (each one recorded). false = list exhausted.
  const auto launch = [&](bool hedged) -> bool {
    while (next < candidates.size()) {
      const auto s = static_cast<std::size_t>(candidates[next]);
      const std::size_t rank = next++;
      Shard& shard = *shards_[s];
      shard.requests.fetch_add(1, std::memory_order_relaxed);
      if (hedged) {
        shard.hedges.fetch_add(1, std::memory_order_relaxed);
        hedges_.fetch_add(1, std::memory_order_relaxed);
      }
      BackendPool::ConnPtr conn = lease_and_send(shard, payload);
      if (!conn) {
        shard.errors.fetch_add(1, std::memory_order_relaxed);
        record_failure(shard);
        continue;
      }
      live.push_back(Attempt{s, rank, hedged, std::move(conn)});
      return true;
    }
    return false;
  };
  const auto drop = [&](std::size_t i, bool failure) {
    Attempt attempt = std::move(live[i]);
    live.erase(live.begin() + static_cast<long>(i));
    Shard& shard = *shards_[attempt.shard];
    shard.pool->discard(std::move(attempt.conn));
    if (failure) {
      shard.errors.fetch_add(1, std::memory_order_relaxed);
      record_failure(shard);
    }
  };
  const auto exhausted = [&] {
    while (!live.empty()) drop(0, /*failure=*/true);
    unavailable_.fetch_add(1, std::memory_order_relaxed);
    (void)sink(overloaded_response(options_.retry_after_ms, "no shard replica available"));
  };

  if (!launch(/*hedged=*/false)) return exhausted();
  std::uint64_t attempt_deadline = env_->now_ns() + attempt_ns;
  // Plots never hedge: two concurrent relays would interleave their tiles.
  bool hedge_armed = options_.hedge_after_ms > 0 && candidates.size() > 1 && !plot;
  const std::uint64_t hedge_deadline =
      env_->now_ns() + options_.hedge_after_ms * 1'000'000;

  std::vector<BackendPool::Conn*> conns;
  while (true) {
    conns.clear();
    for (const Attempt& attempt : live) conns.push_back(attempt.conn.get());
    const std::uint64_t wait_until =
        hedge_armed ? std::min(hedge_deadline, attempt_deadline) : attempt_deadline;
    int index = -1;
    Response response;
    const RecvStatus status = next_frame(conns, wait_until, index, response);

    // A backend shedding mid-plot is a failover, not an answer: the next
    // replica gets the whole plot and the client's assembler dedups. A
    // unary op relays the backend's RETRY_AFTER (or kError) as its answer.
    if (status == RecvStatus::kOk && !(plot && response.status == Status::kOverloaded)) {
      // The first frame from any live attempt wins. The losers' late frames
      // must never be read by a future request, so their connections die
      // with them; later frames come from the winner alone.
      std::swap(live.front(), live[static_cast<std::size_t>(index)]);
      while (live.size() > 1) drop(live.size() - 1, /*failure=*/false);
      hedge_armed = false;
      Attempt& won = live.front();
      Shard& shard = *shards_[won.shard];
      response.shard = shard.config.id;
      const bool terminal = terminal_response_frame(response);
      if (!terminal) {
        if (sink(std::move(response))) {
          // One attempt budget per frame, so a long plot never runs out of
          // overall time as long as each tile keeps arriving.
          attempt_deadline = env_->now_ns() + attempt_ns;
          continue;
        }
        // Client cancelled: the backend may still be mid-stream on this
        // connection, so it cannot be reused.
        shard.pool->discard(std::move(won.conn));
      } else {
        shard.pool->release(std::move(won.conn));
        if (won.hedged) {
          shard.hedge_wins.fetch_add(1, std::memory_order_relaxed);
          hedge_wins_.fetch_add(1, std::memory_order_relaxed);
        } else if (won.rank > 0) {
          shard.failovers.fetch_add(1, std::memory_order_relaxed);
          failovers_.fetch_add(1, std::memory_order_relaxed);
        }
      }
      record_success(shard);
      shard.ok.fetch_add(1, std::memory_order_relaxed);
      forwarded_.fetch_add(1, std::memory_order_relaxed);
      if (terminal) (void)sink(std::move(response));
      return;
    }

    if (status != RecvStatus::kTimeout) {
      drop(static_cast<std::size_t>(index), /*failure=*/true);
      if (live.empty()) {
        if (!launch(/*hedged=*/false)) return exhausted();
        attempt_deadline = env_->now_ns() + attempt_ns;
      }
      continue;
    }

    // Timeout of this wait window: either the hedge deadline (fire the
    // hedge and keep both attempts racing) or the attempt budget (fail
    // every live attempt over to the next candidate).
    if (hedge_armed && env_->now_ns() >= hedge_deadline &&
        env_->now_ns() < attempt_deadline) {
      hedge_armed = false;
      (void)launch(/*hedged=*/true);  // launch failure: keep the original racing
      continue;
    }
    if (env_->now_ns() >= attempt_deadline) {
      while (!live.empty()) drop(0, /*failure=*/true);
      if (!launch(/*hedged=*/false)) return exhausted();
      attempt_deadline = env_->now_ns() + attempt_ns;
      hedge_armed = false;
    }
  }
}

// ---------------------------------------------------------------------------
// Health probing.

bool ShardRouter::probe_shard(std::size_t index) {
  Shard& shard = *shards_[index];
  shard.probes.fetch_add(1, std::memory_order_relaxed);
  probes_.fetch_add(1, std::memory_order_relaxed);
  const auto fail = [&]() -> bool {
    shard.probe_failures.fetch_add(1, std::memory_order_relaxed);
    probe_failures_.fetch_add(1, std::memory_order_relaxed);
    record_failure(shard);
    return false;
  };
  Request probe;
  probe.op = Op::kHealth;
  BackendPool::ConnPtr conn = lease_and_send(shard, encode_request(probe));
  if (!conn) return fail();
  int winner = -1;
  Response response;
  const std::uint64_t deadline = env_->now_ns() + options_.attempt_timeout_ms * 1'000'000;
  if (next_frame({conn.get()}, deadline, winner, response) != RecvStatus::kOk) {
    shard.pool->discard(std::move(conn));
    return fail();
  }
  shard.pool->release(std::move(conn));
  if (response.status != Status::kOk) return fail();
  // Restart detection: a new pid, or the same pid with the clock rewound.
  const std::int64_t pid = find_int(response.text, "pid", 0);
  const std::int64_t uptime = find_int(response.text, "uptime_ms", 0);
  const std::int64_t last_pid = shard.last_pid.load(std::memory_order_relaxed);
  const auto last_uptime =
      static_cast<std::int64_t>(shard.last_uptime_ms.load(std::memory_order_relaxed));
  if (last_pid != 0 && (pid != last_pid || uptime < last_uptime)) {
    shard.restarts.fetch_add(1, std::memory_order_relaxed);
  }
  shard.last_pid.store(pid, std::memory_order_relaxed);
  shard.last_uptime_ms.store(static_cast<std::uint64_t>(std::max<std::int64_t>(0, uptime)),
                             std::memory_order_relaxed);
  record_success(shard);
  return true;
}

void ShardRouter::probe_all() {
  for (std::size_t i = 0; i < shards_.size(); ++i) (void)probe_shard(i);
}

void ShardRouter::prober_loop() {
  while (!stop_prober_.load(std::memory_order_relaxed)) {
    probe_all();
    // Sleep the interval in small slices so destruction stays prompt.
    std::uint64_t slept = 0;
    while (slept < options_.probe_interval_ms &&
           !stop_prober_.load(std::memory_order_relaxed)) {
      const std::uint64_t slice = std::min<std::uint64_t>(10, options_.probe_interval_ms - slept);
      std::this_thread::sleep_for(std::chrono::milliseconds(slice));
      slept += slice;
    }
  }
}

// ---------------------------------------------------------------------------
// Admin: weight edits, drain, shardctl lowering.

bool ShardRouter::set_weight(int shard_id, int weight) {
  if (weight < 0) return false;
  std::lock_guard lock(ring_mutex_);
  for (const auto& shard : shards_) {
    if (shard->config.id != shard_id) continue;
    shard->config.weight = weight;
    shard->drained = false;
    shard->pre_drain_weight = std::max(1, weight);
    rebuild_ring();
    return true;
  }
  return false;
}

bool ShardRouter::drain(int shard_id) {
  std::lock_guard lock(ring_mutex_);
  for (const auto& shard : shards_) {
    if (shard->config.id != shard_id) continue;
    if (!shard->drained) {
      shard->pre_drain_weight = std::max(1, shard->config.weight);
      shard->config.weight = 0;
      shard->drained = true;
      rebuild_ring();
    }
    return true;
  }
  return false;
}

bool ShardRouter::undrain(int shard_id) {
  std::lock_guard lock(ring_mutex_);
  for (const auto& shard : shards_) {
    if (shard->config.id != shard_id) continue;
    if (shard->drained) {
      shard->config.weight = shard->pre_drain_weight;
      shard->drained = false;
      rebuild_ring();
    }
    return true;
  }
  return false;
}

Response ShardRouter::shardctl(const Request& request) {
  const auto command = static_cast<ShardCtl>(request.x);
  const int shard_id = static_cast<int>(request.y);
  bool ok = true;
  switch (command) {
    case ShardCtl::kStatus:
      break;
    case ShardCtl::kWeight: {
      int weight = -1;
      try {
        weight = std::stoi(to_string(request.a));
      } catch (const std::exception&) {
        return error_response("shardctl: bad weight argument");
      }
      ok = set_weight(shard_id, weight);
      break;
    }
    case ShardCtl::kDrain:
      ok = drain(shard_id);
      break;
    case ShardCtl::kUndrain:
      ok = undrain(shard_id);
      break;
    default:
      return error_response("shardctl: unknown command " + std::to_string(request.x));
  }
  if (!ok) {
    return error_response("shardctl: unknown shard " + std::to_string(shard_id) +
                          " (or bad weight)");
  }
  Response response;
  response.text = stats_json();
  return response;
}

// ---------------------------------------------------------------------------
// Stats.

RouterStats ShardRouter::stats() const {
  RouterStats s;
  s.requests = requests_.load(std::memory_order_relaxed);
  s.forwarded = forwarded_.load(std::memory_order_relaxed);
  s.failovers = failovers_.load(std::memory_order_relaxed);
  s.hedges = hedges_.load(std::memory_order_relaxed);
  s.hedge_wins = hedge_wins_.load(std::memory_order_relaxed);
  s.unavailable = unavailable_.load(std::memory_order_relaxed);
  s.probes = probes_.load(std::memory_order_relaxed);
  s.probe_failures = probe_failures_.load(std::memory_order_relaxed);
  s.ring_generation = generation_.load(std::memory_order_relaxed);
  std::lock_guard lock(ring_mutex_);
  for (const auto& shard : shards_) {
    RouterShardStats out;
    out.id = shard->config.id;
    out.weight = shard->config.weight;
    out.healthy = shard->healthy.load(std::memory_order_relaxed);
    out.drained = shard->drained;
    out.requests = shard->requests.load(std::memory_order_relaxed);
    out.ok = shard->ok.load(std::memory_order_relaxed);
    out.errors = shard->errors.load(std::memory_order_relaxed);
    out.hedges = shard->hedges.load(std::memory_order_relaxed);
    out.hedge_wins = shard->hedge_wins.load(std::memory_order_relaxed);
    out.failovers = shard->failovers.load(std::memory_order_relaxed);
    out.restarts = shard->restarts.load(std::memory_order_relaxed);
    out.probes = shard->probes.load(std::memory_order_relaxed);
    out.probe_failures = shard->probe_failures.load(std::memory_order_relaxed);
    out.last_pid = shard->last_pid.load(std::memory_order_relaxed);
    out.last_uptime_ms = shard->last_uptime_ms.load(std::memory_order_relaxed);
    s.shards.push_back(out);
  }
  return s;
}

std::string ShardRouter::stats_json() const {
  const RouterStats s = stats();
  Json json;
  json.begin_object()
      .field("router_requests", s.requests)
      .field("router_forwarded", s.forwarded)
      .field("router_failovers", s.failovers)
      .field("router_hedges", s.hedges)
      .field("router_hedge_wins", s.hedge_wins)
      .field("router_unavailable", s.unavailable)
      .field("router_probes", s.probes)
      .field("router_probe_failures", s.probe_failures)
      .field("router_ring_generation", s.ring_generation)
      .key("router_shards")
      .begin_array();
  for (const RouterShardStats& sh : s.shards) {
    json.begin_object()
        .field("id", sh.id)
        .field("weight", sh.weight)
        .field("healthy", sh.healthy ? 1 : 0)
        .field("drained", sh.drained ? 1 : 0)
        .field("requests", sh.requests)
        .field("ok", sh.ok)
        .field("errors", sh.errors)
        .field("hedges", sh.hedges)
        .field("hedge_wins", sh.hedge_wins)
        .field("failovers", sh.failovers)
        .field("restarts", sh.restarts)
        .field("probes", sh.probes)
        .field("probe_failures", sh.probe_failures)
        .field("last_pid", std::max<std::int64_t>(0, sh.last_pid))
        .field("last_uptime_ms", sh.last_uptime_ms)
        .end_object();
  }
  json.end_array().end_object();
  return json.str();
}

}  // namespace semilocal
