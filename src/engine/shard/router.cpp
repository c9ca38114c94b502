#include "engine/shard/router.hpp"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <deque>
#include <limits>
#include <stdexcept>

#include "engine/engine.hpp"  // kStatsVersion
#include "engine/loop.hpp"
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
    shard->pool = std::make_unique<BackendPool>(std::move(backend));
    shards_.push_back(std::move(shard));
  }
  {
    std::lock_guard lock(ring_mutex_);
    rebuild_ring();
    generation_.store(0, std::memory_order_relaxed);  // construction is gen 0
  }
  if (options_.probe_interval_ms > 0) {
    prober_ = std::thread(
        [this, stop = stop_prober_.get_future()] { prober_loop(stop); });
  }
}

ShardRouter::~ShardRouter() {
  stop_prober_.set_value();
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

// ---------------------------------------------------------------------------
// The relay: one forwarded request, or one health probe, on an event loop.

namespace {

/// Bytes read off a backend connection per readiness event.
constexpr std::size_t kReadBytes = std::size_t{1} << 16;

/// How often a request waiting for a free pooled connection looks again.
constexpr std::uint64_t kPoolRetryNs = 1'000'000;

}  // namespace

class ShardRouter::Relay final : public LoopWork, private EventLoop::Handler {
 public:
  /// Forwards `payload` (decoded as `view`) to the candidates of its key.
  Relay(ShardRouter& router, std::string_view payload, const RequestView& view)
      : router_(router), probe_(false), plot_(view.op == Op::kAlignmentPlot) {
    router_.requests_.fetch_add(1, std::memory_order_relaxed);
    frame_ = frame_payload(payload);
    // Upserts hash on the document id alone so every version of a document
    // -- whatever its bytes -- lands on one shard's corpus, and they go to
    // that primary only: an upsert replayed on a replica after the primary
    // may have committed it would leave two copies that diverge. Pair
    // queries keep the full-content key and the whole replica list.
    const bool upsert = view.op == Op::kUpsert;
    const PairKey key = upsert ? make_wire_pair_key(view.a, {})
                               : make_wire_pair_key(view.a, view.b);
    router_.ring()->replicas_for(key, upsert ? 1 : std::max(1, router_.options_.replicas),
                                 candidates_);
    // Benched shards go to the back of the preference list, ring order
    // otherwise preserved -- they are a last resort, not gone (probes may be
    // stale, and a fully-benched fleet should still try rather than
    // blackhole).
    std::stable_partition(candidates_.begin(), candidates_.end(), [&](int i) {
      return router_.shards_[static_cast<std::size_t>(i)]->healthy.load(
          std::memory_order_relaxed);
    });
  }

  /// Probes shard `index` with one kHealth exchange.
  Relay(ShardRouter& router, std::size_t index)
      : router_(router), probe_(true), plot_(false), candidates_{static_cast<int>(index)} {
    Request probe;
    probe.op = Op::kHealth;
    frame_ = frame_payload(encode_request(probe));
    router_.shards_[index]->probes.fetch_add(1, std::memory_order_relaxed);
    router_.probes_.fetch_add(1, std::memory_order_relaxed);
  }

  Relay(const Relay&) = delete;
  Relay& operator=(const Relay&) = delete;

  ~Relay() override {
    if (loop_ != nullptr && !finished_) stop();
    settle();
  }

  void start(EventLoop& loop, FrameOut& out) override {
    loop_ = &loop;
    out_ = &out;
    if (candidates_.empty()) {
      router_.unavailable_.fetch_add(1, std::memory_order_relaxed);
      answer(overloaded_response(router_.options_.retry_after_ms,
                                 "ring is empty (all drained)"));
      return;
    }
    launch(/*hedged=*/false);
    if (finished_) return;
    // Plots never hedge: two concurrent relays would interleave their tiles.
    hedge_armed_ = !probe_ && !plot_ && router_.options_.hedge_after_ms > 0 &&
                   candidates_.size() > 1;
    hedge_deadline_ = now() + router_.options_.hedge_after_ms * 1'000'000;
    arm_timer();
  }

  void resume() override {
    if (finished_ || !paused_) return;
    paused_ = false;
    while (!banked_.empty() && !paused_ && !finished_) {
      const std::string payload = std::move(banked_.front());
      banked_.pop_front();
      on_frame(winner_token_, payload);
    }
    if (!finished_ && !paused_) {
      Attempt& won = live_.front();
      try {
        loop_->watch(won.conn->fd, EPOLLIN, *this, won.token);
        attempt_deadline_ = now() + attempt_ns();
        arm_timer();
      } catch (const std::exception&) {
        fail(0);
      }
    }
    settle();
  }

  void cancel() override {
    if (finished_) return;
    if (won_ && !probe_) {
      // The client left mid-stream: the winner did answer, but its
      // connection may still carry the rest of the stream.
      Shard& shard = *router_.shards_[live_.front().shard];
      succeeded(shard);
    }
    stop();
  }

  [[nodiscard]] bool finished() const { return finished_; }

 private:
  /// One exchange: a leased connection the request is being sent on or was
  /// sent on.
  struct Attempt {
    std::size_t shard = 0;  ///< index into shards_
    std::size_t rank = 0;   ///< index into the candidate list (0 = primary)
    bool hedged = false;
    bool sending = true;    ///< connect or send still in progress
    std::size_t sent = 0;
    std::uint64_t token = 0;
    BackendPool::ConnPtr conn;
  };

  struct Retired {
    std::size_t shard = 0;
    BackendPool::ConnPtr conn;
    bool reuse = false;  ///< a finished winner: back to the pool, unless dirty
  };

  [[nodiscard]] std::uint64_t now() const { return loop_->env().now_ns(); }
  [[nodiscard]] std::uint64_t attempt_ns() const {
    return router_.options_.attempt_timeout_ms * 1'000'000;
  }

  std::size_t index_of(std::uint64_t token) const {
    for (std::size_t i = 0; i < live_.size(); ++i) {
      if (live_[i].token == token) return i;
    }
    return live_.size();
  }

  /// Starts the next attempt: the next candidate whose pool has a
  /// connection and takes the request. A pool at capacity is looked at again
  /// each kPoolRetryNs until connect_timeout_ms, then counts as failed.
  void launch(bool hedged) {
    launch_hedged_ = launching_ ? (launch_hedged_ && hedged) : hedged;
    launching_ = true;
    try_launch();
  }

  void try_launch() {
    while (next_ < candidates_.size()) {
      const auto s = static_cast<std::size_t>(candidates_[next_]);
      Shard& shard = *router_.shards_[s];
      if (!counted_) {
        counted_ = true;
        pool_deadline_ = now() + router_.options_.connect_timeout_ms * 1'000'000;
        if (!probe_) shard.requests.fetch_add(1, std::memory_order_relaxed);
        if (launch_hedged_) {
          shard.hedges.fetch_add(1, std::memory_order_relaxed);
          router_.hedges_.fetch_add(1, std::memory_order_relaxed);
        }
      }
      bool busy = false;
      BackendPool::ConnPtr conn = shard.pool->try_acquire(busy);
      if (!conn && busy && now() < pool_deadline_) return;  // the timer looks again
      const std::size_t rank = next_++;
      counted_ = false;
      if (!conn) {
        attempt_failed(shard);
        continue;
      }
      Attempt attempt{s, rank, launch_hedged_, true, 0, next_token_++, std::move(conn)};
      if (!send(attempt, /*first=*/true)) {
        shard.pool->discard(std::move(attempt.conn));
        attempt_failed(shard);
        continue;
      }
      if (!attempt.hedged) attempt_deadline_ = now() + attempt_ns();
      live_.push_back(std::move(attempt));
      launching_ = false;
      return;
    }
    launching_ = false;
    if (live_.empty()) exhausted();  // a failed hedge keeps the original racing
  }

  /// Writes what the socket takes of the request, then watches for the
  /// rest (EPOLLOUT) or for the answer (EPOLLIN). false = the attempt failed.
  bool send(Attempt& attempt, bool first) {
    BackendPool::Conn& conn = *attempt.conn;
    if (!conn.connecting) {
      while (attempt.sent < frame_.size()) {
        const long w = loop_->env().fd_write(conn.fd, frame_.data() + attempt.sent,
                                             frame_.size() - attempt.sent, conn.label);
        if (w > 0) {
          attempt.sent += static_cast<std::size_t>(w);
          continue;
        }
        if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        return false;  // injected EIO, EPIPE, or a real connection error
      }
    }
    const bool was_sending = attempt.sending;
    attempt.sending = conn.connecting || attempt.sent < frame_.size();
    const std::uint32_t events = attempt.sending ? EPOLLOUT : EPOLLIN;
    try {
      if (first) {
        loop_->watch(conn.fd, events, *this, attempt.token);
      } else if (was_sending && !attempt.sending) {
        loop_->rearm(conn.fd, events);
      }
    } catch (const std::exception&) {
      return false;
    }
    return true;
  }

  void on_ready(std::uint64_t token, std::uint32_t /*events*/) override {
    settle();
    const std::size_t i = index_of(token);
    if (finished_ || i == live_.size()) return;
    Attempt& attempt = live_[i];
    BackendPool::Conn& conn = *attempt.conn;
    if (attempt.sending) {
      if (conn.connecting) {
        int err = 0;
        socklen_t len = sizeof(err);
        if (::getsockopt(conn.fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
          return fail(i);
        }
        conn.connecting = false;
      }
      if (!send(attempt, /*first=*/false)) fail(i);
      return;
    }
    char buf[kReadBytes];
    const long n = loop_->env().fd_read(conn.fd, buf, sizeof(buf), conn.label);
    if (n == 0) return fail(i);  // backend hung up mid-exchange
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      return fail(i);  // injected EIO or a real error
    }
    // The connection outlives this feed even if a frame retires it: retired
    // connections are only closed by settle().
    try {
      conn.decoder.feed(std::string_view(buf, static_cast<std::size_t>(n)),
                        [&](std::string_view payload, bool) { on_frame(token, payload); });
    } catch (const ProtocolError&) {
      const std::size_t j = index_of(token);
      if (!finished_ && j < live_.size()) fail(j);  // a torn frame header
    }
    settle();
  }

  /// One complete response frame from the attempt `token`.
  void on_frame(std::uint64_t token, std::string_view payload) {
    if (finished_) {
      if (token == winner_token_) winner_dirty_ = true;  // bytes past the answer
      return;
    }
    if (paused_) {
      banked_.emplace_back(payload);
      return;
    }
    const std::size_t i = index_of(token);
    if (i == live_.size()) return;
    ResponseView view;
    try {
      view = decode_response_view(payload);
    } catch (const ProtocolError&) {
      return fail(i);  // a garbled response is a shard failure, not a client error
    }
    // A backend shedding mid-plot is a failover, not an answer: the next
    // replica gets the whole plot and the client's assembler dedups. A
    // unary op relays the backend's RETRY_AFTER (or kError) as its answer.
    if (plot_ && view.status == Status::kOverloaded) return fail(i);

    if (!won_) {
      // The first frame from any live attempt wins. The losers' late frames
      // must never be read by a future request, so their connections close;
      // later frames come from the winner alone.
      won_ = true;
      winner_token_ = token;
      std::swap(live_.front(), live_[i]);
      retire_from(1, /*failed=*/false);
      hedge_armed_ = false;
      launching_ = false;
    }
    Attempt& won = live_.front();
    Shard& shard = *router_.shards_[won.shard];
    const bool terminal = terminal_response_frame(view);
    if (probe_) return probed(shard, payload);

    std::string framed = frame_payload(payload);
    stamp_shard(framed.data() + 4, view, shard.config.id);

    if (!terminal) {
      const FrameOut::Flow flow = out_->frame(framed, /*terminal=*/false);
      if (finished_) return;  // cancelled from inside frame()
      if (flow == FrameOut::Flow::kStop) {
        // Client cancelled: the backend may still be mid-stream on this
        // connection, so it cannot be reused.
        succeeded(shard);
        stop();
        return;
      }
      // One attempt budget per frame, so a long plot never runs out of
      // overall time as long as each tile keeps arriving.
      attempt_deadline_ = now() + attempt_ns();
      if (flow == FrameOut::Flow::kPause) {
        paused_ = true;
        loop_->unwatch(won.conn->fd);
      }
      arm_timer();
      return;
    }
    if (won.hedged) {
      shard.hedge_wins.fetch_add(1, std::memory_order_relaxed);
      router_.hedge_wins_.fetch_add(1, std::memory_order_relaxed);
    } else if (won.rank > 0) {
      shard.failovers.fetch_add(1, std::memory_order_relaxed);
      router_.failovers_.fetch_add(1, std::memory_order_relaxed);
    }
    succeeded(shard);
    finish_winner();
    (void)out_->frame(framed, /*terminal=*/true);
  }

  /// A health probe's answer: restart detection off (pid, uptime_ms).
  void probed(Shard& shard, std::string_view payload) {
    finish_winner();
    const Response response = decode_response(payload);
    if (response.status != Status::kOk) return probe_failed();
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
    router_.record_success(shard);
  }

  void probe_failed() {
    Shard& shard = *router_.shards_[static_cast<std::size_t>(candidates_.front())];
    shard.probe_failures.fetch_add(1, std::memory_order_relaxed);
    router_.probe_failures_.fetch_add(1, std::memory_order_relaxed);
    router_.record_failure(shard);
  }

  void succeeded(Shard& shard) {
    router_.record_success(shard);
    shard.ok.fetch_add(1, std::memory_order_relaxed);
    router_.forwarded_.fetch_add(1, std::memory_order_relaxed);
  }

  void attempt_failed(Shard& shard) {
    if (probe_) return;  // a probe counts its one failure in probe_failed
    shard.errors.fetch_add(1, std::memory_order_relaxed);
    router_.record_failure(shard);
  }

  /// The winner's exchange is complete: its connection goes back to the
  /// pool once the current read is done with it.
  void finish_winner() {
    Attempt& won = live_.front();
    loop_->unwatch(won.conn->fd);
    retired_.push_back(Retired{won.shard, std::move(won.conn), /*reuse=*/true});
    live_.clear();
    stop();
  }

  /// Attempt `i` failed: close it, and start the next candidate once no
  /// attempt is left.
  void fail(std::size_t i) {
    if (live_[i].token == winner_token_) won_ = false;
    std::swap(live_[i], live_.back());
    retire_from(live_.size() - 1, /*failed=*/true);
    if (live_.empty() && !launching_) launch(/*hedged=*/false);
    if (!finished_) arm_timer();
  }

  void exhausted() {
    if (probe_) {
      probe_failed();
      stop();
      return;
    }
    router_.unavailable_.fetch_add(1, std::memory_order_relaxed);
    answer(overloaded_response(router_.options_.retry_after_ms, "no shard replica available"));
  }

  /// Ends the request with a terminal frame the router wrote itself.
  void answer(const Response& response) {
    stop();
    if (!probe_) (void)out_->frame(frame_payload(encode_response(response)), /*terminal=*/true);
  }

  void on_deadline(std::uint64_t /*token*/) override {
    settle();
    timer_ = {};
    if (finished_) return;
    if (launching_) {
      try_launch();
      if (finished_) return;
    }
    const std::uint64_t t = now();
    if (hedge_armed_ && !live_.empty() && t >= hedge_deadline_ && t < attempt_deadline_) {
      // The hedge deadline: fire the hedge and keep both attempts racing.
      hedge_armed_ = false;
      launch(/*hedged=*/true);
    } else if (!live_.empty() && !paused_ && t >= attempt_deadline_) {
      // The attempt budget: fail every live attempt over to the next
      // candidate.
      retire_from(0, /*failed=*/true);
      won_ = false;
      hedge_armed_ = false;
      launch(/*hedged=*/false);
    }
    if (!finished_) arm_timer();
    settle();
  }

  /// Keeps the one loop deadline at the nearest of: the next look at a full
  /// pool, the attempt budget, the hedge deadline.
  void arm_timer() {
    std::uint64_t due = std::numeric_limits<std::uint64_t>::max();
    if (launching_) due = std::min(now() + kPoolRetryNs, pool_deadline_);
    if (!live_.empty() && !paused_) {
      due = std::min(due, attempt_deadline_);
      if (hedge_armed_) due = std::min(due, hedge_deadline_);
    }
    if (timer_ != EventLoop::Timer{} && timer_.first == due) return;
    loop_->cancel(timer_);
    timer_ = {};
    if (due != std::numeric_limits<std::uint64_t>::max()) timer_ = loop_->at(due, *this, 0);
  }

  /// Ends the relay: no timer, no live attempt, nothing more emitted.
  void stop() {
    finished_ = true;
    launching_ = false;
    loop_->cancel(timer_);
    timer_ = {};
    retire_from(0, /*failed=*/false);
  }

  /// Stops watching live_[first..] and drops them (counted as failures
  /// when `failed`); settle() closes their connections.
  void retire_from(std::size_t first, bool failed) {
    while (live_.size() > first) {
      Attempt& attempt = live_.back();
      if (failed) attempt_failed(*router_.shards_[attempt.shard]);
      loop_->unwatch(attempt.conn->fd);
      retired_.push_back(Retired{attempt.shard, std::move(attempt.conn), /*reuse=*/false});
      live_.pop_back();
    }
  }

  /// Closes retired connections and returns a finished winner's to its
  /// pool. Runs outside any decoder feed, so no connection dies under its
  /// own read.
  void settle() {
    for (Retired& r : retired_) {
      BackendPool& pool = *router_.shards_[r.shard]->pool;
      if (r.reuse && !winner_dirty_) {
        pool.release(std::move(r.conn));
      } else {
        pool.discard(std::move(r.conn));
      }
    }
    retired_.clear();
  }

  ShardRouter& router_;
  const bool probe_;
  const bool plot_;
  std::string frame_;  ///< the framed request, sent as it is to every attempt
  std::vector<int> candidates_;
  std::size_t next_ = 0;      ///< next candidate to launch
  bool counted_ = false;      ///< candidates_[next_] already counted
  bool launching_ = false;    ///< a launch waits for a pooled connection
  bool launch_hedged_ = false;
  std::uint64_t pool_deadline_ = 0;
  std::vector<Attempt> live_;
  std::uint64_t next_token_ = 1;
  std::uint64_t attempt_deadline_ = 0;
  bool hedge_armed_ = false;
  std::uint64_t hedge_deadline_ = 0;
  bool won_ = false;
  std::uint64_t winner_token_ = 0;
  bool winner_dirty_ = false;
  bool paused_ = false;
  std::deque<std::string> banked_;  ///< winner frames read while paused
  bool finished_ = false;
  EventLoop::Timer timer_{};
  std::vector<Retired> retired_;  ///< closed (or released) by settle()
  EventLoop* loop_ = nullptr;
  FrameOut* out_ = nullptr;
};

Step ShardRouter::begin(Request&& request, bool may_defer) {
  if (auto answer = control(request)) return Step{std::move(answer), nullptr};
  if (!may_defer) return {};
  const std::string payload = encode_request(request);
  return Step{std::nullopt,
              std::make_unique<Relay>(*this, payload, decode_request_view(payload))};
}

Step ShardRouter::begin_frame(std::string_view payload, bool may_defer) {
  const RequestView view = decode_request_view(payload);
  switch (view.op) {
    case Op::kPing:
    case Op::kStats:
    case Op::kHealth:
    case Op::kShardCtl:
      return Step{control(decode_request(payload)), nullptr};
    default:
      break;
  }
  if (!may_defer) return {};
  return Step{std::nullopt, std::make_unique<Relay>(*this, payload, view)};
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

void ShardRouter::route_stream(const Request& request, const Sink& sink) {
  const std::string payload = encode_request(request);
  Relay relay(*this, payload, decode_request_view(payload));
  run_loop_work(relay, *env_, sink);
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

// ---------------------------------------------------------------------------
// Health probing.

void ShardRouter::probe_all() {
  struct NoFrames final : FrameOut {
    Flow frame(std::string_view, bool) override { return Flow::kStop; }
  } out;
  EventLoop loop(*env_);
  std::vector<std::unique_ptr<Relay>> probes;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    probes.push_back(std::make_unique<Relay>(*this, i));
    probes.back()->start(loop, out);
  }
  const bool ran = loop.run_until([&] {
    return std::all_of(probes.begin(), probes.end(),
                       [](const auto& probe) { return probe->finished(); });
  });
  if (!ran) {
    for (const auto& probe : probes) probe->cancel();
  }
}

void ShardRouter::prober_loop(const std::future<void>& stop) {
  // One wake-up per pass; destruction ends the wait at once. Waits are
  // capped at a day, which keeps a huge interval from overflowing the
  // clock arithmetic inside wait_for.
  constexpr std::uint64_t kMaxWaitMs = 24ULL * 3600 * 1000;
  const std::chrono::milliseconds interval(
      std::min(options_.probe_interval_ms, kMaxWaitMs));
  do {
    probe_all();
  } while (stop.wait_for(interval) == std::future_status::timeout);
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
