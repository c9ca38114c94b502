// The stateless shard router: consistent-hash fan-out over backend engines.
//
// A ShardRouter owns a HashRing over N backend `semilocal_serve` processes
// and one BackendPool per shard, and answers the same wire protocol it
// forwards -- the length-prefixed frames of engine/protocol.hpp are the
// inter-node RPC, reused verbatim. Every forwarded op -- unary or plot --
// runs one attempt loop (route_stream; a unary answer is a one-frame
// stream):
//
//   decode --> PairKey --> ring.replicas_for(key, R) --> preference list
//     (healthy shards first, ring order preserved; an upsert keys on its
//     document id and gets R = 1, its ring primary alone)
//   attempt 1: lease a connection to the first candidate, send, await
//   hedge:     non-plot ops only: after hedge_after_ms with no reply, send
//              the same request to the next candidate and await both --
//              the first frame wins, the loser's connection is discarded (a
//              late response on a reused connection could answer the wrong
//              request)
//   stream:    later frames come from the winner only, each with a fresh
//              attempt budget
//   failover:  a connect failure, injected EIO, torn or garbled frame, EOF,
//              attempt timeout -- or a backend RETRY_AFTER on a plot --
//              moves to the next candidate; a backend kError or unary
//              RETRY_AFTER is relayed as the answer
//   exhausted: every candidate failed -> typed RETRY_AFTER (kOverloaded
//              with a retry hint), never a wrong answer, never a stall; an
//              upsert whose primary failed is never written elsewhere
//
// Health is probed on Op::kHealth: the prober remembers each backend's
// (pid, uptime_ms) and counts a restart when the pid changes or the uptime
// runs backwards. A shard is skipped (not removed) after `unhealthy_after`
// consecutive failures and rejoins on the next successful probe.
//
// Rebalance and drain arrive on Op::kShardCtl (the `semilocal_cli shardctl`
// subcommand): weight edits rebuild the ring under a new generation; drain
// sets weight 0 -- no new keys land on the shard while leased connections
// finish their in-flight exchanges -- and undrain restores the old weight.
//
// The router holds no per-key state at all (the ring is a pure function of
// config + weights), so any number of router processes can front the same
// backend fleet and agree on placement.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "engine/service.hpp"
#include "engine/shard/backend.hpp"
#include "engine/shard/ring.hpp"

namespace semilocal {

struct RouterOptions {
  std::vector<ShardConfig> shards;
  /// Replica fan-out: candidates per key (primary + failover/hedge targets).
  /// Upserts always go to the primary alone.
  int replicas = 2;
  /// Ring granularity (vnodes = weight * this).
  int vnodes_per_weight = 64;
  /// Connections per backend pool.
  std::size_t pool_connections = 8;
  /// Budget for dialing a backend connection.
  std::uint64_t connect_timeout_ms = 1'000;
  /// Per-attempt budget (send + await) before failing over.
  std::uint64_t attempt_timeout_ms = 2'000;
  /// Latency deadline after which a hedge fires to the next replica while
  /// the first attempt keeps running. 0 disables hedging.
  std::uint64_t hedge_after_ms = 0;
  /// Consecutive failures (probe or traffic) that bench a shard.
  int unhealthy_after = 3;
  /// retry hint on the typed RETRY_AFTER when every candidate failed.
  Index retry_after_ms = 50;
  /// Background prober cadence; 0 = no thread, callers drive probe_all()
  /// (what the deterministic tests do).
  std::uint64_t probe_interval_ms = 0;
  /// Clock + socket seam shared by every pool. nullptr = real_env().
  Env* env = nullptr;
};

/// Per-shard counters, indexed like RouterOptions::shards.
struct RouterShardStats {
  int id = 0;
  int weight = 0;
  bool healthy = true;
  bool drained = false;
  std::uint64_t requests = 0;   ///< exchanges attempted against this shard
  std::uint64_t ok = 0;         ///< responses this shard served
  std::uint64_t errors = 0;     ///< failed exchanges (dial/send/recv/timeout)
  std::uint64_t hedges = 0;     ///< hedged sends fired *to* this shard
  std::uint64_t hedge_wins = 0; ///< hedged sends this shard answered first
  std::uint64_t failovers = 0;  ///< requests that moved here off a failure
  std::uint64_t restarts = 0;   ///< pid/uptime regressions seen by probes
  std::uint64_t probes = 0;
  std::uint64_t probe_failures = 0;
  std::int64_t last_pid = 0;
  std::uint64_t last_uptime_ms = 0;
};

struct RouterStats {
  std::uint64_t requests = 0;     ///< frames routed (forwardable ops)
  std::uint64_t forwarded = 0;    ///< answered by some backend
  std::uint64_t failovers = 0;    ///< answered by a non-primary candidate
  std::uint64_t hedges = 0;       ///< hedge sends fired
  std::uint64_t hedge_wins = 0;   ///< hedge send answered first
  std::uint64_t unavailable = 0;  ///< every candidate failed -> RETRY_AFTER
  std::uint64_t probes = 0;
  std::uint64_t probe_failures = 0;
  std::uint64_t ring_generation = 0;  ///< bumps on every weight edit
  std::vector<RouterShardStats> shards;
};

/// The router is a Service: kPing/kStats/kHealth/kShardCtl are answered by
/// the router itself, at once; every other op becomes a job that forwards it
/// to a backend (blocking on backend I/O -- what a reactor's pumps are for).
class ShardRouter final : public Service {
 public:
  /// Builds ring + pools; starts the prober thread when probe_interval_ms
  /// is non-zero. Throws std::invalid_argument on an empty/duplicate config.
  explicit ShardRouter(RouterOptions options);
  ~ShardRouter() override;

  Step begin(Request&& request, bool may_defer) override;

  /// Routes one request to its first response frame on the calling thread:
  /// control ops answer locally, everything else is route_stream into a
  /// one-frame sink (a plot's relay is cancelled after its first tile).
  /// Thread-safe; blocking (bounded by the attempt budget times the
  /// candidate count).
  Response route(const Request& request);

  /// The attempt loop every forwarded op runs: relays each backend frame
  /// through `sink` as it arrives (shard id stamped on every frame). For a
  /// plot, a mid-stream failure (timeout, garble, EOF, backend RETRY_AFTER)
  /// discards the connection and re-sends the whole plot to the next
  /// replica -- re-delivered tiles are deduplicated client-side by
  /// PlotAssembler. Always ends with a terminal frame unless `sink` returns
  /// false (client gone), which cancels the relay.
  void route_stream(const Request& request, const Sink& sink);

  /// One synchronous probe pass over every shard (the prober thread calls
  /// this; deterministic tests call it directly).
  void probe_all();

  /// Admin ops (kShardCtl lowers onto these). false = unknown shard id.
  bool set_weight(int shard_id, int weight);
  bool drain(int shard_id);
  bool undrain(int shard_id);

  [[nodiscard]] RouterStats stats() const;
  /// Flat router_* JSON (+ a "router_shards" array), the router's kStats
  /// document; the reactor splices its frontend_* counters into it.
  [[nodiscard]] std::string stats_json() const;

 private:
  struct Shard {
    ShardConfig config;             ///< current weight lives here
    int pre_drain_weight = 1;
    bool drained = false;
    std::unique_ptr<BackendPool> pool;
    std::atomic<int> consecutive_failures{0};
    std::atomic<bool> healthy{true};
    std::atomic<std::uint64_t> requests{0};
    std::atomic<std::uint64_t> ok{0};
    std::atomic<std::uint64_t> errors{0};
    std::atomic<std::uint64_t> hedges{0};
    std::atomic<std::uint64_t> hedge_wins{0};
    std::atomic<std::uint64_t> failovers{0};
    std::atomic<std::uint64_t> restarts{0};
    std::atomic<std::uint64_t> probes{0};
    std::atomic<std::uint64_t> probe_failures{0};
    std::atomic<std::int64_t> last_pid{0};
    std::atomic<std::uint64_t> last_uptime_ms{0};
  };

  /// One in-flight exchange of the attempt loop: a leased connection that
  /// was sent to.
  struct Attempt {
    std::size_t shard = 0;  ///< index into shards_
    std::size_t rank = 0;   ///< index into the candidate list (0 = primary)
    bool hedged = false;
    BackendPool::ConnPtr conn;
  };

  /// The ops the router answers itself (ping, stats, health, shardctl);
  /// nullopt for everything a backend answers.
  std::optional<Response> control(const Request& request);
  /// Leases a connection to `shard` and sends `payload` on it. nullptr =
  /// dial, capacity or send failure (a leased connection is discarded).
  BackendPool::ConnPtr lease_and_send(Shard& shard, std::string_view payload);
  /// Waits for the next frame on any of `conns` and decodes it; a frame
  /// that does not decode is kError on `winner`.
  RecvStatus next_frame(const std::vector<BackendPool::Conn*>& conns,
                        std::uint64_t deadline_ns, int& winner, Response& response);
  Response shardctl(const Request& request);
  Response router_health() const;
  void rebuild_ring();  ///< caller holds ring_mutex_
  [[nodiscard]] std::shared_ptr<const HashRing> ring() const;
  void record_failure(Shard& shard);
  void record_success(Shard& shard);
  bool probe_shard(std::size_t index);
  void prober_loop();

  RouterOptions options_;
  Env* env_;
  std::uint64_t start_ns_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;

  mutable std::mutex ring_mutex_;  ///< guards weight edits + ring swaps
  std::shared_ptr<const HashRing> ring_;
  std::atomic<std::uint64_t> generation_{0};

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> forwarded_{0};
  std::atomic<std::uint64_t> failovers_{0};
  std::atomic<std::uint64_t> hedges_{0};
  std::atomic<std::uint64_t> hedge_wins_{0};
  std::atomic<std::uint64_t> unavailable_{0};
  std::atomic<std::uint64_t> probes_{0};
  std::atomic<std::uint64_t> probe_failures_{0};

  std::atomic<bool> stop_prober_{false};
  std::thread prober_;
};

}  // namespace semilocal
