// The stateless shard router: consistent-hash fan-out over backend engines.
//
// A ShardRouter owns a HashRing over N backend `semilocal_serve` processes
// and one BackendPool per shard, and answers the same wire protocol it
// forwards -- the length-prefixed frames of engine/protocol.hpp are the
// inter-node RPC, reused verbatim. Every forwarded op -- unary or plot --
// is one relay: a state machine on an event loop (the reactor's when
// serving, a private one inside route(), route_stream() and probe_all()).
// The client's payload bytes go to the backend as they are, and the
// backend's response frames come back with only their shard field
// restamped:
//
//   view --> PairKey --> ring.replicas_for(key, R) --> preference list
//     (the request view digests a/b in place; healthy shards first, ring
//     order preserved; an upsert keys on its document id and gets R = 1,
//     its ring primary alone)
//   attempt 1: lease a connection to the first candidate (none free: look
//              again each millisecond until connect_timeout_ms), send, and
//              watch it on the loop
//   hedge:     non-plot ops only: after hedge_after_ms with no reply, send
//              the same request to the next candidate and watch both --
//              the first frame wins, the loser's connection is closed (a
//              late response on a reused connection could answer the wrong
//              request)
//   stream:    later frames come from the winner only, each with a fresh
//              attempt budget; while the client's queued bytes sit above
//              the stream watermark, the relay stops reading the winner's
//              connection (FrameOut::kPause) until the reactor resumes it
//   failover:  a connect failure, injected EIO, torn or garbled frame, EOF,
//              attempt timeout -- or a backend RETRY_AFTER on a plot --
//              moves to the next candidate; a backend kError or unary
//              RETRY_AFTER is relayed as the answer
//   exhausted: every candidate failed -> typed RETRY_AFTER (kOverloaded
//              with a retry hint), never a wrong answer, never a stall; an
//              upsert whose primary failed is never written elsewhere
//
// Deadlines (attempt, hedge, pool wait) are loop deadlines on the Env
// clock, and every backend byte moves through Env::fd_read / fd_write with
// the label "shard:<id>". Nothing in the relay blocks: a connection carries
// one exchange at a time and pool_connections bounds each shard's.
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
#include <future>
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
  /// Connections per backend pool: the bound on one shard's in-flight
  /// exchanges.
  std::size_t pool_connections = 8;
  /// How long a request waits for a free pooled connection to a shard
  /// before that shard counts as failed.
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
  /// Clock + socket seam of every relay. nullptr = real_env().
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
/// the router itself, at once; every other op becomes loop work (the relay)
/// that forwards it to a backend on the caller's event loop.
class ShardRouter final : public Service {
 public:
  /// Builds ring + pools; starts the prober thread when probe_interval_ms
  /// is non-zero. Throws std::invalid_argument on an empty/duplicate config.
  explicit ShardRouter(RouterOptions options);
  ~ShardRouter() override;

  Step begin(Request&& request, bool may_defer) override;
  /// The served path: a forwarded op's payload is read as a RequestView
  /// and relayed as it is, never decoded into a Request.
  Step begin_frame(std::string_view payload, bool may_defer) override;

  /// Routes one request to its first response frame on the calling thread:
  /// control ops answer locally, everything else is route_stream into a
  /// one-frame sink (a plot's relay is cancelled after its first tile).
  /// Thread-safe; returns within the attempt budget times the candidate
  /// count.
  Response route(const Request& request);

  /// Runs the relay of `request` on a private event loop on the calling
  /// thread, each backend frame decoded into `sink` as it arrives (shard id
  /// stamped on every frame). For a plot, a mid-stream failure (timeout,
  /// garble, EOF, backend RETRY_AFTER) closes the connection and re-sends
  /// the whole plot to the next replica -- re-delivered tiles are
  /// deduplicated client-side by PlotAssembler. Always ends with a terminal
  /// frame unless `sink` returns false (client gone), which cancels the
  /// relay.
  void route_stream(const Request& request, const Sink& sink);

  /// One probe pass over every shard, the probes running side by side on a
  /// private event loop; returns when all have answered or failed (the
  /// prober thread calls this; deterministic tests call it directly).
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

  /// The relay state machine (router.cpp): one forwarded request or one
  /// health probe.
  class Relay;

  /// The ops the router answers itself (ping, stats, health, shardctl);
  /// nullopt for everything a backend answers.
  std::optional<Response> control(const Request& request);
  Response shardctl(const Request& request);
  Response router_health() const;
  void rebuild_ring();  ///< caller holds ring_mutex_
  [[nodiscard]] std::shared_ptr<const HashRing> ring() const;
  void record_failure(Shard& shard);
  void record_success(Shard& shard);
  /// Probes every interval until `stop` is ready.
  void prober_loop(const std::future<void>& stop);

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

  std::promise<void> stop_prober_;  ///< set by the destructor
  std::thread prober_;
};

}  // namespace semilocal
