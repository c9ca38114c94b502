// Open-loop load client for the serve frontends.
//
// Closed-loop clients (send, wait, send) measure a server at the throughput
// the *client* sustains: under overload they slow down with the server and
// the latency curve flattens into a lie. The open-loop runner instead fires
// requests on a fixed schedule -- `arrival_rate` per second in aggregate,
// round-robin across `connections` persistent sockets -- whether or not
// earlier responses came back, which is what exposes queueing collapse.
//
// One epoll thread owns every client socket. Each connection keeps a FIFO of
// send timestamps; responses (matched in order, the protocol is strictly
// FIFO per connection) pop the front and record a latency sample. After the
// timed window the runner stops sending and drains: any connection still
// holding unanswered requests once the drain window closes counts as a
// *stalled socket* -- the bench gate's red flag, because the frontend
// contract says every request ends in a frame or a close, never silence.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace semilocal {

struct OpenLoopOptions {
  std::string host = "127.0.0.1";
  int port = 0;
  /// Persistent connections opened before the timed window starts.
  std::size_t connections = 64;
  /// Aggregate offered load, requests per second across all connections.
  double arrival_rate = 1000.0;
  /// Length of the timed send window.
  std::uint64_t duration_ms = 1000;
  /// Extra time after the window for in-flight responses to land.
  std::uint64_t drain_ms = 2000;
  /// Produces each request's payload (unframed; the runner frames it).
  /// Called once per send, in send order.
  std::function<std::string()> next_payload;
  /// Optional oracle: called once per send, immediately after next_payload,
  /// returning the value a correct kOk response must carry (-1 = this
  /// request is unverifiable, e.g. a batch). Matched FIFO per connection
  /// like the latency samples; a verified mismatch counts a wrong_answer --
  /// the failover gate's red flag, because a router under churn may refuse
  /// (typed RETRY_AFTER) but must never answer wrong.
  std::function<Index()> next_expected;
  /// Optional per-send op-class tag (e.g. "query", "batch", "plot"), called
  /// once per send after next_payload; that request's latency lands in the
  /// per_op bucket of the same name. Streamed ops (plots) record one sample
  /// at their terminal frame -- whole-stream latency, not per-tile.
  std::function<std::string()> next_op_class;
};

/// Latency breakdown for one serving shard (responses carrying shard >= 0).
struct OpenLoopShardResult {
  int shard = -1;
  std::uint64_t received = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

/// Latency breakdown for one op class (see OpenLoopOptions::next_op_class).
struct OpenLoopOpResult {
  std::string op;
  std::uint64_t received = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

struct OpenLoopResult {
  std::uint64_t connected = 0;       ///< sockets that finished connect()
  std::uint64_t connect_failures = 0;
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;          ///< kError responses
  std::uint64_t overloaded = 0;      ///< RETRY_AFTER (kOverloaded) responses
  std::uint64_t decode_errors = 0;
  std::uint64_t closed_early = 0;    ///< sockets the server closed mid-run
  std::uint64_t stalled = 0;         ///< sockets still owing responses post-drain
  std::uint64_t wrong_answers = 0;   ///< kOk responses failing the oracle check
  double achieved_rate = 0.0;        ///< sends per second actually issued
  double elapsed_s = 0.0;            ///< window start to the last response seen
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
  /// Per serving shard (router runs only; empty against a standalone server).
  std::vector<OpenLoopShardResult> per_shard;
  /// Per op class (empty unless next_op_class was provided).
  std::vector<OpenLoopOpResult> per_op;
};

/// Runs one open-loop measurement against a frontend. Blocking; returns when
/// the window and drain complete. Throws std::runtime_error only for setup
/// failures (socket/epoll exhaustion); per-connection failures are counted.
OpenLoopResult run_open_loop(const OpenLoopOptions& options);

/// The result as one JSON object (loadgen --json).
std::string to_json(const OpenLoopResult& result);

}  // namespace semilocal
