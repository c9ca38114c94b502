// The serve frontend: an epoll reactor over one Service.
//
// The reactor is what lets one engine face tens of thousands of sockets:
// a single event-loop thread (engine/loop.hpp) owns every connection
// (non-blocking accept / read / write through the Env fd seam), an
// incremental FrameDecoder turns partial reads into protocol frames with
// zero copies on the contained-frame path, and every request that waits is
// loop work (Service::begin): its frames go straight into the request's
// response slot on the loop thread. A router relay's fds and deadlines join
// the loop; an engine miss, plot or upsert computes on the scheduler's
// workers, which post each finished frame or plot row back to the loop.
// The frontend starts no thread besides the loop's own. What an op means is the
// service's business (engine/service.hpp); admission control is the
// reactor's, explicit and typed:
//
//   gate            verdict when exceeded
//   --------------  ------------------------------------------------------
//   max_connections accept, send one RETRY_AFTER frame, close (shed)
//   per-conn        RETRY_AFTER response for the request, connection lives
//    in-flight      (begin() runs with may_defer = false: control ops still
//                   answer, nothing reaches the scheduler)
//   scheduler       EngineOverloaded's retry hint forwarded as RETRY_AFTER
//    queue bound
//   write-queue cap connection closed (a peer that never reads is not a
//                   client, it is a memory leak)
//   idle timeout    connection closed (no bytes, no pending work)
//   read timeout    connection closed (a frame started but never finished
//                   -- the slow-loris shape)
//
// "RETRY_AFTER" is the wire's Status::kOverloaded response with a non-zero
// retry_ms: the client contract is "back off retry_ms, then resend". Nothing
// ever stalls silently -- every overload verdict is a frame or a close.
//
// All timeouts read the Env clock and all socket I/O goes through
// Env::fd_read/fd_write, so FaultyEnv can tear or fail any connection's
// bytes deterministically (tests drive the decoder's resume path this way).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "engine/engine.hpp"
#include "engine/service.hpp"

namespace semilocal {

struct FrontendOptions {
  /// TCP port to bind on 127.0.0.1; 0 picks a free port (see port()).
  int port = 0;
  /// listen(2) backlog (was hardcoded to 64 before PR 7).
  int listen_backlog = 128;
  /// Admission gate: connections beyond this are shed with one RETRY_AFTER
  /// frame instead of being accepted.
  std::size_t max_connections = 10000;
  /// Per-connection budget of requests awaiting compute; the budget's
  /// overflow answer is RETRY_AFTER, not a stalled socket.
  std::size_t max_inflight_per_conn = 64;
  /// Cap on a connection's queued-but-unsent response bytes. A client that
  /// stops reading is disconnected when its queue passes this.
  std::size_t max_write_queue_bytes = std::size_t{1} << 20;
  /// Close a connection with no read bytes, no partial frame and no pending
  /// work for this long. 0 disables.
  std::uint64_t idle_timeout_ms = 60'000;
  /// Close a connection that started a frame but has not finished it within
  /// this window (slow-loris defense). 0 disables.
  std::uint64_t read_timeout_ms = 10'000;
  /// How long stop() waits for in-flight requests to answer and flush
  /// before hard-closing the stragglers.
  std::uint64_t drain_timeout_ms = 2'000;
  /// Clock + socket-I/O seam. nullptr = real_env().
  Env* env = nullptr;
};

/// Plain-value snapshot of the frontend counters (stats JSON: frontend_*).
struct FrontendStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_active = 0;
  std::uint64_t connections_shed = 0;    ///< refused by the max-connections gate
  std::uint64_t connections_closed = 0;  ///< closed for any reason (EOF included)
  std::uint64_t retry_after_sent = 0;    ///< kOverloaded frames sent (shed frames included)
  std::uint64_t frames_decoded = 0;      ///< request frames parsed
  std::uint64_t partial_frames = 0;      ///< frames assembled across >1 read
  std::uint64_t protocol_errors = 0;     ///< malformed frames / payloads
  std::uint64_t timeouts_idle = 0;
  std::uint64_t timeouts_read = 0;
  std::uint64_t write_queue_disconnects = 0;
  std::uint64_t inline_answers = 0;  ///< begin() answered at once, on the event loop
  /// Loop work that delivered its terminal frame -- engine misses, plots
  /// and upserts, and router relays alike (stats key frontend_pump_answers,
  /// named for the pump threads that once ran that work).
  std::uint64_t pump_answers = 0;
};

/// The epoll reactor frontend. Construction binds and listens (throws
/// std::runtime_error on failure); run() executes the event loop on the
/// calling thread until request_stop(). The service must outlive run().
/// kStats answers get this frontend's frontend_* counters spliced in.
class FrontendServer {
 public:
  FrontendServer(Service& service, FrontendOptions options);
  ~FrontendServer();
  FrontendServer(const FrontendServer&) = delete;
  FrontendServer& operator=(const FrontendServer&) = delete;

  /// The bound port (useful with options.port = 0).
  [[nodiscard]] int port() const;

  /// Runs the event loop until request_stop(). Drains gracefully: stops
  /// accepting, answers in-flight requests, flushes write queues, then
  /// hard-closes whatever outlives drain_timeout_ms, cancelling its loop
  /// work. A frame that a worker finishes later for a closed connection,
  /// or for a destroyed server, is dropped.
  void run();

  /// Requests shutdown. Async-signal-safe (one write(2) to a wake pipe), so
  /// a SIGINT handler may call it directly.
  void request_stop();

  [[nodiscard]] FrontendStats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace semilocal
