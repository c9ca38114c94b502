// Per-shard connection pool and framed I/O over the Env seam.
//
// Each backend shard gets one BackendPool: a bounded set of loopback/TCP
// connections speaking the length-prefixed wire protocol, checked out
// exclusively for one request-response exchange at a time. Every socket
// byte moves through Env::fd_read / Env::fd_write with the label
// "shard:<id>", which is the whole trick of the fault testkit: a FaultPlan
// rule matching "shard:2" kills or tears exactly backend 2's bytes, with a
// deterministic, replayable trace -- no process spawning, no kill(2) races.
//
// The pool never multiplexes: a connection carries at most one outstanding
// request, so the first complete frame read back is *the* response. A
// connection whose exchange went sideways (send error, timeout, torn frame,
// abandoned hedge) is discarded, never released -- a stray late response on
// a reused connection would be answered to the wrong request, which is the
// one failure mode a router must make structurally impossible.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "engine/env.hpp"
#include "engine/protocol.hpp"

namespace semilocal {

struct BackendOptions {
  std::string host = "127.0.0.1";
  int port = 0;
  /// Stable shard id; becomes the fault-rule label "shard:<id>".
  int shard_id = 0;
  /// Concurrent exchanges (leased + idle connections) this pool allows.
  std::size_t max_connections = 8;
  /// Budget for dialing a fresh connection (non-blocking connect + poll).
  std::uint64_t connect_timeout_ms = 1'000;
  /// Clock + socket seam. nullptr = real_env().
  Env* env = nullptr;
};

class BackendPool {
 public:
  /// One pooled connection. The decoder persists across poll iterations so
  /// a response split over many reads reassembles incrementally.
  struct Conn {
    int fd = -1;
    std::string label;
    FrameDecoder decoder;
    /// Complete frames decoded but not yet delivered. A streaming backend
    /// packs many tiles into one read(); recv_first banks the surplus here
    /// and serves it before touching the socket again. On the one-shot
    /// exchange path a non-empty queue means an unsolicited extra frame --
    /// dirty() flags the connection for discard.
    std::deque<std::string> pending;

    /// True when reuse would cross exchanges: a partial frame mid-decode or
    /// a banked frame nobody consumed. release() discards such a connection.
    [[nodiscard]] bool dirty() const { return decoder.mid_frame() || !pending.empty(); }

    Conn(const Conn&) = delete;
    Conn& operator=(const Conn&) = delete;
    Conn() = default;
    ~Conn();
  };
  using ConnPtr = std::unique_ptr<Conn>;

  explicit BackendPool(BackendOptions options);
  ~BackendPool();
  BackendPool(const BackendPool&) = delete;
  BackendPool& operator=(const BackendPool&) = delete;

  /// Checks out an idle connection, dialing a new one when none is idle and
  /// the pool is under capacity. At capacity, waits until a connection comes
  /// back or `deadline_ns` (Env clock) passes. nullptr = dial failure or
  /// capacity timeout -- the caller treats both as "this shard is busy".
  ConnPtr acquire(std::uint64_t deadline_ns);

  /// Returns a connection whose exchange completed; a dirty() one is
  /// discarded instead.
  void release(ConnPtr conn);

  /// Closes a poisoned connection (error / timeout / abandoned exchange).
  void discard(ConnPtr conn);

 private:
  int dial();  ///< blocking-with-timeout connect; -1 on failure

  BackendOptions options_;
  Env* env_;
  std::mutex mutex_;
  std::condition_variable returned_;
  std::vector<ConnPtr> idle_;
  std::size_t outstanding_ = 0;  ///< leased + idle
};

/// Sends one framed payload on a leased connection, polling for writability
/// until `deadline_ns` (Env clock). false = error or timeout; the caller
/// must discard the connection.
bool send_frame(Env& env, BackendPool::Conn& conn, std::string_view payload,
                std::uint64_t deadline_ns);

enum class RecvStatus {
  kOk,       ///< a complete payload arrived; `winner` says on which conn
  kTimeout,  ///< deadline passed with no complete frame (conns still usable)
  kError,    ///< read error / EOF / torn frame on `winner`'s conn
};

/// Waits for the first complete response payload across `conns` (the hedged
/// read: one poll set, first full frame wins). On kOk, `winner` is the
/// index whose exchange completed and `payload` holds its frame; on kError,
/// `winner` is the failed index and that connection must be discarded.
/// Frames already banked in a connection's `pending` queue are served before
/// the sockets are polled, and any surplus complete frames arriving in one
/// read are banked rather than dropped -- that is what lets a caller relay a
/// multi-frame tile stream by calling recv_first in a loop.
RecvStatus recv_first(Env& env, const std::vector<BackendPool::Conn*>& conns,
                      std::uint64_t deadline_ns, int& winner, std::string& payload);

}  // namespace semilocal
