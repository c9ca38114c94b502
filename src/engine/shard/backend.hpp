// Per-shard pool of non-blocking backend connections.
//
// Each backend shard gets one BackendPool: a bounded set of loopback/TCP
// connections speaking the length-prefixed wire protocol, checked out
// exclusively for one request-response exchange at a time. The pool never
// blocks and never does socket I/O: the router's relay moves every byte
// through Env::fd_read / Env::fd_write with the connection's label
// "shard:<id>", which is the whole trick of the fault testkit: a FaultPlan
// rule matching "shard:2" kills or tears exactly backend 2's bytes, with a
// deterministic, replayable trace -- no process spawning, no kill(2) races.
//
// The pool never multiplexes: a connection carries at most one outstanding
// request, so the first complete frame read back is *the* response. A
// connection whose exchange went sideways (send error, timeout, torn frame,
// abandoned hedge, cancelled stream) is discarded, never released -- a stray
// late response on a reused connection would be answered to the wrong
// request, which is the one failure mode a router must make structurally
// impossible.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "engine/protocol.hpp"

namespace semilocal {

struct BackendOptions {
  std::string host = "127.0.0.1";
  int port = 0;
  /// Stable shard id; becomes the fault-rule label "shard:<id>".
  int shard_id = 0;
  /// Concurrent exchanges (leased + idle connections) this pool allows.
  std::size_t max_connections = 8;
};

class BackendPool {
 public:
  /// One pooled non-blocking connection. The decoder persists across reads
  /// so a response split over many reads reassembles incrementally.
  struct Conn {
    int fd = -1;
    std::string label;
    FrameDecoder decoder;
    /// A fresh dial whose non-blocking connect has not completed: the first
    /// writability says how it went (SO_ERROR).
    bool connecting = false;

    Conn(const Conn&) = delete;
    Conn& operator=(const Conn&) = delete;
    Conn() = default;
    ~Conn();
  };
  using ConnPtr = std::unique_ptr<Conn>;

  explicit BackendPool(BackendOptions options);
  BackendPool(const BackendPool&) = delete;
  BackendPool& operator=(const BackendPool&) = delete;

  /// Checks out an idle connection, else dials a new one when the pool is
  /// under capacity (its connect may still be in progress). Never blocks.
  /// nullptr with `busy` set: at capacity, try again later; nullptr without:
  /// the dial failed. Thread-safe.
  ConnPtr try_acquire(bool& busy);

  /// Returns a connection whose exchange completed; one with a partial
  /// frame buffered is discarded instead.
  void release(ConnPtr conn);

  /// Closes a poisoned connection (error / timeout / abandoned exchange).
  void discard(ConnPtr conn);

 private:
  int dial(bool& connecting);  ///< non-blocking connect; -1 on failure

  BackendOptions options_;
  std::mutex mutex_;
  std::vector<ConnPtr> idle_;
  std::size_t outstanding_ = 0;  ///< leased + idle
};

}  // namespace semilocal
