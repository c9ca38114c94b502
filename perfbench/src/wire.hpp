// Blocking client connection speaking the engine/protocol.hpp framing, plus
// /proc readers for the server processes under test.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "engine/protocol.hpp"

namespace perfbench {

/// One TCP connection to 127.0.0.1:port. Owns the socket.
class Connection {
 public:
  /// Connects, retrying for up to `timeout_ms` while the server starts.
  Connection(int port, int timeout_ms = 10'000);
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  [[nodiscard]] int fd() const { return fd_; }

  /// Sends one framed payload. Throws std::runtime_error on failure.
  void send_payload(const std::string& payload);

  /// Sends `payload` and reads frames until the terminal one, passing each
  /// frame to `on_frame` (may be empty). Returns the terminal frame.
  semilocal::Response call(const std::string& payload,
                           const std::function<void(const semilocal::Response&)>& on_frame = {});

  /// Fills `out` with the next complete payloads read from the socket;
  /// returns false on EOF. Used by the open-loop receiver threads.
  bool read_frames(std::vector<std::string>& out);

 private:
  /// Reads the next response frame. Throws on EOF or a framing error.
  semilocal::Response read_response();

  int fd_ = -1;
  semilocal::FrameDecoder decoder_;
  std::vector<std::string> pending_;
  std::size_t pending_pos_ = 0;
};

/// Stats JSON of the server on `port` (Op::kStats), as the server wrote it.
std::string fetch_stats(int port);

/// utime + stime of process `pid`, in seconds (from /proc/<pid>/stat).
double process_cpu_s(int pid);

/// Peak resident set (VmHWM) of process `pid`, in MB.
double process_hwm_mb(int pid);

}  // namespace perfbench
