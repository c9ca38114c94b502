// Due-time open-loop client: one generator thread fires the stream's
// requests at their scheduled times over at most kConnections persistent
// connections, one receiver thread per connection matches the FIFO
// responses. The generator sleeps to each due time (clock_nanosleep on the
// monotonic clock), never spins, and every request is timed from when it
// was *due*, so a stall of the generator or the server is charged to every
// request scheduled during it.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "metrics.hpp"
#include "wire.hpp"
#include "workload.hpp"

namespace perfbench {

/// CLOCK_MONOTONIC in ns (the clock run.py's time.monotonic_ns() reads).
std::uint64_t now_ns();

struct OpenLoopRun {
  std::uint64_t start_ns = 0;  ///< absolute due time of offset 0
  std::uint64_t end_ns = 0;    ///< last final frame (or the drain deadline)
  DueTimes times;              ///< due/sent/done absolute; ok = kOk status
  std::vector<std::uint8_t> status;  ///< response status; 255 = unanswered
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
};

/// Runs the stream's timed schedule. `on_frame(i, response)` sees every
/// response frame of request i (tiles included) on its receiver thread.
OpenLoopRun run_open_loop(const Stream& stream,
                          const std::vector<std::unique_ptr<Connection>>& conns,
                          const std::function<void(std::size_t, const semilocal::Response&)>& on_frame,
                          std::uint64_t drain_ms);

}  // namespace perfbench
