// What the two server tools, semilocal_serve and semilocal_router, share on
// their command line and in their process plumbing: the frontend options
// (see engine/frontend.hpp) and the signals that stop the reactor.
#pragma once

#include <csignal>
#include <set>
#include <string>

#include "engine/frontend.hpp"
#include "util/cli.hpp"

namespace semilocal::tools {

/// `names` plus --port and the seven frontend options, for CliArgs::parse's
/// known-option list.
inline std::set<std::string> with_frontend_options(std::set<std::string> names) {
  names.insert({"port", "backlog", "max-conns", "max-inflight", "write-cap-kb",
                "idle-timeout-ms", "read-timeout-ms", "drain-timeout-ms"});
  return names;
}

/// The reactor's options from the command line, listening on `port`:
///   --backlog N          listen(2) backlog (default 128)
///   --max-conns N        admission gate; beyond it connections are shed
///                        with one RETRY_AFTER frame (default 10000)
///   --max-inflight N     per-connection pending-compute budget (default 64)
///   --write-cap-kb N     per-connection write-queue cap (default 1024)
///   --idle-timeout-ms N  idle connection eviction, 0 disables (default 60000)
///   --read-timeout-ms N  slow-loris partial-frame timeout, 0 disables
///                        (default 10000)
///   --drain-timeout-ms N graceful-shutdown budget (default 2000)
inline FrontendOptions frontend_options(const CliArgs& args, const std::string& port) {
  FrontendOptions frontend;
  frontend.port = static_cast<int>(std::stol(port));
  frontend.listen_backlog = static_cast<int>(args.int_option_or("backlog", 128));
  frontend.max_connections =
      static_cast<std::size_t>(args.int_option_or("max-conns", 10000));
  frontend.max_inflight_per_conn =
      static_cast<std::size_t>(args.int_option_or("max-inflight", 64));
  frontend.max_write_queue_bytes =
      static_cast<std::size_t>(args.int_option_or("write-cap-kb", 1024)) << 10;
  frontend.idle_timeout_ms =
      static_cast<std::uint64_t>(args.int_option_or("idle-timeout-ms", 60'000));
  frontend.read_timeout_ms =
      static_cast<std::uint64_t>(args.int_option_or("read-timeout-ms", 10'000));
  frontend.drain_timeout_ms =
      static_cast<std::uint64_t>(args.int_option_or("drain-timeout-ms", 2'000));
  return frontend;
}

/// While alive, SIGINT and SIGTERM call the server's async-signal-safe
/// request_stop() (a graceful drain), and SIGPIPE is ignored: a broken peer
/// socket is a per-write error. One per process.
class StopOnSignal {
 public:
  explicit StopOnSignal(FrontendServer& server) {
    target_ = &server;
    struct sigaction sa {};
    sa.sa_handler = [](int) {
      if (target_ != nullptr) target_->request_stop();
    };
    ::sigaction(SIGINT, &sa, nullptr);
    ::sigaction(SIGTERM, &sa, nullptr);
    ::signal(SIGPIPE, SIG_IGN);
  }
  ~StopOnSignal() { target_ = nullptr; }
  StopOnSignal(const StopOnSignal&) = delete;
  StopOnSignal& operator=(const StopOnSignal&) = delete;

 private:
  static inline FrontendServer* target_ = nullptr;
};

}  // namespace semilocal::tools
