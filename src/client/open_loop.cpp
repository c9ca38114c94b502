#include "client/open_loop.hpp"

#include "engine/protocol.hpp"
#include "util/json.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <map>
#include <stdexcept>
#include <vector>

namespace semilocal {
namespace {

std::uint64_t mono_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One in-flight request: its send timestamp plus the oracle's expected
/// value (-1 = unverifiable). Strict FIFO per connection, like the protocol.
struct PendingSend {
  std::uint64_t send_ns = 0;
  Index expected = -1;
  std::string op_class;  // per_op latency bucket; empty = untagged
};

struct ClientConn {
  int fd = -1;
  FrameDecoder decoder;
  std::deque<PendingSend> outstanding;  // FIFO, matched response-by-response
  std::string out;                      // unsent framed bytes
  std::size_t out_off = 0;
  bool closed = false;
};

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(p * static_cast<double>(sorted.size() - 1));
  return sorted[idx];
}

}  // namespace

OpenLoopResult run_open_loop(const OpenLoopOptions& options) {
  if (!options.next_payload) {
    throw std::runtime_error("open_loop: next_payload is required");
  }
  OpenLoopResult result;
  // A 10k-connection fleet needs 10k fds; default soft limits (often 1024)
  // would turn most of the fleet into connect_failures. Mirror the server:
  // lift the soft limit to whatever the hard limit allows, best effort.
  rlimit lim{};
  if (::getrlimit(RLIMIT_NOFILE, &lim) == 0 && lim.rlim_cur < lim.rlim_max) {
    lim.rlim_cur = lim.rlim_max;
    (void)::setrlimit(RLIMIT_NOFILE, &lim);
  }
  const int epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd < 0) throw std::runtime_error("open_loop: epoll_create1 failed");

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(options.port));
  if (::inet_pton(AF_INET, options.host.c_str(), &addr.sin_addr) != 1) {
    ::close(epoll_fd);
    throw std::runtime_error("open_loop: bad host " + options.host);
  }

  // Connect the fleet up front (blocking; loopback connects resolve as fast
  // as the server accepts), then flip to non-blocking for the timed window.
  std::vector<ClientConn> conns(options.connections);
  for (std::size_t i = 0; i < conns.size(); ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0 ||
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      if (fd >= 0) ::close(fd);
      ++result.connect_failures;
      conns[i].closed = true;
      continue;
    }
    const int nodelay = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
    conns[i].fd = fd;
    ++result.connected;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = i;
    ::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev);
  }

  std::vector<double> latencies_ms;
  latencies_ms.reserve(static_cast<std::size_t>(
      options.arrival_rate * static_cast<double>(options.duration_ms) / 1000.0) + 16);
  std::map<int, std::vector<double>> shard_latencies_ms;  // by response.shard
  std::map<std::string, std::vector<double>> op_latencies_ms;  // by op class
  std::uint64_t last_response_ns = 0;

  const auto close_conn = [&](ClientConn& conn) {
    if (conn.fd >= 0) ::close(conn.fd);
    conn.fd = -1;
    conn.closed = true;
  };

  const auto on_readable = [&](ClientConn& conn) {
    char buf[1 << 16];
    while (true) {
      const long n = ::read(conn.fd, buf, sizeof(buf));
      if (n == 0) {  // server closed (shed / write-cap / timeout)
        if (!conn.outstanding.empty()) ++result.closed_early;
        close_conn(conn);
        return;
      }
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == EINTR) continue;
        close_conn(conn);
        return;
      }
      const std::uint64_t now = mono_ns();
      try {
        conn.decoder.feed(
            std::string_view(buf, static_cast<std::size_t>(n)),
            [&](std::string_view payload, bool /*spanned*/) {
              ++result.received;
              last_response_ns = now;
              // Decode before touching the FIFO: a streamed op (plot) lands
              // several frames on one outstanding slot, and only the
              // terminal frame retires it and records the latency sample.
              Response response;
              bool decoded = true;
              try {
                response = decode_response(payload);
              } catch (const ProtocolError&) {
                ++result.decode_errors;
                decoded = false;
              }
              if (decoded && !terminal_response_frame(response)) return;
              double latency_ms = -1.0;
              Index expected = -1;
              std::string op_class;
              if (!conn.outstanding.empty()) {
                latency_ms =
                    static_cast<double>(now - conn.outstanding.front().send_ns) / 1e6;
                expected = conn.outstanding.front().expected;
                op_class = std::move(conn.outstanding.front().op_class);
                latencies_ms.push_back(latency_ms);
                conn.outstanding.pop_front();
              }
              if (!decoded) return;  // undecodable terminal: counted above
              if (response.status == Status::kOk) {
                ++result.ok;
                if (expected >= 0 && response.value != expected) {
                  ++result.wrong_answers;
                }
              } else if (response.status == Status::kOverloaded) {
                ++result.overloaded;
              } else {
                ++result.errors;
              }
              if (response.shard >= 0 && latency_ms >= 0.0) {
                shard_latencies_ms[response.shard].push_back(latency_ms);
              }
              if (!op_class.empty() && latency_ms >= 0.0) {
                op_latencies_ms[std::move(op_class)].push_back(latency_ms);
              }
            });
      } catch (const ProtocolError&) {
        ++result.decode_errors;
        close_conn(conn);
        return;
      }
      if (static_cast<std::size_t>(n) < sizeof(buf)) return;
    }
  };

  const auto pump_writes = [&](ClientConn& conn) {
    while (conn.out_off < conn.out.size()) {
      const long w = ::write(conn.fd, conn.out.data() + conn.out_off,
                             conn.out.size() - conn.out_off);
      if (w > 0) {
        conn.out_off += static_cast<std::size_t>(w);
        continue;
      }
      if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      if (w < 0 && errno == EINTR) continue;
      close_conn(conn);
      return;
    }
    conn.out.clear();
    conn.out_off = 0;
  };

  // --- timed window: fixed-interval sends, round-robin target ------------
  const std::uint64_t start_ns = mono_ns();
  const std::uint64_t window_ns = options.duration_ms * 1'000'000;
  const double interval_ns = 1e9 / std::max(1.0, options.arrival_rate);
  double next_send = static_cast<double>(start_ns);
  std::size_t rr = 0;
  epoll_event events[512];

  while (true) {
    const std::uint64_t now = mono_ns();
    if (now - start_ns >= window_ns) break;
    // Fire everything the schedule owes us (an open loop never waits for
    // responses -- falling behind the schedule is the server's problem).
    while (static_cast<double>(now) >= next_send &&
           mono_ns() - start_ns < window_ns) {
      next_send += interval_ns;
      std::size_t probe = 0;
      while (probe < conns.size() && conns[rr % conns.size()].closed) {
        ++rr;
        ++probe;
      }
      if (probe == conns.size()) break;  // every socket is gone
      ClientConn& conn = conns[rr % conns.size()];
      ++rr;
      conn.out += frame_payload(options.next_payload());
      conn.outstanding.push_back(PendingSend{
          mono_ns(), options.next_expected ? options.next_expected() : Index{-1},
          options.next_op_class ? options.next_op_class() : std::string{}});
      ++result.sent;
      pump_writes(conn);
    }
    const std::uint64_t after = mono_ns();
    const double wait_ns = next_send - static_cast<double>(after);
    const int timeout_ms = wait_ns <= 0 ? 0 : static_cast<int>(wait_ns / 1e6);
    const int n = ::epoll_wait(epoll_fd, events, 512, std::min(timeout_ms, 10));
    for (int i = 0; i < n; ++i) {
      ClientConn& conn = conns[events[i].data.u64];
      if (conn.closed) continue;
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
        if (!conn.outstanding.empty()) ++result.closed_early;
        close_conn(conn);
        continue;
      }
      on_readable(conn);
      if (!conn.closed) pump_writes(conn);
    }
  }

  // --- drain: no more sends, wait for the stragglers ----------------------
  const std::uint64_t drain_deadline = mono_ns() + options.drain_ms * 1'000'000;
  const auto all_drained = [&] {
    return std::all_of(conns.begin(), conns.end(), [](const ClientConn& c) {
      return c.closed || (c.outstanding.empty() && c.out.empty());
    });
  };
  while (!all_drained() && mono_ns() < drain_deadline) {
    const int n = ::epoll_wait(epoll_fd, events, 512, 10);
    for (int i = 0; i < n; ++i) {
      ClientConn& conn = conns[events[i].data.u64];
      if (conn.closed) continue;
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
        if (!conn.outstanding.empty()) ++result.closed_early;
        close_conn(conn);
        continue;
      }
      on_readable(conn);
      if (!conn.closed) pump_writes(conn);
    }
  }
  for (ClientConn& conn : conns) {
    if (!conn.closed && !conn.outstanding.empty()) ++result.stalled;
    close_conn(conn);
  }
  ::close(epoll_fd);

  const double send_elapsed_s = static_cast<double>(mono_ns() - start_ns) / 1e9;
  result.achieved_rate =
      send_elapsed_s > 0 ? static_cast<double>(result.sent) / send_elapsed_s : 0.0;
  // Throughput legs want ok / elapsed_s: window start to the last response,
  // so drain slack does not dilute the rate of a run that finished early.
  result.elapsed_s = last_response_ns > start_ns
                         ? static_cast<double>(last_response_ns - start_ns) / 1e9
                         : send_elapsed_s;
  std::sort(latencies_ms.begin(), latencies_ms.end());
  result.p50_ms = percentile(latencies_ms, 0.50);
  result.p90_ms = percentile(latencies_ms, 0.90);
  result.p99_ms = percentile(latencies_ms, 0.99);
  result.max_ms = latencies_ms.empty() ? 0.0 : latencies_ms.back();
  for (auto& [shard, samples] : shard_latencies_ms) {
    std::sort(samples.begin(), samples.end());
    OpenLoopShardResult per;
    per.shard = shard;
    per.received = samples.size();
    per.p50_ms = percentile(samples, 0.50);
    per.p99_ms = percentile(samples, 0.99);
    result.per_shard.push_back(per);
  }
  for (auto& [op, samples] : op_latencies_ms) {
    std::sort(samples.begin(), samples.end());
    OpenLoopOpResult per;
    per.op = op;
    per.received = samples.size();
    per.p50_ms = percentile(samples, 0.50);
    per.p99_ms = percentile(samples, 0.99);
    result.per_op.push_back(per);
  }
  return result;
}

std::string to_json(const OpenLoopResult& r) {
  Json json;
  json.begin_object()
      .field("connected", r.connected)
      .field("connect_failures", r.connect_failures)
      .field("sent", r.sent)
      .field("received", r.received)
      .field("ok", r.ok)
      .field("errors", r.errors)
      .field("overloaded", r.overloaded)
      .field("decode_errors", r.decode_errors)
      .field("closed_early", r.closed_early)
      .field("stalled_sockets", r.stalled)
      .field("wrong_answers", r.wrong_answers)
      .field("achieved_rate", r.achieved_rate)
      .field("elapsed_s", r.elapsed_s)
      .field("p50_ms", r.p50_ms)
      .field("p90_ms", r.p90_ms)
      .field("p99_ms", r.p99_ms)
      .field("max_ms", r.max_ms)
      .key("per_shard")
      .begin_array();
  for (const OpenLoopShardResult& per : r.per_shard) {
    json.begin_object().field("shard", per.shard).field("received", per.received);
    json.field("p50_ms", per.p50_ms).field("p99_ms", per.p99_ms).end_object();
  }
  json.end_array().key("per_op").begin_array();
  for (const OpenLoopOpResult& per : r.per_op) {
    json.begin_object().field("op", per.op).field("received", per.received);
    json.field("p50_ms", per.p50_ms).field("p99_ms", per.p99_ms).end_object();
  }
  json.end_array().end_object();
  return json.str();
}

}  // namespace semilocal
