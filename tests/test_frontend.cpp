// In-process tests for the serve transports over one EngineService
// (engine/frontend.hpp, engine/service.hpp): protocol round trips through
// real sockets, the typed admission-control verdicts (shed, per-connection
// budget, scheduler backpressure as RETRY_AFTER), slow-client defenses
// (slow-loris read timeout, idle eviction, write-queue cap), deterministic
// fault injection through the Env socket seam, graceful drain on stop, the
// stdio loop over string streams, and the open-loop load client
// (client/open_loop.hpp) against a reactor over a stub Service. Every
// reactor test binds port 0 (a
// fresh free port) and runs the frontend on a background thread; the
// multi-client hammer doubles as the tsan workload for the reactor / pump /
// counter interleavings.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <deque>
#include <functional>
#include <future>
#include <optional>
#include <sstream>
#include <system_error>
#include <thread>

#include "client/open_loop.hpp"
#include "engine/engine.hpp"
#include "engine/env.hpp"
#include "engine/frontend.hpp"
#include "engine/protocol.hpp"
#include "engine/service.hpp"
#include "oracles.hpp"

namespace semilocal {
namespace {

using namespace std::chrono_literals;

Sequence seq(const std::string& text) {
  Sequence out;
  out.reserve(text.size());
  for (const char c : text) out.push_back(static_cast<Symbol>(c));
  return out;
}

Request lcs_request(const std::string& a, const std::string& b) {
  Request request;
  request.op = Op::kLcs;
  request.a = seq(a);
  request.b = seq(b);
  return request;
}

/// A blocking test client: framed sends, decoder-driven receives with a
/// deadline, and explicit EOF observation.
class Client {
 public:
  /// rcvbuf_bytes > 0 shrinks SO_RCVBUF before connect (set early so the
  /// advertised TCP window honors it) -- the lever that keeps the kernel
  /// from absorbing responses a never-reading client test wants queued
  /// server-side.
  explicit Client(int port, int rcvbuf_bytes = 0) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) throw std::runtime_error("client socket failed");
    if (rcvbuf_bytes > 0) {
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf_bytes, sizeof(rcvbuf_bytes));
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
      throw std::runtime_error(std::string("client connect: ") + std::strerror(errno));
    }
    const int nodelay = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
  }

  ~Client() { close(); }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  /// Throws std::system_error on a failed write. MSG_NOSIGNAL: a write into a socket the
  /// server already closed fails with EPIPE instead of killing the process.
  void send_bytes(std::string_view bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const auto n = ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        throw std::system_error(n < 0 ? errno : EIO, std::generic_category(),
                                "client write failed");
      }
      off += static_cast<std::size_t>(n);
    }
  }

  void send(const Request& request) { send_bytes(frame_payload(encode_request(request))); }

  /// Next response frame, or nullopt on server-side close (EOF). Throws on
  /// deadline -- a stalled socket is always a test failure.
  std::optional<Response> recv(std::chrono::milliseconds deadline = 5000ms) {
    const auto until = std::chrono::steady_clock::now() + deadline;
    while (queue_.empty()) {
      if (eof_) return std::nullopt;
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          until - std::chrono::steady_clock::now());
      if (left <= 0ms) throw std::runtime_error("client recv deadline");
      pollfd pfd{fd_, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, static_cast<int>(left.count()));
      if (ready <= 0) continue;
      char buf[1 << 16];
      const auto n = ::read(fd_, buf, sizeof(buf));
      if (n == 0) {
        eof_ = true;
        continue;
      }
      if (n < 0) {
        if (errno == EINTR) continue;
        eof_ = true;  // RST from a hard server-side close
        continue;
      }
      decoder_.feed(std::string_view(buf, static_cast<std::size_t>(n)),
                    [this](std::string_view payload, bool) {
                      queue_.push_back(decode_response(payload));
                    });
    }
    Response response = std::move(queue_.front());
    queue_.pop_front();
    return response;
  }

  /// True if the server closes this connection within the deadline.
  bool closed_by_server(std::chrono::milliseconds deadline = 5000ms) {
    try {
      while (recv(deadline).has_value()) {
      }
      return true;  // EOF
    } catch (const std::exception&) {
      return false;  // deadline: still open
    }
  }

 private:
  int fd_ = -1;
  FrameDecoder decoder_;
  std::deque<Response> queue_;
  bool eof_ = false;
};

EngineOptions small_engine(int workers) {
  EngineOptions options;
  options.store.dir = "";  // memory only
  options.store.cache_bytes = std::size_t{32} << 20;
  options.scheduler.workers = workers;
  options.scheduler.max_queue = 64;
  return options;
}

/// Engine + its service + reactor + its run() thread, torn down in order.
struct Reactor {
  ComparisonEngine engine;
  EngineService service;
  FrontendServer server;
  std::thread thread;

  Reactor(EngineOptions engine_options, FrontendOptions frontend_options)
      : engine(std::move(engine_options)),
        service(engine),
        server(service, std::move(frontend_options)),
        thread([this] { server.run(); }) {}

  ~Reactor() { stop(); }

  void stop() {
    if (thread.joinable()) {
      server.request_stop();
      thread.join();
    }
  }

  [[nodiscard]] int port() const { return server.port(); }
};

FrontendOptions quiet_frontend() {
  FrontendOptions options;
  options.port = 0;
  options.idle_timeout_ms = 0;  // tests opt in to timeouts explicitly
  options.read_timeout_ms = 0;
  return options;
}

template <typename Pred>
bool eventually(Pred&& pred, std::chrono::milliseconds deadline = 5000ms) {
  const auto until = std::chrono::steady_clock::now() + deadline;
  while (std::chrono::steady_clock::now() < until) {
    if (pred()) return true;
    std::this_thread::sleep_for(2ms);
  }
  return pred();
}

TEST(Frontend, AnswersPingQueriesAndBatchesOverOneConnection) {
  Reactor reactor(small_engine(1), quiet_frontend());
  Client client(reactor.port());

  Request ping;
  ping.op = Op::kPing;
  client.send(ping);
  auto response = client.recv();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, Status::kOk);

  client.send(lcs_request("ACGTACGT", "AGTCAGTC"));
  response = client.recv();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, Status::kOk);
  EXPECT_GT(response->value, 0);

  Request batch;
  batch.op = Op::kBatchQuery;
  batch.a = seq("ACGTACGT");
  batch.b = seq("AGTCAGTC");
  for (int i = 0; i < 5; ++i) {
    WindowQuery w;
    w.kind = QueryKind::kLcs;
    batch.windows.push_back(w);
  }
  client.send(batch);
  response = client.recv();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, Status::kOk);
  ASSERT_EQ(response->values.size(), 5u);

  Request stats;
  stats.op = Op::kStats;
  client.send(stats);
  response = client.recv();
  ASSERT_TRUE(response.has_value());
  EXPECT_NE(response->text.find("\"frontend_connections\""), std::string::npos);
  EXPECT_NE(response->text.find("\"frontend_shed\""), std::string::npos);

  const FrontendStats fs = reactor.server.stats();
  EXPECT_EQ(fs.connections_accepted, 1u);
  EXPECT_EQ(fs.frames_decoded, 4u);
  EXPECT_EQ(fs.protocol_errors, 0u);
}

TEST(Frontend, ResponsesStayInRequestOrderAcrossWarmAndColdPaths) {
  // One cold pair (pump path) immediately followed by pings (inline path):
  // FIFO slots must hold the pings behind the compute.
  Reactor reactor(small_engine(1), quiet_frontend());
  Client client(reactor.port());
  client.send(lcs_request(std::string(2000, 'A') + "CGT", std::string(2000, 'C') + "GTA"));
  Request ping;
  ping.op = Op::kPing;
  client.send(ping);
  client.send(ping);
  const auto first = client.recv();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->status, Status::kOk);
  EXPECT_GT(first->value, 0);  // the LCS answer arrived first
  for (int i = 0; i < 2; ++i) {
    const auto pong = client.recv();
    ASSERT_TRUE(pong.has_value());
    EXPECT_EQ(pong->value, 0);
  }
}

TEST(Frontend, MaxConnectionsGateShedsWithOneRetryAfterFrame) {
  FrontendOptions options = quiet_frontend();
  options.max_connections = 2;
  Reactor reactor(small_engine(1), options);

  Client first(reactor.port());
  Client second(reactor.port());
  Request ping;
  ping.op = Op::kPing;
  first.send(ping);
  ASSERT_TRUE(first.recv().has_value());
  second.send(ping);
  ASSERT_TRUE(second.recv().has_value());

  Client third(reactor.port());
  const auto verdict = third.recv();
  ASSERT_TRUE(verdict.has_value()) << "shed connections get a frame, not silence";
  EXPECT_EQ(verdict->status, Status::kOverloaded);
  EXPECT_GE(verdict->retry_ms, 1);
  EXPECT_TRUE(third.closed_by_server());

  EXPECT_TRUE(eventually([&] { return reactor.server.stats().connections_shed == 1; }));
  EXPECT_GE(reactor.server.stats().retry_after_sent, 1u);
  // The admitted connections are unaffected.
  first.send(ping);
  EXPECT_TRUE(first.recv().has_value());
}

TEST(Frontend, SchedulerBackpressureBecomesTypedRetryAfter) {
  // workers = 0 and no inline drain: the queue holds job A until the test
  // drains it, so a second distinct pair deterministically overflows
  // max_queue = 1 and must come back as kOverloaded with the retry hint.
  EngineOptions engine_options = small_engine(0);
  engine_options.scheduler.max_queue = 1;
  FrontendOptions options = quiet_frontend();
  Reactor reactor(std::move(engine_options), options);

  Client client(reactor.port());
  client.send(lcs_request("AAAACCCC", "CCCCAAAA"));  // job A: parks in the queue
  ASSERT_TRUE(eventually([&] { return reactor.engine.stats().scheduler.queue_depth == 1; }))
      << "job A never reached the scheduler queue";
  client.send(lcs_request("GGGGTTTT", "TTTTGGGG"));  // job B: queue is full
  ASSERT_TRUE(eventually([&] { return reactor.server.stats().retry_after_sent == 1; }))
      << "the overload verdict was never issued";

  reactor.engine.drain();  // resolve job A so its response can flush

  const auto first = client.recv();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->status, Status::kOk) << first->text;
  const auto second = client.recv();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->status, Status::kOverloaded);
  EXPECT_GE(second->retry_ms, 1) << "RETRY_AFTER must carry a usable hint";
  // The connection survives a backpressure verdict.
  Request ping;
  ping.op = Op::kPing;
  client.send(ping);
  EXPECT_TRUE(client.recv().has_value());
}

TEST(Frontend, PerConnectionInflightBudgetAnswersRetryAfter) {
  EngineOptions engine_options = small_engine(0);  // nothing resolves on its own
  FrontendOptions options = quiet_frontend();
  options.max_inflight_per_conn = 2;
  Reactor reactor(std::move(engine_options), options);

  Client client(reactor.port());
  client.send(lcs_request("AAAA", "AACA"));
  client.send(lcs_request("CCCC", "CACC"));
  client.send(lcs_request("GGGG", "GAGG"));  // third cold request: over budget
  ASSERT_TRUE(eventually([&] { return reactor.server.stats().retry_after_sent == 1; }));

  reactor.engine.drain();
  const auto first = client.recv();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->status, Status::kOk);
  const auto second = client.recv();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->status, Status::kOk);
  const auto third = client.recv();
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(third->status, Status::kOverloaded);
}

TEST(Frontend, SlowLorisPartialFrameHitsTheReadTimeout) {
  FrontendOptions options = quiet_frontend();
  options.read_timeout_ms = 60;
  Reactor reactor(small_engine(1), options);

  Client client(reactor.port());
  client.send_bytes(std::string_view("\x21\x00", 2));  // 2 of 4 header bytes, then silence
  EXPECT_TRUE(client.closed_by_server(2000ms));
  EXPECT_TRUE(eventually([&] { return reactor.server.stats().timeouts_read == 1; }));
  EXPECT_EQ(reactor.server.stats().timeouts_idle, 0u);
}

TEST(Frontend, IdleConnectionsAreEvicted) {
  FrontendOptions options = quiet_frontend();
  options.idle_timeout_ms = 60;
  Reactor reactor(small_engine(1), options);

  Client client(reactor.port());
  Request ping;
  ping.op = Op::kPing;
  client.send(ping);
  ASSERT_TRUE(client.recv().has_value());
  // Now idle: no bytes, no partial frame, no pending work.
  EXPECT_TRUE(client.closed_by_server(2000ms));
  EXPECT_TRUE(eventually([&] { return reactor.server.stats().timeouts_idle == 1; }));
}

TEST(Frontend, NeverReadingClientIsDisconnectedAtTheWriteQueueCap) {
  FrontendOptions options = quiet_frontend();
  options.max_write_queue_bytes = std::size_t{64} << 10;
  Reactor reactor(small_engine(1), options);

  Client client(reactor.port(), /*rcvbuf_bytes=*/16 << 10);
  // Each response carries 64k values (~512 KiB); the client never reads and
  // advertises a tiny receive window, so the kernel buffers saturate fast
  // and the server-side queue crosses the cap.
  Request batch;
  batch.op = Op::kBatchQuery;
  batch.a = seq("ACGTACGT");
  batch.b = seq("AGTCAGTC");
  batch.windows.resize(kMaxBatchWindows);
  for (WindowQuery& w : batch.windows) w.kind = QueryKind::kLcs;
  const std::string frame = frame_payload(encode_request(batch));
  // On an idle host the server can trip the cap and close the socket while
  // the client is still sending: EPIPE/ECONNRESET is then the expected
  // outcome of the write, not a failure.
  try {
    for (int i = 0; i < 8; ++i) client.send_bytes(frame);
  } catch (const std::system_error& e) {
    EXPECT_TRUE(e.code().value() == EPIPE || e.code().value() == ECONNRESET) << e.what();
  }
  EXPECT_TRUE(eventually(
      [&] { return reactor.server.stats().write_queue_disconnects == 1; }, 10000ms))
      << "server never disconnected the slow reader";
}

TEST(Frontend, ResponsesParkedBehindAColdHeadStillHitTheWriteQueueCap) {
  // The unbounded-parking regression: a cold request holds the FIFO head, so
  // every later warm response parks in pending with the flush buffer empty
  // and the socket never written. The cap must bound those parked bytes too,
  // not only the saturated-socket path.
  EngineOptions engine_options = small_engine(0);  // cold never resolves alone
  FrontendOptions options = quiet_frontend();
  options.max_write_queue_bytes = std::size_t{64} << 10;
  Reactor reactor(std::move(engine_options), options);

  Client client(reactor.port());
  // Warm one pair's kernel into the cache so batch queries on it answer
  // inline (a one-window batch: a kLcs alone would build no kernel).
  Request warm;
  warm.op = Op::kBatchQuery;
  warm.a = seq("ACGTACGT");
  warm.b = seq("AGTCAGTC");
  warm.windows.resize(1);
  client.send(warm);
  ASSERT_TRUE(eventually([&] { return reactor.engine.stats().scheduler.queue_depth == 1; }));
  reactor.engine.drain();
  ASSERT_TRUE(client.recv().has_value());

  // The cold head: a distinct pair nothing will resolve.
  client.send(lcs_request("GGGGTTTT", "TTTTGGGG"));

  // One warm ~512 KiB batch response parks behind the gap and must cross the
  // 64 KiB cap without a single socket write.
  Request batch;
  batch.op = Op::kBatchQuery;
  batch.a = seq("ACGTACGT");
  batch.b = seq("AGTCAGTC");
  batch.windows.resize(kMaxBatchWindows);
  for (WindowQuery& w : batch.windows) w.kind = QueryKind::kLcs;
  client.send(batch);

  EXPECT_TRUE(eventually(
      [&] { return reactor.server.stats().write_queue_disconnects == 1; }))
      << "ready bytes parked behind the cold head were never capped";
  EXPECT_TRUE(client.closed_by_server());
  reactor.engine.drain();  // release the pump's future before teardown
}

TEST(Frontend, PoisonedStreamIsNeverReadAgainAfterProtocolError) {
  // After a ProtocolError the decoder has no frame boundary to resynchronize
  // on. A cold request keeps pending non-empty, so close_after_flush is
  // deferred -- the server must stop reading, or the pipelined pings below
  // would re-parse as frames and generate responses that postpone the close.
  EngineOptions engine_options = small_engine(0);
  FrontendOptions options = quiet_frontend();
  Reactor reactor(std::move(engine_options), options);

  Client client(reactor.port());
  client.send(lcs_request("ACGTACGT", "AGTCAGTC"));  // cold: holds the FIFO head
  ASSERT_TRUE(eventually([&] { return reactor.server.stats().frames_decoded == 1; }));
  client.send_bytes(std::string_view("\xff\xff\xff\xff", 4));  // poison
  ASSERT_TRUE(eventually([&] { return reactor.server.stats().protocol_errors == 1; }));

  Request ping;
  ping.op = Op::kPing;
  for (int i = 0; i < 16; ++i) client.send(ping);
  std::this_thread::sleep_for(100ms);  // time for the server to (wrongly) read
  EXPECT_EQ(reactor.server.stats().frames_decoded, 1u)
      << "bytes after the poison frame must never reach the decoder";

  reactor.engine.drain();  // resolve the cold head so the close can fire
  const auto first = client.recv();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->status, Status::kOk);
  const auto second = client.recv();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->status, Status::kError);
  EXPECT_FALSE(client.recv(2000ms).has_value()) << "connection must close, no pongs";
  EXPECT_EQ(reactor.server.stats().frames_decoded, 1u);
}

TEST(Frontend, MalformedFrameGetsAnErrorThenTheConnectionCloses) {
  Reactor reactor(small_engine(1), quiet_frontend());
  Client client(reactor.port());
  // Declared length over kMaxFrameBytes: unframed stream from here on.
  client.send_bytes(std::string_view("\xff\xff\xff\xff", 4));
  const auto response = client.recv();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, Status::kError);
  EXPECT_TRUE(client.closed_by_server());
  EXPECT_TRUE(eventually([&] { return reactor.server.stats().protocol_errors == 1; }));
}

TEST(Frontend, FaultyEnvTearsASpecificConnectionDeterministically) {
  // The Env socket seam: one scripted EIO on the first conn read kills that
  // connection; the trace records it as a sockread fault.
  FaultPlan plan;
  plan.clock_step_ns = 1;  // keep the synthetic clock away from the timeouts
  FaultRule rule;
  rule.op = EnvOp::kSockRead;
  rule.path_substring = "conn:";
  rule.count = 1;
  plan.rules.push_back(rule);
  FaultyEnv env(plan);

  FrontendOptions options = quiet_frontend();
  options.env = &env;
  Reactor reactor(small_engine(1), options);

  Client doomed(reactor.port());
  Request ping;
  ping.op = Op::kPing;
  doomed.send(ping);
  EXPECT_TRUE(doomed.closed_by_server());
  EXPECT_EQ(env.faults_injected(), 1u);
  EXPECT_NE(env.trace_text().find("sockread"), std::string::npos);

  // The next connection reads cleanly (the rule's window is spent).
  Client fine(reactor.port());
  fine.send(ping);
  EXPECT_TRUE(fine.recv().has_value());
}

TEST(Frontend, ShortReadInjectionExercisesTheDecoderResumePath) {
  // Truncate the first 32 conn reads to 3 bytes each: every frame spans
  // multiple reads, so the decoder's carry path must reassemble them all.
  FaultPlan plan;
  plan.clock_step_ns = 1;
  FaultRule rule;
  rule.op = EnvOp::kSockRead;
  rule.path_substring = "conn:";
  rule.count = 32;
  rule.short_write_bytes = 3;
  plan.rules.push_back(rule);
  FaultyEnv env(plan);

  FrontendOptions options = quiet_frontend();
  options.env = &env;
  Reactor reactor(small_engine(1), options);

  Client client(reactor.port());
  client.send(lcs_request("ACGT", "AGTC"));
  const auto response = client.recv();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, Status::kOk);
  EXPECT_GT(response->value, 0);
  EXPECT_GE(reactor.server.stats().partial_frames, 1u);
}

TEST(Frontend, GracefulDrainAnswersInFlightRequestsBeforeExit) {
  // workers = 0 and no inline drain pin four computes in flight: the server
  // has read the requests but cannot resolve them until the test drains the
  // engine. request_stop() must then wait for all four to answer and flush
  // before run() returns -- the shutdown path may not drop accepted work.
  EngineOptions engine_options = small_engine(0);
  FrontendOptions options = quiet_frontend();
  options.drain_timeout_ms = 5000;
  Reactor reactor(std::move(engine_options), options);
  Client client(reactor.port());
  for (int i = 0; i < 4; ++i) {
    client.send(lcs_request("ACGTACGTAC" + std::string(1, static_cast<char>('A' + i)),
                            "AGTCAGTCAG"));
  }
  ASSERT_TRUE(eventually([&] { return reactor.server.stats().frames_decoded == 4; }))
      << "requests never reached the server";
  reactor.server.request_stop();
  std::this_thread::sleep_for(50ms);  // let the drain begin with work in flight
  reactor.engine.drain();             // now the pumps can resolve their futures
  reactor.stop();                     // run() returns only after answer + flush
  for (int i = 0; i < 4; ++i) {
    const auto response = client.recv(1000ms);
    ASSERT_TRUE(response.has_value()) << "request " << i << " lost in shutdown";
    EXPECT_EQ(response->status, Status::kOk) << response->text;
  }
  EXPECT_FALSE(client.recv(500ms).has_value()) << "connection must close after drain";
}

TEST(Frontend, MultiClientHammerKeepsEveryConnectionConsistent) {
  // The tsan workload: concurrent clients race the reactor loop, the pump
  // pool and the stats snapshots.
  Reactor reactor(small_engine(2), quiet_frontend());
  constexpr int kClients = 4;
  constexpr int kRequests = 40;
  std::vector<std::thread> team;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    team.emplace_back([&, c] {
      try {
        Client client(reactor.port());
        for (int i = 0; i < kRequests; ++i) {
          // A small rotating pool: hits and misses interleave across clients.
          const std::string a = "ACGTACGT" + std::string(1, static_cast<char>('A' + (i + c) % 3));
          client.send(lcs_request(a, "AGTCAGTC"));
          const auto response = client.recv();
          if (!response || response->status != Status::kOk || response->value <= 0) {
            ++failures;
            return;
          }
          if (i % 10 == 0) {
            Request stats;
            stats.op = Op::kStats;
            client.send(stats);
            const auto s = client.recv();
            if (!s || s->text.find("frontend_frames") == std::string::npos) {
              ++failures;
              return;
            }
          }
        }
      } catch (const std::exception&) {
        ++failures;
      }
    });
  }
  for (std::thread& t : team) t.join();
  EXPECT_EQ(failures.load(), 0);
  const FrontendStats fs = reactor.server.stats();
  EXPECT_EQ(fs.connections_accepted, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(fs.protocol_errors, 0u);
}

TEST(Frontend, StatsJsonSplicesFrontendCountersIntoTheEngineObject) {
  // A live reactor's kStats reply: the engine's object with this frontend's
  // counters spliced in. One scripted short read makes the first frame span
  // two reads; max_connections = 1 sheds a second client with one
  // RETRY_AFTER frame.
  FaultPlan plan;
  plan.clock_step_ns = 1;
  FaultRule rule;
  rule.op = EnvOp::kSockRead;
  rule.path_substring = "conn:";
  rule.count = 1;
  rule.short_write_bytes = 3;
  plan.rules.push_back(rule);
  FaultyEnv env(plan);
  FrontendOptions options = quiet_frontend();
  options.env = &env;
  options.max_connections = 1;
  Reactor reactor(small_engine(1), options);

  Client client(reactor.port());
  client.send(lcs_request("ACGTACGT", "AGTCAGTC"));
  ASSERT_TRUE(client.recv().has_value());
  Client shed(reactor.port());
  const auto verdict = shed.recv();
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(verdict->status, Status::kOverloaded);

  Request stats;
  stats.op = Op::kStats;
  client.send(stats);
  const auto reply = client.recv();
  ASSERT_TRUE(reply.has_value());
  const std::string& json = reply->text;
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"requests\": 1,"), std::string::npos) << json;
  EXPECT_NE(json.find("\"frontend_connections\": 1,"), std::string::npos) << json;
  EXPECT_NE(json.find("\"frontend_shed\": 1,"), std::string::npos) << json;
  EXPECT_NE(json.find("\"frontend_retry_after_sent\": 1,"), std::string::npos) << json;
  EXPECT_NE(json.find("\"frontend_partial_frames\": 1,"), std::string::npos) << json;
}

// --- the score path: a global score never builds a kernel ------------------

TEST(Frontend, LcsMissScoresWithoutAKernelAndRepeatsAnswerInline) {
  Reactor reactor(small_engine(1), quiet_frontend());
  Client client(reactor.port());
  const std::string a = "ACGTTGCAACGTAGGCTA";
  const std::string b = "AGCTTGACCGTAGCTTAG";
  const Index expected = testing::lcs_oracle(seq(a), seq(b));

  client.send(lcs_request(a, b));
  auto response = client.recv();
  ASSERT_TRUE(response.has_value());
  ASSERT_EQ(response->status, Status::kOk) << response->text;
  EXPECT_EQ(response->value, expected);
  EngineStats stats = reactor.engine.stats();
  EXPECT_EQ(stats.scheduler.computed, 0u);
  EXPECT_EQ(stats.scheduler.scores_computed, 1u);
  EXPECT_EQ(stats.store.cache.entries, 0u);

  const std::uint64_t inline_before = reactor.server.stats().inline_answers;
  client.send(lcs_request(a, b));
  response = client.recv();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->value, expected);
  EXPECT_EQ(reactor.server.stats().inline_answers, inline_before + 1);
  stats = reactor.engine.stats();
  EXPECT_EQ(stats.scheduler.score_memo_hits, 1u);
  EXPECT_EQ(stats.scheduler.scores_computed, 1u);
}

TEST(Frontend, LcsWhileThePairsKernelIsInFlightQueuesNoScoreJob) {
  EngineOptions engine_options = small_engine(0);  // nothing resolves on its own
  Reactor reactor(std::move(engine_options), quiet_frontend());
  Client client(reactor.port());
  Request batch;
  batch.op = Op::kBatchQuery;
  batch.a = seq("GATTACAGATTACA");
  batch.b = seq("TACAGATTAGACAT");
  batch.windows.resize(2);
  client.send(batch);
  ASSERT_TRUE(eventually([&] { return reactor.engine.stats().scheduler.queue_depth == 1; }));
  client.send(lcs_request("GATTACAGATTACA", "TACAGATTAGACAT"));
  ASSERT_TRUE(eventually([&] { return reactor.server.stats().frames_decoded == 2; }));
  EXPECT_EQ(reactor.engine.stats().scheduler.queue_depth, 1u);

  reactor.engine.drain();
  const Index expected = testing::lcs_oracle(batch.a, batch.b);
  const auto first = client.recv();
  ASSERT_TRUE(first.has_value());
  ASSERT_EQ(first->values.size(), 2u);
  EXPECT_EQ(first->values[0], expected);
  const auto second = client.recv();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->value, expected);
  const EngineStats stats = reactor.engine.stats();
  EXPECT_EQ(stats.scheduler.computed, 1u);
  EXPECT_EQ(stats.scheduler.scores_computed, 0u);
}

TEST(Frontend, FullQueueShedsScoreJobsWithRetryAfter) {
  EngineOptions engine_options = small_engine(0);
  engine_options.scheduler.max_queue = 1;
  ComparisonEngine engine(std::move(engine_options));
  EngineService service(engine);
  Step queued = service.begin(lcs_request("AAAACCCC", "CCCCAAAA"), /*may_defer=*/true);
  ASSERT_TRUE(queued.job) << "a cold score must defer";
  const Step shed = service.begin(lcs_request("GGGGTTTT", "TTTTGGGG"), /*may_defer=*/true);
  ASSERT_TRUE(shed.answer.has_value());
  EXPECT_EQ(shed.answer->status, Status::kOverloaded);
  EXPECT_GE(shed.answer->retry_ms, 1);
  EXPECT_EQ(engine.stats().scheduler.rejected, 1u);

  engine.drain();
  std::optional<Response> answered;
  queued.job([&](Response&& response) {
    answered = std::move(response);
    return true;
  });
  ASSERT_TRUE(answered.has_value());
  EXPECT_EQ(answered->value, testing::lcs_oracle(seq("AAAACCCC"), seq("CCCCAAAA")));
}

// --- the stdio transport ---------------------------------------------------

/// Runs one stdio session over `input` against a workers = 0 engine that
/// drains inline, and decodes every frame the session wrote.
std::vector<Response> stdio_session(const std::string& input) {
  ComparisonEngine engine(small_engine(0));
  EngineService service(engine, /*corpus=*/nullptr, /*dna=*/false, /*drain_inline=*/true);
  std::istringstream in(input);
  std::ostringstream out;
  serve_stream(service, in, out);
  std::istringstream written(out.str());
  std::vector<Response> responses;
  while (const auto payload = read_frame(written)) {
    responses.push_back(decode_response(*payload));
  }
  return responses;
}

std::string framed(const Request& request) { return frame_payload(encode_request(request)); }

TEST(Frontend, StdioScoresFromTheMemoThenFromTheKernelAWindowBuilds) {
  const Sequence a = testing::random_string(60, 4, 511);
  const Sequence b = testing::random_string(48, 4, 512);
  Request lcs;
  lcs.op = Op::kLcs;
  lcs.a = a;
  lcs.b = b;
  Request window = lcs;
  window.op = Op::kStringSubstring;
  window.x = 5;
  window.y = 40;
  Request stats;
  stats.op = Op::kStats;

  const auto responses = stdio_session(framed(lcs) + framed(lcs) + framed(window) +
                                       framed(lcs) + framed(stats));
  ASSERT_EQ(responses.size(), 5u);
  const Index expected = testing::lcs_oracle(a, b);
  for (const std::size_t i : {0u, 1u, 3u}) {
    ASSERT_EQ(responses[i].status, Status::kOk) << responses[i].text;
    EXPECT_EQ(responses[i].value, expected) << "kLcs #" << i;
  }
  EXPECT_EQ(responses[2].value, testing::lcs_oracle(a, SequenceView(b).subspan(5, 35)));
  const std::string& json = responses[4].text;
  EXPECT_NE(json.find("\"scores_computed\": 1,"), std::string::npos) << json;
  EXPECT_NE(json.find("\"score_memo_hits\": 1,"), std::string::npos) << json;
  EXPECT_NE(json.find("\"computed\": 1,"), std::string::npos) << json;
}

TEST(Frontend, StdioAnswersPingQueriesAndBatchesAgainstTheOracle) {
  const Sequence a = testing::random_string(40, 4, 501);
  const Sequence b = testing::random_string(56, 4, 502);
  Request ping;
  ping.op = Op::kPing;
  Request lcs;
  lcs.op = Op::kLcs;
  lcs.a = a;
  lcs.b = b;
  Request batch = lcs;
  batch.op = Op::kBatchQuery;
  for (Index j = 0; j + 10 <= 56; j += 7) {
    WindowQuery w;
    w.kind = QueryKind::kStringSubstring;
    w.x = j;
    w.y = j + 10;
    batch.windows.push_back(w);
  }

  const auto responses = stdio_session(framed(ping) + framed(lcs) + framed(batch));
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(responses[0].status, Status::kOk);
  ASSERT_EQ(responses[1].status, Status::kOk) << responses[1].text;
  EXPECT_EQ(responses[1].value, testing::lcs_oracle(a, b));
  ASSERT_EQ(responses[2].status, Status::kOk) << responses[2].text;
  ASSERT_EQ(responses[2].values.size(), batch.windows.size());
  for (std::size_t i = 0; i < batch.windows.size(); ++i) {
    const WindowQuery& w = batch.windows[i];
    const SequenceView window = SequenceView(b).subspan(static_cast<std::size_t>(w.x),
                                                        static_cast<std::size_t>(w.y - w.x));
    EXPECT_EQ(responses[2].values[i], testing::lcs_oracle(a, window)) << "window " << i;
  }
}

TEST(Frontend, StdioPlotTilesAssembleToTheNaiveCells) {
  const Sequence a = testing::random_string(70, 4, 511);
  const Sequence b = testing::random_string(90, 4, 512);
  Request plot;
  plot.op = Op::kAlignmentPlot;
  plot.a = a;
  plot.b = b;
  PlotSpec spec;
  spec.rows = 5;
  spec.cols = 7;
  spec.step = 11;
  spec.window = 16;
  plot.plot = spec;

  const auto responses = stdio_session(framed(plot));
  ASSERT_FALSE(responses.empty());
  PlotAssembler assembler(spec.rows, spec.cols, spec.quant);
  for (const Response& response : responses) {
    ASSERT_EQ(response.status, Status::kOk) << response.text;
    assembler.feed(response);
  }
  EXPECT_TRUE(terminal_response_frame(responses.back()));
  ASSERT_TRUE(assembler.complete());
  // Cell (u, v) is the LCS of the u-th window of a and the v-th of b.
  for (Index u = 0; u < spec.rows; ++u) {
    for (Index v = 0; v < spec.cols; ++v) {
      const auto window = [&spec](const Sequence& s, Index start) {
        return SequenceView(s).subspan(static_cast<std::size_t>(start),
                                       static_cast<std::size_t>(spec.window));
      };
      EXPECT_EQ(assembler.cell(u, v),
                testing::lcs_oracle(window(a, spec.row_start(u)), window(b, spec.col_start(v))))
          << "cell " << u << "," << v;
    }
  }
}

TEST(Frontend, StdioUpsertWithoutACorpusAnswersError) {
  Request upsert;
  upsert.op = Op::kUpsert;
  upsert.a = seq("doc-1");
  upsert.b = seq("ACGTACGT");
  Request ping;
  ping.op = Op::kPing;
  const auto responses = stdio_session(framed(upsert) + framed(ping));
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].status, Status::kError);
  EXPECT_NE(responses[0].text.find("no corpus"), std::string::npos) << responses[0].text;
  EXPECT_EQ(responses[1].status, Status::kOk) << "the session survives a refused upsert";
}

TEST(Frontend, StdioTruncatedFrameGetsOneErrorThenEof) {
  Request ping;
  ping.op = Op::kPing;
  const std::string whole = framed(lcs_request("ACGTACGT", "AGTCAGTC"));
  // A ping, then a frame cut off mid-payload: one answer, one kError, EOF.
  const auto responses = stdio_session(framed(ping) + whole.substr(0, whole.size() - 3));
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].status, Status::kOk);
  EXPECT_EQ(responses[1].status, Status::kError);
  EXPECT_NE(responses[1].text.find("truncated"), std::string::npos) << responses[1].text;
}

// --- the open-loop client ---------------------------------------------------

/// A Service whose every decision is the test's `decide`.
class StubService final : public Service {
 public:
  explicit StubService(std::function<Step(Request&&)> decide) : decide_(std::move(decide)) {}
  Step begin(Request&& request, bool /*may_defer*/) override {
    return decide_(std::move(request));
  }

 private:
  std::function<Step(Request&&)> decide_;
};

/// Stub service + reactor + its run() thread, torn down in order.
struct StubReactor {
  StubService service;
  FrontendServer server;
  std::thread thread;

  StubReactor(std::function<Step(Request&&)> decide, FrontendOptions options)
      : service(std::move(decide)),
        server(service, std::move(options)),
        thread([this] { server.run(); }) {}

  ~StubReactor() { stop(); }

  void stop() {
    if (thread.joinable()) {
      server.request_stop();
      thread.join();
    }
  }
};

Step answer_now(Index value) {
  Response response;
  response.value = value;
  return Step{std::move(response), {}};
}

/// 200 ms of kLcs sends at 200 req/s, then up to 300 ms of drain.
OpenLoopOptions short_open_loop(int port, std::size_t connections) {
  OpenLoopOptions options;
  options.port = port;
  options.connections = connections;
  options.arrival_rate = 200;
  options.duration_ms = 200;
  options.drain_ms = 300;
  options.next_payload = [] { return encode_request(lcs_request("ACGTACGT", "AGTCAGTC")); };
  return options;
}

TEST(FrontendOpenLoop, EveryRequestAnsweredCountsNoStall) {
  StubReactor reactor([](Request&&) { return answer_now(1); }, quiet_frontend());
  const OpenLoopResult result = run_open_loop(short_open_loop(reactor.server.port(), 4));
  EXPECT_EQ(result.connected, 4u);
  EXPECT_GT(result.sent, 0u);
  EXPECT_EQ(result.received, result.sent);
  EXPECT_EQ(result.ok, result.sent);
  EXPECT_EQ(result.stalled, 0u);
  EXPECT_EQ(result.decode_errors, 0u);
}

TEST(FrontendOpenLoop, AJobParkedPastTheDrainStallsItsSocket) {
  std::promise<void> latch;
  const std::shared_future<void> released = latch.get_future().share();
  std::atomic<bool> parked{false};
  StubReactor reactor(
      [&](Request&&) -> Step {
        if (parked.exchange(true)) return answer_now(1);
        return Step{std::nullopt, [released](const Sink& sink) {
                      released.wait();
                      sink(answer_now(1).answer.value());
                    }};
      },
      quiet_frontend());
  // Destroyed before the reactor, even on a throw: stopping the reactor
  // waits for the parked job, so the latch must be open by then.
  struct Opener {
    std::promise<void>& latch;
    ~Opener() { latch.set_value(); }
  } const opener{latch};
  const OpenLoopResult result = run_open_loop(short_open_loop(reactor.server.port(), 2));
  EXPECT_GT(result.sent, 2u);
  EXPECT_EQ(result.stalled, 1u) << "only the parked job's socket still owes a response";
}

TEST(FrontendOpenLoop, WrongKLcsValuesCountOncePerCheckedSend) {
  StubReactor reactor(
      [](Request&& request) {
        EXPECT_EQ(request.op, Op::kLcs);
        return answer_now(7);
      },
      quiet_frontend());
  OpenLoopOptions options = short_open_loop(reactor.server.port(), 4);
  std::uint64_t calls = 0;
  std::uint64_t checked = 0;
  options.next_expected = [&]() -> Index {
    if (calls++ % 2 != 0) return -1;  // unverifiable: never a wrong answer
    ++checked;
    return 3;
  };
  const OpenLoopResult result = run_open_loop(options);
  EXPECT_EQ(result.stalled, 0u);
  EXPECT_EQ(calls, result.sent);
  EXPECT_GT(checked, 0u);
  EXPECT_EQ(result.wrong_answers, checked);
}

TEST(FrontendOpenLoop, PerOpBucketsSumToReceived) {
  StubReactor reactor([](Request&&) { return answer_now(1); }, quiet_frontend());
  OpenLoopOptions options = short_open_loop(reactor.server.port(), 4);
  std::uint64_t calls = 0;
  options.next_op_class = [&]() -> std::string { return calls++ % 3 == 0 ? "plot" : "query"; };
  const OpenLoopResult result = run_open_loop(options);
  EXPECT_EQ(result.stalled, 0u);
  ASSERT_EQ(result.per_op.size(), 2u);
  std::uint64_t bucketed = 0;
  for (const OpenLoopOpResult& per : result.per_op) bucketed += per.received;
  EXPECT_EQ(bucketed, result.received);
}

TEST(FrontendOpenLoop, ConnectionsOverTheGateEachCountOneOverloaded) {
  FrontendOptions frontend = quiet_frontend();
  frontend.max_connections = 2;
  StubReactor reactor([](Request&&) { return answer_now(1); }, frontend);
  OpenLoopOptions options = short_open_loop(reactor.server.port(), 5);
  // 50 ms between sends: the shed sockets' RETRY_AFTER frames are read
  // before the round robin reaches them.
  options.arrival_rate = 20;
  const OpenLoopResult result = run_open_loop(options);
  EXPECT_EQ(result.connected, 5u);
  EXPECT_EQ(result.overloaded, 3u);
  EXPECT_EQ(result.ok, result.sent);
  EXPECT_EQ(result.stalled, 0u);
}

}  // namespace
}  // namespace semilocal
