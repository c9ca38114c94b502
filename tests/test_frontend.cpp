// In-process tests for the serve transports over one EngineService
// (engine/frontend.hpp, engine/service.hpp): protocol round trips through
// real sockets, the typed admission-control verdicts (shed, per-connection
// budget, scheduler backpressure as RETRY_AFTER), slow-client defenses
// (slow-loris read timeout, idle eviction, write-queue cap), deterministic
// fault injection through the Env socket seam, graceful drain on stop, the
// stdio loop over string streams, the open-loop load client
// (client/open_loop.hpp) against a reactor over a stub Service, the
// one-window score path through EngineService (a pair's first window is a
// window job, its second combs the kernel; window jobs beside kernel, score
// and upsert jobs of the same pair, and concurrent duplicates), and golden
// JSON documents (engine stats through the reactor's splice, engine health,
// the open-loop result). Every
// reactor test binds port 0 (a
// fresh free port) and runs the frontend on a background thread; the
// multi-client hammer doubles as the tsan workload for the reactor / worker
// post / counter interleavings.
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
#include <filesystem>
#include <functional>
#include <future>
#include <optional>
#include <sstream>
#include <system_error>
#include <thread>

#include "client/open_loop.hpp"
#include "engine/corpus_version.hpp"
#include "engine/engine.hpp"
#include "engine/env.hpp"
#include "engine/frontend.hpp"
#include "engine/loop.hpp"
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
  // One cold pair (loop work) immediately followed by pings (inline path):
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
  // Warm one pair's kernel into the cache, with its index built, so batch
  // queries on it answer inline (a two-window batch builds the index; a
  // kLcs alone would build no kernel).
  Request warm;
  warm.op = Op::kBatchQuery;
  warm.a = seq("ACGTACGT");
  warm.b = seq("AGTCAGTC");
  warm.windows.resize(2);
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
  reactor.engine.drain();  // run the cold head before teardown
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
  reactor.engine.drain();             // the jobs complete and post to the loop
  reactor.stop();                     // run() returns only after answer + flush
  for (int i = 0; i < 4; ++i) {
    const auto response = client.recv(1000ms);
    ASSERT_TRUE(response.has_value()) << "request " << i << " lost in shutdown";
    EXPECT_EQ(response->status, Status::kOk) << response->text;
  }
  EXPECT_FALSE(client.recv(500ms).has_value()) << "connection must close after drain";
}

TEST(Frontend, MultiClientHammerKeepsEveryConnectionConsistent) {
  // The tsan workload: concurrent clients race the reactor loop, the
  // workers posting back to it and the stats snapshots.
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

// --- one thread model: engine work completes on the loop ---------------------

/// Threads of this process, off /proc/self/task.
std::size_t live_threads() {
  std::size_t count = 0;
  for (const auto& task : std::filesystem::directory_iterator("/proc/self/task")) {
    (void)task;
    ++count;
  }
  return count;
}

TEST(Frontend, ServingStartsNoThreadBeyondTheLoop) {
  // A cold window, a second window that combs the pair's kernel, a cold
  // score, a plot and two upserts through one live reactor over a 2-worker engine:
  // their compute runs on the scheduler's workers and their frames go out
  // on the loop, so serving adds exactly one thread -- the loop's own.
  ComparisonEngine engine(small_engine(2));
  CorpusManager corpus(engine, CorpusManagerOptions{});
  EngineService service(engine, &corpus);
  FrontendServer server(service, quiet_frontend());
  const std::size_t before = live_threads();
  std::thread loop([&server] { server.run(); });
  std::size_t most = 0;
  std::vector<Response> answers;
  {
    Client client(server.port());
    const auto ask = [&](const Request& request) {
      client.send(request);
      while (true) {
        std::optional<Response> response = client.recv();
        most = std::max(most, live_threads());
        if (!response.has_value()) return;
        const bool last = terminal_response_frame(*response);
        answers.push_back(std::move(*response));
        if (last) return;
      }
    };
    const Sequence a = testing::random_string(300, 4, 621);
    const Sequence b = testing::random_string(280, 4, 622);
    Request window;
    window.op = Op::kStringSubstring;
    window.a = a;
    window.b = b;
    window.x = 10;
    window.y = 200;
    ask(window);  // cold: a window job
    window.op = Op::kSubstringString;
    window.x = 20;
    window.y = 250;
    ask(window);  // the pair's second ask: a kernel job, its first ask scanned
    ask(lcs_request("GATTACAGATTACAGATTACA", "TACAGATTAGACATACAGAT"));  // cold score
    Request plot;
    plot.op = Op::kAlignmentPlot;
    plot.a = a;
    plot.b = b;
    PlotSpec spec;
    spec.rows = 6;
    spec.cols = 6;
    spec.step = 16;
    spec.window = 24;
    plot.plot = spec;
    ask(plot);
    for (const char* id : {"doc-1", "doc-2"}) {
      Request upsert;
      upsert.op = Op::kUpsert;
      upsert.a = seq(id);
      upsert.b = testing::random_string(120, 4, id[4]);
      ask(upsert);
    }
  }
  server.request_stop();
  loop.join();
  EXPECT_EQ(most, before + 1) << "threads before run(): " << before;

  ASSERT_GE(answers.size(), 6u);
  for (const Response& response : answers) {
    EXPECT_EQ(response.status, Status::kOk) << response.text;
  }
  const SemiLocalKernel oracle = semi_local_kernel(
      testing::random_string(300, 4, 621), testing::random_string(280, 4, 622));
  EXPECT_EQ(answers[0].value, oracle.string_substring(10, 200));
  EXPECT_EQ(answers[1].value, oracle.substring_string(20, 250));
  EXPECT_EQ(answers[2].value, testing::lcs_oracle(seq("GATTACAGATTACAGATTACA"),
                                                  seq("TACAGATTAGACATACAGAT")));
  EXPECT_TRUE(answers[answers.size() - 3].tile.has_value());
  EXPECT_EQ(answers[answers.size() - 2].value, 1);  // doc-1 v1
  EXPECT_EQ(answers.back().value, 1);               // doc-2 v1
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.queries.index_builds, 0u);
  EXPECT_EQ(corpus.generation(), 2u);
}

TEST(Frontend, ServerDestroyedBeforeItsColdJobRunsSendsNoFrame) {
  // workers = 0 and no inline drain: the cold job sits in the queue until
  // the drainer runs it, once the server is gone (or after 2 s, if
  // stopping the server waits for the job). Its answer has no connection,
  // no loop and no server left to go to: it is dropped, and nothing it
  // touches is freed memory (the ASan frontend slice runs this).
  ComparisonEngine engine(small_engine(0));
  EngineService service(engine);
  std::promise<void> destroyed;
  std::thread drainer([&engine, gone = destroyed.get_future()] {
    (void)gone.wait_for(2s);
    engine.drain();
  });
  std::optional<Client> client;
  {
    FrontendOptions options = quiet_frontend();
    options.drain_timeout_ms = 50;
    FrontendServer server(service, options);
    std::thread loop([&server] { server.run(); });
    client.emplace(server.port());
    client->send(lcs_request("ACGTACGTACGTTT", "AGTCAGTCAGTCAA"));
    EXPECT_TRUE(eventually([&] { return engine.stats().scheduler.queue_depth == 1; }));
    server.request_stop();
    loop.join();
  }
  destroyed.set_value();
  drainer.join();
  EXPECT_EQ(engine.stats().scheduler.scores_computed, 1u);
  EXPECT_FALSE(client->recv(500ms).has_value()) << "a frame went out for a closed connection";
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
  ASSERT_TRUE(queued.work) << "a cold score must defer";
  const Step shed = service.begin(lcs_request("GGGGTTTT", "TTTTGGGG"), /*may_defer=*/true);
  ASSERT_TRUE(shed.answer.has_value());
  EXPECT_EQ(shed.answer->status, Status::kOverloaded);
  EXPECT_GE(shed.answer->retry_ms, 1);
  EXPECT_EQ(engine.stats().scheduler.rejected, 1u);

  engine.drain();
  std::optional<Response> answered;
  run_loop_work(*queued.work, real_env(), [&](Response&& response) {
    answered = std::move(response);
    return true;
  });
  ASSERT_TRUE(answered.has_value());
  EXPECT_EQ(answered->value, testing::lcs_oracle(seq("AAAACCCC"), seq("CCCCAAAA")));
}

// --- one-window asks: the first is a window score, the second combs ----------

Request window_request(const Sequence& a, const Sequence& b, Op op, Index x, Index y) {
  Request request;
  request.op = op;
  request.a = a;
  request.b = b;
  request.x = x;
  request.y = y;
  return request;
}

/// LCS of the window `request` asks, by the DP oracle.
Index window_oracle(const Request& request) {
  const auto slice = [&](const Sequence& s) {
    return SequenceView(s).subspan(static_cast<std::size_t>(request.x),
                                   static_cast<std::size_t>(request.y - request.x));
  };
  switch (request.op) {
    case Op::kStringSubstring:
      return testing::lcs_oracle(request.a, slice(request.b));
    case Op::kSubstringString:
      return testing::lcs_oracle(slice(request.a), request.b);
    default:
      return testing::lcs_oracle(request.a, request.b);
  }
}

/// Every frame `step` emits: its answer, or what its loop work sends.
std::vector<Response> frames_of(Step& step) {
  std::vector<Response> frames;
  if (step.answer) frames.push_back(std::move(*step.answer));
  if (step.work) {
    run_loop_work(*step.work, real_env(), [&](Response&& response) {
      frames.push_back(std::move(response));
      return true;
    });
  }
  return frames;
}

/// `request` served alone, start to finish, on a workers = 0 engine.
Response serve_alone(EngineService& service, Request request) {
  std::vector<Response> frames;
  serve_one(service, std::move(request), [&](Response&& response) {
    frames.push_back(std::move(response));
    return true;
  });
  EXPECT_EQ(frames.size(), 1u);
  return frames.empty() ? error_response("no frame") : std::move(frames.front());
}

/// Checks that `step` sends exactly one frame, OK and equal to `expected`.
void expect_one_frame(Step& step, const std::vector<Index>& expected,
                      const std::string& context) {
  const std::vector<Response> frames = frames_of(step);
  ASSERT_EQ(frames.size(), 1u) << context;
  ASSERT_EQ(frames[0].status, Status::kOk) << context << ": " << frames[0].text;
  if (expected.size() == 1) {
    EXPECT_EQ(frames[0].value, expected[0]) << context;
  } else {
    EXPECT_EQ(frames[0].values, expected) << context;
  }
}

TEST(ScorePath, FirstWindowCombsNoKernel) {
  const Sequence a = testing::random_string(61, 4, 701);
  const Sequence b = testing::random_string(47, 4, 702);
  for (const Op op : {Op::kStringSubstring, Op::kSubstringString}) {
    const Index len = static_cast<Index>(op == Op::kStringSubstring ? b.size() : a.size());
    const std::pair<Index, Index> windows[] = {
        {0, 0}, {len / 2, len / 2}, {len, len}, {0, len}, {len / 3, len / 3 + 1}};
    for (const auto& [x, y] : windows) {
      const std::string context = std::string(op == Op::kStringSubstring ? "ss " : "sstr ") +
                                  std::to_string(x) + ".." + std::to_string(y);
      ComparisonEngine engine(small_engine(0));
      EngineService service(engine, nullptr, false, /*drain_inline=*/true);
      const Request request = window_request(a, b, op, x, y);
      const Response response = serve_alone(service, request);
      ASSERT_EQ(response.status, Status::kOk) << context << ": " << response.text;
      EXPECT_EQ(response.value, window_oracle(request)) << context;
      const EngineStats stats = engine.stats();
      EXPECT_EQ(stats.scheduler.computed, 0u) << context;
      EXPECT_EQ(stats.scheduler.scores_computed, 1u) << context;
      EXPECT_TRUE(engine.store().find(make_pair_key(a, b)) == nullptr) << context;
    }
  }
}

TEST(ScorePath, SecondWindowAskCombsTheKernelOnceAndTheThirdHits) {
  ComparisonEngine engine(small_engine(0));
  EngineService service(engine, nullptr, false, /*drain_inline=*/true);
  const Sequence a = testing::random_string(90, 4, 703);
  const Sequence b = testing::random_string(75, 4, 704);
  const Request asks[] = {window_request(a, b, Op::kStringSubstring, 10, 60),
                          window_request(a, b, Op::kSubstringString, 5, 80),
                          window_request(a, b, Op::kStringSubstring, 0, 75)};
  const std::uint64_t computed_after[] = {0, 1, 1};
  for (std::size_t i = 0; i < std::size(asks); ++i) {
    const std::uint64_t hits = engine.stats().store.cache.hits;
    const Response response = serve_alone(service, asks[i]);
    ASSERT_EQ(response.status, Status::kOk) << "ask " << i << ": " << response.text;
    EXPECT_EQ(response.value, window_oracle(asks[i])) << "ask " << i;
    const EngineStats stats = engine.stats();
    EXPECT_EQ(stats.scheduler.computed, computed_after[i]) << "ask " << i;
    EXPECT_EQ(stats.scheduler.scores_computed, 1u) << "ask " << i;
    EXPECT_EQ(stats.store.cache.hits, hits + (i == 2 ? 1 : 0)) << "ask " << i;
  }
}

TEST(ScorePath, BatchAfterAQueuedWindowJobCombsItsOwnKernel) {
  ComparisonEngine engine(small_engine(0));
  EngineService service(engine);
  const Sequence a = testing::random_string(80, 4, 705);
  const Sequence b = testing::random_string(70, 4, 706);
  const Request window = window_request(a, b, Op::kStringSubstring, 7, 55);
  Request batch = window_request(a, b, Op::kBatchQuery, 0, 0);
  batch.windows = {{QueryKind::kLcs, 0, 0}, {QueryKind::kStringSubstring, 7, 55}};
  Step first = service.begin(Request(window), /*may_defer=*/true);
  Step second = service.begin(Request(batch), /*may_defer=*/true);
  EXPECT_EQ(engine.stats().scheduler.queue_depth, 2u);  // nothing joined the window job
  engine.drain();
  const SemiLocalKernel oracle = semi_local_kernel(a, b);
  expect_one_frame(first, {window_oracle(window)}, "window");
  expect_one_frame(second, {oracle.lcs(), oracle.string_substring(7, 55)},
                   "batch");
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.scheduler.scores_computed, 1u);
  EXPECT_EQ(stats.scheduler.computed, 1u);
  EXPECT_EQ(stats.scheduler.coalesced, 0u);
}

TEST(ScorePath, WindowAfterAQueuedKernelJobJoinsIt) {
  ComparisonEngine engine(small_engine(0));
  EngineService service(engine);
  const Sequence a = testing::random_string(80, 4, 707);
  const Sequence b = testing::random_string(70, 4, 708);
  Request batch = window_request(a, b, Op::kBatchQuery, 0, 0);
  batch.windows = {{QueryKind::kLcs, 0, 0}, {QueryKind::kSubstringString, 3, 40}};
  const Request window = window_request(a, b, Op::kSubstringString, 12, 77);
  Step first = service.begin(Request(batch), /*may_defer=*/true);
  Step second = service.begin(Request(window), /*may_defer=*/true);
  EXPECT_EQ(engine.stats().scheduler.queue_depth, 1u);
  engine.drain();
  const SemiLocalKernel oracle = semi_local_kernel(a, b);
  expect_one_frame(first, {oracle.lcs(), oracle.substring_string(3, 40)},
                   "batch");
  expect_one_frame(second, {window_oracle(window)}, "window");
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.scheduler.scores_computed, 0u);
  EXPECT_EQ(stats.scheduler.computed, 1u);
  EXPECT_EQ(stats.scheduler.coalesced, 1u);
}

TEST(ScorePath, WindowAfterAQueuedScoreJobUpgradesIt) {
  ComparisonEngine engine(small_engine(0));
  EngineService service(engine);
  const Sequence a = testing::random_string(80, 4, 709);
  const Sequence b = testing::random_string(70, 4, 710);
  const Request lcs = window_request(a, b, Op::kLcs, 0, 0);
  const Request window = window_request(a, b, Op::kStringSubstring, 0, 33);
  Step first = service.begin(Request(lcs), /*may_defer=*/true);
  Step second = service.begin(Request(window), /*may_defer=*/true);
  EXPECT_EQ(engine.stats().scheduler.queue_depth, 1u);  // the score job, upgraded
  engine.drain();
  expect_one_frame(first, {window_oracle(lcs)}, "lcs");
  expect_one_frame(second, {window_oracle(window)}, "window");
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.scheduler.scores_computed, 0u);
  EXPECT_EQ(stats.scheduler.computed, 1u);
}

TEST(ScorePath, BadWindowIsAnErrorAndCombsNothing) {
  ComparisonEngine engine(small_engine(0));
  EngineService service(engine, nullptr, false, /*drain_inline=*/true);
  const Sequence a = testing::random_string(40, 4, 713);
  const Sequence b = testing::random_string(30, 4, 714);
  for (const auto& [x, y] : {std::pair<Index, Index>{5, 31}, {-1, 4}, {9, 8}}) {
    Step step = service.begin(window_request(a, b, Op::kStringSubstring, x, y), true);
    const std::vector<Response> frames = frames_of(step);
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(frames[0].status, Status::kError) << x << ".." << y;
  }
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.scheduler.computed, 0u);
  EXPECT_EQ(stats.scheduler.scores_computed, 0u);
  EXPECT_EQ(stats.scheduler.queue_depth, 0u);
}

TEST(ScorePath, FullQueueShedsWindowJobsWithRetryAfter) {
  EngineOptions options = small_engine(0);
  options.scheduler.max_queue = 1;
  ComparisonEngine engine(std::move(options));
  EngineService service(engine);
  const Request held = window_request(seq("AAAACCCCGG"), seq("CCCCAAAAGG"),
                                      Op::kStringSubstring, 2, 9);
  Step queued = service.begin(Request(held), /*may_defer=*/true);
  ASSERT_TRUE(queued.work) << "a cold window must defer";
  Step shed = service.begin(
      window_request(seq("GGGGTTTT"), seq("TTTTGGGG"), Op::kSubstringString, 1, 6), true);
  ASSERT_TRUE(shed.answer.has_value());
  EXPECT_EQ(shed.answer->status, Status::kOverloaded);
  EXPECT_GE(shed.answer->retry_ms, 1);
  EXPECT_EQ(engine.stats().scheduler.rejected, 1u);
  engine.drain();
  expect_one_frame(queued, {window_oracle(held)}, "held window");
}

TEST(Frontend, ConcurrentFirstWindowAsksRunOneWindowJobAndCombOnce) {
  // N threads send the same never-seen window at once (the tsan preset runs
  // this): one of them gets the window job, the rest find the pair asked
  // and share one kernel comb. Every thread gets one oracle-exact frame.
  ComparisonEngine engine(small_engine(2));
  EngineService service(engine);
  const Sequence a = testing::random_string(400, 4, 715);
  const Sequence b = testing::random_string(380, 4, 716);
  const Request request = window_request(a, b, Op::kStringSubstring, 30, 333);
  constexpr int kThreads = 6;
  std::atomic<int> ready{0};
  std::vector<std::vector<Response>> frames(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      serve_one(service, Request(request), [&frames, t](Response&& response) {
        frames[static_cast<std::size_t>(t)].push_back(std::move(response));
        return true;
      });
    });
  }
  for (std::thread& thread : threads) thread.join();
  const Index expected = window_oracle(request);
  for (int t = 0; t < kThreads; ++t) {
    const auto& got = frames[static_cast<std::size_t>(t)];
    ASSERT_EQ(got.size(), 1u) << "thread " << t;
    ASSERT_EQ(got[0].status, Status::kOk) << "thread " << t << ": " << got[0].text;
    EXPECT_EQ(got[0].value, expected) << "thread " << t;
  }
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.scheduler.scores_computed, 1u);
  EXPECT_EQ(stats.scheduler.computed, 1u);
  EXPECT_EQ(stats.scheduler.rejected, 0u);
}

// --- where an index build runs: never on the reactor -------------------------

/// One-window asks an entry scans before the next one builds its index.
constexpr std::uint64_t kScansBeforeBuild = CachedKernel::kScansPerBuild - 1;

/// A reactor over an engine whose scheduler runs no thread and does not
/// drain inline, so nothing computes on its own: the only threads that
/// could build an index are the reactor and the test's own drain(). The
/// test publishes (a, b) itself -- a bare kernel, no index -- by draining
/// on its own thread, and drains again to run each deferred answer.
struct UnindexedPair {
  Reactor reactor{small_engine(0), quiet_frontend()};
  Sequence a = testing::random_string(400, 4, 611);
  Sequence b = testing::random_string(380, 4, 612);
  SemiLocalKernel oracle = semi_local_kernel(a, b);

  UnindexedPair() {
    auto published = reactor.engine.entry_async(a, b);
    reactor.engine.drain();
    const CachedKernelPtr entry = published.get();
    EXPECT_EQ(entry->index_if_built(), nullptr);
  }

  Request query(Op op, Index x, Index y) const {
    Request request;
    request.op = op;
    request.a = a;
    request.b = b;
    request.x = x;
    request.y = y;
    return request;
  }
};

TEST(Frontend, WindowsOnAnUnindexedEntryNeverBuildOnTheReactor) {
  UnindexedPair pair;
  Reactor& reactor = pair.reactor;
  Client client(reactor.port());

  // The first window scans, inline: no build anywhere.
  client.send(pair.query(Op::kStringSubstring, 20, 300));
  auto response = client.recv();
  ASSERT_TRUE(response.has_value());
  ASSERT_EQ(response->status, Status::kOk) << response->text;
  EXPECT_EQ(response->value, pair.oracle.string_substring(20, 300));
  EXPECT_EQ(reactor.engine.stats().queries.index_builds, 0u);
  EXPECT_EQ(reactor.engine.stats().queries.scanned, 1u);
  EXPECT_EQ(reactor.server.stats().inline_answers, 1u);

  // Windows below the build threshold scan inline too.
  for (std::uint64_t ask = 1; ask < kScansBeforeBuild; ++ask) {
    client.send(pair.query(Op::kSubstringString, 35, 390));
    response = client.recv();
    ASSERT_TRUE(response.has_value());
    ASSERT_EQ(response->value, pair.oracle.substring_string(35, 390)) << "ask " << ask;
  }
  EXPECT_EQ(reactor.engine.stats().queries.scanned, kScansBeforeBuild);
  EXPECT_EQ(reactor.server.stats().inline_answers, kScansBeforeBuild);
  EXPECT_EQ(reactor.engine.stats().queries.index_builds, 0u);

  // The window that reaches it needs the index: the reactor defers it as a
  // task, and the drain builds and answers. A build only happens while
  // answering, so had the reactor built, the answer would have been inline.
  client.send(pair.query(Op::kSubstringString, 35, 390));
  ASSERT_TRUE(eventually([&] { return reactor.engine.stats().scheduler.queue_depth == 1; }));
  reactor.engine.drain();
  response = client.recv();
  ASSERT_TRUE(response.has_value());
  ASSERT_EQ(response->status, Status::kOk) << response->text;
  EXPECT_EQ(response->value, pair.oracle.substring_string(35, 390));
  EXPECT_TRUE(eventually([&] { return reactor.server.stats().pump_answers == 1; }));
  EXPECT_EQ(reactor.server.stats().inline_answers, kScansBeforeBuild);
  EXPECT_EQ(reactor.engine.stats().queries.index_builds, 1u);
  EXPECT_EQ(reactor.engine.stats().queries.indexed, 1u);

  // Built: later windows answer inline off the index.
  client.send(pair.query(Op::kStringSubstring, 0, 380));
  response = client.recv();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->value, pair.oracle.string_substring(0, 380));
  EXPECT_EQ(reactor.server.stats().inline_answers, kScansBeforeBuild + 1);
  EXPECT_EQ(reactor.engine.stats().queries.index_builds, 1u);
}

TEST(Frontend, BatchesAndScoresOnAnUnindexedEntryNeverBuildOnTheReactor) {
  UnindexedPair pair;
  Reactor& reactor = pair.reactor;
  Client client(reactor.port());

  // A global score is the first ask: scanned inline.
  client.send(pair.query(Op::kLcs, 0, 0));
  auto response = client.recv();
  ASSERT_TRUE(response.has_value());
  ASSERT_EQ(response->status, Status::kOk) << response->text;
  EXPECT_EQ(response->value, pair.oracle.lcs());
  EXPECT_EQ(reactor.engine.stats().queries.index_builds, 0u);
  EXPECT_EQ(reactor.server.stats().inline_answers, 1u);

  // Scores below the build threshold scan inline too.
  for (std::uint64_t ask = 1; ask < kScansBeforeBuild; ++ask) {
    client.send(pair.query(Op::kLcs, 0, 0));
    response = client.recv();
    ASSERT_TRUE(response.has_value());
    ASSERT_EQ(response->value, pair.oracle.lcs()) << "ask " << ask;
  }
  EXPECT_EQ(reactor.server.stats().inline_answers, kScansBeforeBuild);
  EXPECT_EQ(reactor.engine.stats().queries.index_builds, 0u);

  // The score that reaches it wants the index: deferred as a task, the
  // drain builds it.
  client.send(pair.query(Op::kLcs, 0, 0));
  ASSERT_TRUE(eventually([&] { return reactor.engine.stats().scheduler.queue_depth == 1; }));
  reactor.engine.drain();
  response = client.recv();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->value, pair.oracle.lcs());
  EXPECT_TRUE(eventually([&] { return reactor.server.stats().pump_answers == 1; }));
  EXPECT_EQ(reactor.server.stats().inline_answers, kScansBeforeBuild);
  EXPECT_EQ(reactor.engine.stats().queries.index_builds, 1u);

  // A batch on a second unindexed entry defers the same way.
  const Sequence c = testing::random_string(300, 4, 613);
  auto published = reactor.engine.entry_async(pair.a, c);
  reactor.engine.drain();
  (void)published.get();
  Request batch;
  batch.op = Op::kBatchQuery;
  batch.a = pair.a;
  batch.b = c;
  batch.windows = {{QueryKind::kLcs, 0, 0}, {QueryKind::kStringSubstring, 4, 250}};
  client.send(batch);
  ASSERT_TRUE(eventually([&] { return reactor.engine.stats().scheduler.queue_depth == 1; }));
  reactor.engine.drain();
  response = client.recv();
  ASSERT_TRUE(response.has_value());
  ASSERT_EQ(response->status, Status::kOk) << response->text;
  const SemiLocalKernel oracle = semi_local_kernel(pair.a, c);
  EXPECT_EQ(response->values,
            (std::vector<Index>{oracle.lcs(), oracle.string_substring(4, 250)}));
  EXPECT_TRUE(eventually([&] { return reactor.server.stats().pump_answers == 2; }));
  EXPECT_EQ(reactor.server.stats().inline_answers, kScansBeforeBuild);
  EXPECT_EQ(reactor.engine.stats().queries.index_builds, 2u);
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
  // Window 16 is computed directly in bands; window 72 is combed as strips.
  for (const auto& [scale, width] : {std::pair<Index, Index>{1, 16}, {2, 72}}) {
    SCOPED_TRACE(::testing::Message() << "window " << width);
    const Sequence a = testing::random_string(70 * scale, 4, 511);
    const Sequence b = testing::random_string(90 * scale, 4, 512);
    Request plot;
    plot.op = Op::kAlignmentPlot;
    plot.a = a;
    plot.b = b;
    PlotSpec spec;
    spec.rows = 5;
    spec.cols = 7;
    spec.step = 11;
    spec.window = width;
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
        EXPECT_EQ(assembler.cell(u, v), testing::lcs_oracle(window(a, spec.row_start(u)),
                                                            window(b, spec.col_start(v))))
            << "cell " << u << "," << v;
      }
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

/// Loop work that answers 1 once `released` is ready, looking again every
/// millisecond on a loop deadline.
class Latched final : public LoopWork, private EventLoop::Handler {
 public:
  explicit Latched(std::shared_future<void> released) : released_(std::move(released)) {}
  Latched(const Latched&) = delete;
  Latched& operator=(const Latched&) = delete;
  ~Latched() override { cancel(); }

  void start(EventLoop& loop, FrameOut& out) override {
    loop_ = &loop;
    out_ = &out;
    on_deadline(0);
  }
  void resume() override {}
  void cancel() override {
    if (loop_ != nullptr) loop_->cancel(timer_);
    loop_ = nullptr;
  }

 private:
  void on_ready(std::uint64_t, std::uint32_t) override {}
  void on_deadline(std::uint64_t) override {
    if (released_.wait_for(0s) != std::future_status::ready) {
      timer_ = loop_->at(loop_->env().now_ns() + 1'000'000, *this, 0);
      return;
    }
    loop_ = nullptr;
    (void)out_->frame(frame_payload(encode_response(*answer_now(1).answer)), true);
  }

  std::shared_future<void> released_;
  EventLoop* loop_ = nullptr;
  FrameOut* out_ = nullptr;
  EventLoop::Timer timer_{};
};

TEST(FrontendOpenLoop, AJobParkedPastTheDrainStallsItsSocket) {
  std::promise<void> latch;
  const std::shared_future<void> released = latch.get_future().share();
  std::atomic<bool> parked{false};
  StubReactor reactor(
      [&](Request&&) -> Step {
        if (parked.exchange(true)) return answer_now(1);
        return Step{std::nullopt, std::make_unique<Latched>(released)};
      },
      quiet_frontend());
  // Destroyed before the reactor, even on a throw: stopping the reactor
  // waits for the parked work, so the latch must be open by then.
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

// --- golden documents ---------------------------------------------------------

/// Every field distinct, so a swapped or dropped key changes the document.
EngineStats fixed_engine_stats() {
  EngineStats s;
  s.requests = 8;
  s.store.cache = LruCacheStats{.hits = 6, .misses = 2, .evictions = 3, .entries = 4,
                                .bytes = 5000, .compressed_entries = 1,
                                .compressed_bytes = 700};
  s.store.disk_hits = 9;
  s.store.disk_errors = 10;
  s.store.disk_writes = 11;
  s.store.write_failures = 12;
  s.store.quarantined = 13;
  s.store.tmp_swept = 14;
  s.store.pending_persists = 15;
  s.store.mmap_fallbacks = 16;
  s.store.compressed_loads = 17;
  s.store.promotions = 18;
  s.store.blocks_decoded = 19;
  s.store.bytes_on_disk = 400;
  s.store.bytes_on_disk_raw = 1000;
  s.scheduler = SchedulerStats{.coalesced = 23, .computed = 20, .scores_computed = 21,
                               .score_memo_hits = 22, .batches = 25, .rejected = 24,
                               .queue_depth = 26};
  s.queries = QueryStats{.indexed = 27, .scanned = 28, .index_builds = 29, .compressed = 30,
                         .blocks_decoded = 31, .plot_tiles = 32, .plot_windows = 33,
                         .plot_reused_descents = 34};
  s.latency = {.count = 35, .p50_ms = 0.25, .p90_ms = 1.5, .p99_ms = 12.75};
  s.uptime_ms = 36;
  s.pid = 4242;
  return s;
}

TEST(FrontendDocuments, EngineStatsWithFrontendFieldsGolden) {
  // The reactor splices its counters into the service's stats object; one
  // client that sent only this kStats frame fixes every counter.
  StubReactor reactor(
      [](Request&& request) {
        EXPECT_EQ(request.op, Op::kStats);
        Response response;
        response.text = stats_json(fixed_engine_stats());
        return Step{std::move(response), {}};
      },
      quiet_frontend());
  Client client(reactor.server.port());
  Request stats;
  stats.op = Op::kStats;
  client.send(stats);
  const auto reply = client.recv();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(
      reply->text,
      "{\"stats_version\": 2, \"pid\": 4242, \"uptime_ms\": 36, \"requests\": 8, "
      "\"cache_hits\": 6, \"cache_misses\": 2, \"cache_evictions\": 3, "
      "\"cache_entries\": 4, \"cache_bytes\": 5000, \"disk_hits\": 9, "
      "\"disk_errors\": 10, \"disk_writes\": 11, \"store_write_failures\": 12, "
      "\"store_quarantined\": 13, \"store_tmp_swept\": 14, "
      "\"store_pending_persists\": 15, \"degraded_mode\": 1, \"computed\": 20, "
      "\"scores_computed\": 21, \"score_memo_hits\": 22, \"coalesced\": 23, "
      "\"rejected\": 24, \"batches\": 25, \"queue_depth\": 26, "
      "\"cache_hit_rate\": 0.75, \"store_bytes_on_disk\": 400, "
      "\"store_bytes_resident\": 5000, \"compression_ratio\": 2.5, "
      "\"compressed_entries\": 1, \"compressed_bytes\": 700, "
      "\"compressed_loads\": 17, \"promotions\": 18, \"blocks_decoded\": 50, "
      "\"mmap_fallbacks\": 16, \"queries_indexed\": 27, \"queries_scanned\": 28, "
      "\"queries_compressed\": 30, \"index_builds\": 29, \"plot_tiles\": 32, "
      "\"plot_windows\": 33, \"plot_reused_descents\": 34, \"latency_count\": 35, "
      "\"p50_ms\": 0.25, \"p90_ms\": 1.5, \"p99_ms\": 12.75, "
      "\"frontend_connections\": 1, \"frontend_active\": 1, \"frontend_shed\": 0, "
      "\"frontend_closed\": 0, \"frontend_retry_after_sent\": 0, "
      "\"frontend_frames\": 1, \"frontend_partial_frames\": 0, "
      "\"frontend_protocol_errors\": 0, \"frontend_timeouts_idle\": 0, "
      "\"frontend_timeouts_read\": 0, \"frontend_write_queue_disconnects\": 0, "
      "\"frontend_inline_answers\": 0, \"frontend_pump_answers\": 0}");
}

TEST(FrontendDocuments, EngineHealthGolden) {
  EXPECT_EQ(health_json(fixed_engine_stats()),
            "{\"stats_version\": 2, \"pid\": 4242, \"uptime_ms\": 36, \"requests\": 8}");
}

TEST(FrontendDocuments, OpenLoopResultGolden) {
  const OpenLoopResult r{.connected = 1, .connect_failures = 2, .sent = 3, .received = 4,
                   .ok = 5, .errors = 6, .overloaded = 7, .decode_errors = 8,
                   .closed_early = 9, .stalled = 10, .wrong_answers = 11,
                   .achieved_rate = 199.5, .elapsed_s = 2.125, .p50_ms = 0.5,
                   .p90_ms = 1.25, .p99_ms = 3.875, .max_ms = 10.0,
                   .per_shard = {{0, 2, 0.25, 0.75}, {1, 2, 0.5, 1.5}},
                   .per_op = {{"plot", 1, 4.5, 4.5}, {"query", 3, 0.125, 0.625}}};
  EXPECT_EQ(
      to_json(r),
      "{\"connected\": 1, \"connect_failures\": 2, \"sent\": 3, \"received\": 4, "
      "\"ok\": 5, \"errors\": 6, \"overloaded\": 7, \"decode_errors\": 8, "
      "\"closed_early\": 9, \"stalled_sockets\": 10, \"wrong_answers\": 11, "
      "\"achieved_rate\": 199.5, \"elapsed_s\": 2.125, \"p50_ms\": 0.5, "
      "\"p90_ms\": 1.25, \"p99_ms\": 3.875, \"max_ms\": 10, "
      "\"per_shard\": [{\"shard\": 0, \"received\": 2, \"p50_ms\": 0.25, \"p99_ms\": 0.75}, "
      "{\"shard\": 1, \"received\": 2, \"p50_ms\": 0.5, \"p99_ms\": 1.5}], "
      "\"per_op\": [{\"op\": \"plot\", \"received\": 1, \"p50_ms\": 4.5, \"p99_ms\": 4.5}, "
      "{\"op\": \"query\", \"received\": 3, \"p50_ms\": 0.125, \"p99_ms\": 0.625}]}");
}

}  // namespace
}  // namespace semilocal
