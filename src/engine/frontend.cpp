#include "engine/frontend.hpp"

#include "engine/env.hpp"
#include "engine/loop.hpp"
#include "util/json.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <deque>
#include <stdexcept>
#include <unordered_map>
#include <vector>

namespace semilocal {
namespace {

/// retry_ms hint attached to frontend-level RETRY_AFTER verdicts (the
/// scheduler's own backpressure hint is forwarded verbatim).
constexpr Index kAdmissionRetryMs = 10;

/// Atomic twins of FrontendStats, written on the event loop, read by any
/// stats() caller.
struct Counters {
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> active{0};
  std::atomic<std::uint64_t> shed{0};
  std::atomic<std::uint64_t> closed{0};
  std::atomic<std::uint64_t> retry_after{0};
  std::atomic<std::uint64_t> frames{0};
  std::atomic<std::uint64_t> partial_frames{0};
  std::atomic<std::uint64_t> protocol_errors{0};
  std::atomic<std::uint64_t> timeouts_idle{0};
  std::atomic<std::uint64_t> timeouts_read{0};
  std::atomic<std::uint64_t> write_queue_disconnects{0};
  std::atomic<std::uint64_t> inline_answers{0};
  std::atomic<std::uint64_t> pump_answers{0};

  [[nodiscard]] FrontendStats snapshot() const {
    FrontendStats s;
    s.connections_accepted = accepted.load(std::memory_order_relaxed);
    s.connections_active = active.load(std::memory_order_relaxed);
    s.connections_shed = shed.load(std::memory_order_relaxed);
    s.connections_closed = closed.load(std::memory_order_relaxed);
    s.retry_after_sent = retry_after.load(std::memory_order_relaxed);
    s.frames_decoded = frames.load(std::memory_order_relaxed);
    s.partial_frames = partial_frames.load(std::memory_order_relaxed);
    s.protocol_errors = protocol_errors.load(std::memory_order_relaxed);
    s.timeouts_idle = timeouts_idle.load(std::memory_order_relaxed);
    s.timeouts_read = timeouts_read.load(std::memory_order_relaxed);
    s.write_queue_disconnects =
        write_queue_disconnects.load(std::memory_order_relaxed);
    s.inline_answers = inline_answers.load(std::memory_order_relaxed);
    s.pump_answers = pump_answers.load(std::memory_order_relaxed);
    return s;
  }
};

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

/// Serving 10k+ sockets needs 10k+ fds; lift the soft limit to the hard one
/// once per process so the default 1024 does not masquerade as load shedding.
void raise_fd_limit() {
  static const bool done = [] {
    rlimit lim{};
    if (::getrlimit(RLIMIT_NOFILE, &lim) == 0 && lim.rlim_cur < lim.rlim_max) {
      lim.rlim_cur = lim.rlim_max;
      (void)::setrlimit(RLIMIT_NOFILE, &lim);
    }
    return true;
  }();
  (void)done;
}

/// Binds a non-blocking loopback listener; returns {fd, bound port}.
std::pair<int, int> make_listener(int port, int backlog) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
  if (fd < 0) throw_errno("frontend: socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, backlog) != 0) {
    const int err = errno;
    ::close(fd);
    errno = err;
    throw_errno("frontend: bind/listen");
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  return {fd, static_cast<int>(ntohs(addr.sin_port))};
}

/// Splices the frontend_* counters into a service's stats object.
std::string with_frontend_fields(std::string stats, const FrontendStats& f) {
  return Json::extend(std::move(stats))
      .field("frontend_connections", f.connections_accepted)
      .field("frontend_active", f.connections_active)
      .field("frontend_shed", f.connections_shed)
      .field("frontend_closed", f.connections_closed)
      .field("frontend_retry_after_sent", f.retry_after_sent)
      .field("frontend_frames", f.frames_decoded)
      .field("frontend_partial_frames", f.partial_frames)
      .field("frontend_protocol_errors", f.protocol_errors)
      .field("frontend_timeouts_idle", f.timeouts_idle)
      .field("frontend_timeouts_read", f.timeouts_read)
      .field("frontend_write_queue_disconnects", f.write_queue_disconnects)
      .field("frontend_inline_answers", f.inline_answers)
      .field("frontend_pump_answers", f.pump_answers)
      .end_object()
      .str();
}

}  // namespace

// ---------------------------------------------------------------------------
// FrontendServer: the epoll reactor.

struct FrontendServer::Impl final : EventLoop::Handler {
  // Event-loop tokens; connection ids start above the sentinels.
  static constexpr std::uint64_t kListenerTag = 1;
  static constexpr std::uint64_t kStopTag = 2;
  static constexpr std::uint64_t kFirstConnId = 16;

  /// One response slot, in request order. Responses flush strictly FIFO per
  /// connection, so a fast cache hit never overtakes a cold compute that
  /// arrived first on the same socket. A streaming op (kAlignmentPlot) lands
  /// several frames in one slot: each tile's bytes flush as they arrive, but
  /// the slot retires only once its terminal frame has been queued.
  struct Pending {
    std::uint64_t seq = 0;
    bool done = false;  // terminal frame received; slot retires once flushed
    std::string bytes;  // framed bytes not yet moved into the flush buffer
  };

  struct Conn;

  /// Loop work in flight on a connection: its frames land in pending slot
  /// `seq` on the event loop.
  struct LoopSlot final : FrameOut {
    LoopSlot(Impl& owner, Conn& on, std::uint64_t slot_seq, std::unique_ptr<LoopWork> w)
        : impl(&owner), conn(&on), seq(slot_seq), work(std::move(w)) {}
    LoopSlot(const LoopSlot&) = delete;
    LoopSlot& operator=(const LoopSlot&) = delete;

    Flow frame(std::string_view framed, bool terminal) override {
      return impl->loop_frame(*this, framed, terminal);
    }

    Impl* impl;
    Conn* conn;  ///< outlives the slot's work: close_conn cancels it first
    std::uint64_t seq;
    std::unique_ptr<LoopWork> work;
  };

  struct Conn {
    int fd = -1;
    std::uint64_t id = 0;
    std::string label;  // "conn:<id>" -- the Env fault-rule path
    FrameDecoder decoder;
    std::deque<Pending> pending;
    std::size_t pending_ready_bytes = 0;  // framed bytes parked behind a gap
    std::string out;                      // flush buffer (FIFO head of pending)
    std::size_t out_off = 0;
    std::uint64_t next_seq = 0;
    std::uint64_t last_read_ns = 0;
    std::uint64_t frame_start_ns = 0;  // != 0 while a partial frame pends
    bool want_write = false;
    bool close_after_flush = false;
    /// Set on ProtocolError: the decoder is poisoned (no frame boundary to
    /// resynchronize on), so this socket must never be read again -- further
    /// bytes would re-parse misaligned as bogus frames, and the responses
    /// they generate would postpone the close_after_flush close forever.
    bool read_closed = false;
    /// Set by close_conn. The Conn object itself outlives the close until
    /// the end of the event-loop iteration (see graveyard): a handler that
    /// closes a connection from inside FrameDecoder::feed must not free the
    /// decoder that is still executing under its feet.
    bool dead = false;
    /// Loop work running for this connection, and the streams among it
    /// paused (FrameOut::kPause) until the write queue drains.
    /// stream_parked_ns is when the oldest still-paused stream stalled -- a
    /// peer that never drains its socket trips the read-timeout clock on it.
    std::vector<std::unique_ptr<LoopSlot>> loop_slots;
    std::vector<LoopSlot*> parked_slots;
    std::uint64_t stream_parked_ns = 0;
  };

  Service& service;
  FrontendOptions options;
  Env* env;
  Counters counters;
  /// Declared before everything that watches it: connections and loop work
  /// are torn down while it still exists.
  EventLoop loop;

  int listener = -1;
  int bound_port = 0;
  int stop_fd = -1;  // eventfd; request_stop() writes it (signal-safe)

  std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns;
  /// Closed conns parked until the current event-loop iteration ends, so
  /// references held by in-progress handlers stay valid.
  std::vector<std::unique_ptr<Conn>> graveyard;
  /// Finished or cancelled loop work, freed with the graveyard: a work may
  /// end from inside its own handler.
  std::vector<std::unique_ptr<LoopSlot>> slot_graveyard;
  std::uint64_t next_conn_id = kFirstConnId;

  bool draining = false;
  std::uint64_t drain_deadline_ns = 0;

  Impl(Service& svc, FrontendOptions opts)
      : service(svc),
        options(std::move(opts)),
        env(options.env ? options.env : &real_env()),
        loop(*env) {
    raise_fd_limit();
    auto [fd, port] = make_listener(options.port, options.listen_backlog);
    listener = fd;
    bound_port = port;
    stop_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (stop_fd < 0) {
      const int err = errno;
      close_fds();
      errno = err;
      throw_errno("frontend: eventfd");
    }
    try {
      loop.watch(listener, EPOLLIN, *this, kListenerTag);
      loop.watch(stop_fd, EPOLLIN, *this, kStopTag);
    } catch (...) {
      // ~Impl never runs for a partially constructed object; sweep the
      // live descriptors here or they leak.
      close_fds();
      throw;
    }
  }

  ~Impl() { close_fds(); }

  void close_fds() {
    close_where([](const Conn&) { return true; });
    slot_graveyard.clear();
    graveyard.clear();
    for (int* fd : {&listener, &stop_fd}) {
      if (*fd >= 0) ::close(*fd);
      *fd = -1;
    }
  }

  void rearm(Conn& conn, std::uint32_t events) { loop.rearm(conn.fd, events); }

  [[nodiscard]] std::uint64_t now_ms() { return env->now_ns() / 1'000'000; }

  /// EPOLLIN interest for a connection: none while draining or once its
  /// decoder is poisoned (read_closed).
  [[nodiscard]] std::uint32_t read_interest(const Conn& conn) const {
    return (draining || conn.read_closed) ? 0u : static_cast<std::uint32_t>(EPOLLIN);
  }

  // -- connection lifecycle -------------------------------------------------

  void accept_ready() {
    while (true) {
      const int fd = ::accept4(listener, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
        return;  // transient accept errors: the listener event will re-fire
      }
      const int nodelay = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
      if (conns.size() >= options.max_connections) {
        // The admission gate: the peer gets one typed RETRY_AFTER frame and
        // a close, never a connection that silently goes nowhere.
        shed(fd);
        continue;
      }
      auto conn = std::make_unique<Conn>();
      conn->fd = fd;
      conn->id = next_conn_id++;
      conn->label = "conn:" + std::to_string(conn->id);
      conn->last_read_ns = env->now_ns();
      loop.watch(fd, EPOLLIN, *this, conn->id);
      counters.accepted.fetch_add(1, std::memory_order_relaxed);
      counters.active.fetch_add(1, std::memory_order_relaxed);
      conns.emplace(conn->id, std::move(conn));
    }
  }

  void shed(int fd) {
    counters.shed.fetch_add(1, std::memory_order_relaxed);
    const std::string frame =
        encode_frame(overloaded_response(kAdmissionRetryMs, "connection limit reached"));
    // Best effort: a fresh socket's send buffer always holds one small frame.
    (void)env->fd_write(fd, frame.data(), frame.size(), "conn:shed");
    ::close(fd);
  }

  [[nodiscard]] static std::size_t queued_bytes(const Conn& conn) {
    return (conn.out.size() - conn.out_off) + conn.pending_ready_bytes;
  }

  /// Streams pause once a connection's queued bytes pass this and resume
  /// when flush drains back under it; half the cap leaves room for one more
  /// tile frame without tripping the disconnect cap.
  [[nodiscard]] std::size_t stream_watermark() const {
    return options.max_write_queue_bytes / 2;
  }

  void close_conn(std::uint64_t id) {
    const auto it = conns.find(id);
    if (it == conns.end()) return;
    Conn& conn = *it->second;
    conn.dead = true;
    conn.parked_slots.clear();
    // Cancelling may re-enter a work that is mid-frame(); the slots stay
    // alive in slot_graveyard until the end of the iteration.
    std::vector<std::unique_ptr<LoopSlot>> slots = std::move(conn.loop_slots);
    conn.loop_slots.clear();
    for (const auto& slot : slots) slot->work->cancel();
    for (auto& slot : slots) slot_graveyard.push_back(std::move(slot));
    loop.unwatch(conn.fd);
    ::close(conn.fd);
    conn.fd = -1;
    graveyard.push_back(std::move(it->second));  // freed after this iteration
    conns.erase(it);
    counters.active.fetch_sub(1, std::memory_order_relaxed);
    counters.closed.fetch_add(1, std::memory_order_relaxed);
  }

  // -- read path ------------------------------------------------------------

  void read_ready(Conn& conn) {
    if (conn.read_closed) return;
    char buf[1 << 16];
    const long n = env->fd_read(conn.fd, buf, sizeof(buf), conn.label);
    if (n == 0) {  // peer hung up
      close_conn(conn.id);
      return;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      close_conn(conn.id);  // injected EIO or a real connection error
      return;
    }
    conn.last_read_ns = env->now_ns();
    try {
      conn.decoder.feed(std::string_view(buf, static_cast<std::size_t>(n)),
                        [&](std::string_view payload, bool spanned) {
                          if (conn.dead) return;  // closed by an earlier frame
                          counters.frames.fetch_add(1, std::memory_order_relaxed);
                          if (spanned) {
                            counters.partial_frames.fetch_add(
                                1, std::memory_order_relaxed);
                          }
                          on_frame(conn, payload);
                        });
    } catch (const ProtocolError& e) {
      // The stream is unframed from here on; report and hang up.
      counters.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      if (!conn.dead) {
        conn.read_closed = true;
        conn.close_after_flush = true;
        push_response(conn, error_response(e.what()));  // flushes internally
        // flush rearms only on want_write edges; drop EPOLLIN unconditionally
        // so a hostile sender cannot keep the poisoned stream alive.
        if (!conn.dead) {
          rearm(conn, conn.want_write ? static_cast<std::uint32_t>(EPOLLOUT) : 0u);
        }
      }
      return;
    }
    // Arm or clear the slow-loris clock.
    if (!conn.dead) {
      conn.frame_start_ns = conn.decoder.mid_frame()
                                ? (conn.frame_start_ns != 0 ? conn.frame_start_ns
                                                            : env->now_ns())
                                : 0;
    }
  }

  /// Frames a response for the wire. Every kOverloaded frame the server
  /// emits passes here, so retry_after counts each verdict exactly once.
  std::string encode_frame(const Response& response) {
    std::string bytes = frame_payload(encode_response(response));
    if (response.status == Status::kOverloaded) {
      counters.retry_after.fetch_add(1, std::memory_order_relaxed);
    }
    return bytes;
  }

  /// One request frame: the service answers it now or hands back loop
  /// work; the per-connection in-flight budget is checked before any but an
  /// answer.
  void on_frame(Conn& conn, std::string_view payload) {
    if (conn.dead) return;
    const bool stats = !payload.empty() && payload[0] == static_cast<char>(Op::kStats);
    Step step;
    try {
      step = service.begin_frame(
          payload, /*may_defer=*/conn.loop_slots.size() < options.max_inflight_per_conn);
    } catch (const ProtocolError& e) {
      counters.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      push_response(conn, error_response(e.what()));
      return;
    } catch (...) {
      step = Step{failure_response(), nullptr};
    }
    if (step.work) {
      const std::uint64_t seq = conn.next_seq++;
      conn.pending.push_back(Pending{seq, false, {}});
      auto slot = std::make_unique<LoopSlot>(*this, conn, seq, std::move(step.work));
      LoopSlot& started = *slot;
      conn.loop_slots.push_back(std::move(slot));
      started.work->start(loop, started);
      return;
    }
    if (!step.answer) {
      // A client may not park unbounded work on one socket. The verdict is
      // typed, the connection lives.
      push_response(conn, overloaded_response(kAdmissionRetryMs,
                                              "per-connection in-flight limit"));
      return;
    }
    Response& response = *step.answer;
    if (stats && response.status == Status::kOk && response.text.size() >= 2 &&
        response.text.front() == '{' && response.text.back() == '}') {
      response.text = with_frontend_fields(std::move(response.text), counters.snapshot());
    }
    counters.inline_answers.fetch_add(1, std::memory_order_relaxed);
    push_response(conn, std::move(response));
  }

  /// Queues a ready response in request order and flushes what it unblocks.
  void push_response(Conn& conn, Response response) {
    if (conn.dead) return;
    const std::uint64_t seq = conn.next_seq++;
    std::string bytes = encode_frame(response);
    conn.pending.push_back(Pending{seq, true, std::move(bytes)});
    conn.pending_ready_bytes += conn.pending.back().bytes.size();
    flush(conn);
  }

  // -- write path -----------------------------------------------------------

  /// flush_bytes, then resumes the paused loop work of a connection whose
  /// queue drained back under the watermark.
  void flush(Conn& conn) {
    flush_bytes(conn);
    if (conn.dead || conn.parked_slots.empty() || queued_bytes(conn) > stream_watermark()) {
      return;
    }
    // A resumed work may emit (and flush) again at once; it parks anew if it
    // fills the queue, so walk a snapshot.
    const std::vector<LoopSlot*> parked = std::move(conn.parked_slots);
    conn.parked_slots.clear();
    conn.stream_parked_ns = 0;
    for (LoopSlot* slot : parked) {
      if (conn.dead) return;  // close_conn cancelled the rest
      slot->work->resume();
    }
  }

  /// Moves ready FIFO-head slots into the flush buffer, writes what the
  /// socket takes, enforces the write-queue cap, arms EPOLLOUT for the rest.
  void flush_bytes(Conn& conn) {
    if (conn.dead) return;
    while (!conn.pending.empty()) {
      Pending& head = conn.pending.front();
      if (!head.bytes.empty()) {
        conn.pending_ready_bytes -= head.bytes.size();
        conn.out += head.bytes;
        head.bytes.clear();
      }
      if (!head.done) break;  // a stream's flushed head still holds its slot
      conn.pending.pop_front();
    }
    while (conn.out_off < conn.out.size()) {
      const long w = env->fd_write(conn.fd, conn.out.data() + conn.out_off,
                                   conn.out.size() - conn.out_off, conn.label);
      if (w > 0) {
        conn.out_off += static_cast<std::size_t>(w);
        continue;
      }
      if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      close_conn(conn.id);  // write error: the peer is gone
      return;
    }
    // Queued bytes are the unsent flush buffer plus framed responses parked
    // behind an unready slot. Past the cap, disconnect -- backpressure must
    // never become unbounded server memory. Checked before the drained-buffer
    // early return below: a cold compute holding the FIFO head parks every
    // later warm response in pending while out stays empty, and that shape
    // must be bounded exactly like a saturated socket.
    const std::size_t queued = queued_bytes(conn);
    if (queued > options.max_write_queue_bytes) {
      counters.write_queue_disconnects.fetch_add(1, std::memory_order_relaxed);
      close_conn(conn.id);
      return;
    }
    if (conn.out_off == conn.out.size()) {
      conn.out.clear();
      conn.out_off = 0;
      if (conn.want_write) {
        conn.want_write = false;
        rearm(conn, read_interest(conn));
      }
      if (conn.close_after_flush && conn.pending.empty()) close_conn(conn.id);
      return;
    }
    if (!conn.want_write) {
      conn.want_write = true;
      rearm(conn, read_interest(conn) | EPOLLOUT);
    }
  }

  // -- loop work ------------------------------------------------------------

  /// A loop work's frame lands in its pending slot directly. A stream
  /// pauses while the connection's queue sits above the watermark, and
  /// flush resumes it once the socket drains below it.
  FrameOut::Flow loop_frame(LoopSlot& slot, std::string_view framed, bool terminal) {
    Conn& conn = *slot.conn;
    if (conn.dead) return FrameOut::Flow::kStop;
    if (framed.size() > 4 && framed[4] == static_cast<char>(Status::kOverloaded)) {
      counters.retry_after.fetch_add(1, std::memory_order_relaxed);
    }
    Pending& pending = conn.pending[static_cast<std::size_t>(slot.seq - conn.pending.front().seq)];
    pending.bytes.append(framed);
    conn.pending_ready_bytes += framed.size();
    if (terminal) {
      pending.done = true;
      counters.pump_answers.fetch_add(1, std::memory_order_relaxed);
      const auto it = std::find_if(conn.loop_slots.begin(), conn.loop_slots.end(),
                                   [&](const auto& s) { return s.get() == &slot; });
      slot_graveyard.push_back(std::move(*it));
      conn.loop_slots.erase(it);
    }
    flush(conn);
    if (conn.dead) return FrameOut::Flow::kStop;
    if (terminal || queued_bytes(conn) <= stream_watermark()) return FrameOut::Flow::kMore;
    if (conn.parked_slots.empty()) conn.stream_parked_ns = env->now_ns();
    conn.parked_slots.push_back(&slot);
    return FrameOut::Flow::kPause;
  }

  // -- timeouts and drain ---------------------------------------------------

  /// Closes every connection `doomed` picks (ids first: a close erases).
  template <typename Pred>
  void close_where(Pred doomed) {
    std::vector<std::uint64_t> ids;
    for (const auto& [id, conn] : conns) {
      if (doomed(*conn)) ids.push_back(id);
    }
    for (const std::uint64_t id : ids) close_conn(id);
  }

  void scan_timeouts() {
    if (options.idle_timeout_ms == 0 && options.read_timeout_ms == 0) return;
    const std::uint64_t now = env->now_ns();
    const auto past = [now](std::uint64_t since_ns, std::uint64_t limit_ms) {
      return limit_ms != 0 && now - since_ns > limit_ms * 1'000'000;
    };
    close_where([&](const Conn& conn) {
      std::atomic<std::uint64_t>* verdict = nullptr;
      const bool idle = conn.pending.empty() && !conn.decoder.mid_frame() &&
                        conn.out_off == conn.out.size();
      if (conn.frame_start_ns != 0 && past(conn.frame_start_ns, options.read_timeout_ms)) {
        verdict = &counters.timeouts_read;
      } else if (conn.stream_parked_ns != 0 &&
                 past(conn.stream_parked_ns, options.read_timeout_ms)) {
        // A paced stream parks below the disconnect cap, so a peer that
        // stops reading mid-plot never trips it; bound that stall with the
        // read-timeout clock instead.
        verdict = &counters.write_queue_disconnects;
      } else if (idle && past(conn.last_read_ns, options.idle_timeout_ms)) {
        verdict = &counters.timeouts_idle;
      }
      if (verdict != nullptr) verdict->fetch_add(1, std::memory_order_relaxed);
      return verdict != nullptr;
    });
  }

  void begin_drain() {
    if (draining) return;
    draining = true;
    drain_deadline_ns = env->now_ns() + options.drain_timeout_ms * 1'000'000;
    loop.unwatch(listener);  // stop accepting
    ::close(listener);
    listener = -1;
    // Stop reading: in-flight requests finish, new bytes are ignored.
    for (const auto& [id, conn] : conns) {
      rearm(*conn, conn->want_write ? static_cast<std::uint32_t>(EPOLLOUT) : 0u);
    }
  }

  /// True when drain has nothing left to wait for (or ran out of patience).
  bool drain_finished() {
    if (!draining) return false;
    const bool out_of_time = env->now_ns() >= drain_deadline_ns;
    close_where([&](const Conn& conn) {
      return out_of_time || (conn.pending.empty() && conn.out_off == conn.out.size());
    });
    return conns.empty();
  }

  // -- the loop -------------------------------------------------------------

  void run() {
    std::uint64_t last_scan_ns = env->now_ns();
    while (true) {
      if (!loop.poll(draining ? 10 : 20)) break;
      slot_graveyard.clear();  // no handler is live past poll()
      graveyard.clear();
      const std::uint64_t now = env->now_ns();
      if (now - last_scan_ns >= 10'000'000) {  // scan timeouts every ~10ms
        last_scan_ns = now;
        scan_timeouts();
      }
      if (drain_finished()) break;
    }
  }

  void on_ready(std::uint64_t tag, std::uint32_t ev) override {
    if (tag == kListenerTag) {
      if (!draining) accept_ready();
      return;
    }
    if (tag == kStopTag) {
      std::uint64_t v = 0;
      (void)::read(stop_fd, &v, sizeof(v));
      begin_drain();
      return;
    }
    const auto it = conns.find(tag);
    if (it == conns.end()) return;  // closed earlier in this batch
    Conn& conn = *it->second;
    if ((ev & (EPOLLHUP | EPOLLERR)) != 0) {
      close_conn(tag);
      return;
    }
    if ((ev & EPOLLOUT) != 0) flush(conn);
    // flush may have closed the conn; re-check before reading.
    if ((ev & EPOLLIN) != 0 && conns.count(tag) != 0 && !draining) read_ready(conn);
  }

  void request_stop() const {
    const std::uint64_t one = 1;
    (void)::write(stop_fd, &one, sizeof(one));
  }
};

FrontendServer::FrontendServer(Service& service, FrontendOptions options)
    : impl_(std::make_unique<Impl>(service, std::move(options))) {}

FrontendServer::~FrontendServer() = default;

int FrontendServer::port() const { return impl_->bound_port; }

void FrontendServer::run() { impl_->run(); }

void FrontendServer::request_stop() { impl_->request_stop(); }

FrontendStats FrontendServer::stats() const { return impl_->counters.snapshot(); }

}  // namespace semilocal
