#include "engine/frontend.hpp"

#include "engine/env.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <vector>

namespace semilocal {
namespace {

/// retry_ms hint attached to frontend-level RETRY_AFTER verdicts (the
/// scheduler's own backpressure hint is forwarded verbatim).
constexpr Index kAdmissionRetryMs = 10;

/// Atomic twins of FrontendStats, written from the event loop and the pumps,
/// read by any stats() caller.
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

/// Splices the frontend_* counters into a flat JSON object (any service's
/// stats document ends with '}').
void append_frontend_fields(std::string& out, const FrontendStats& f) {
  out.pop_back();  // reopen the object
  const auto field = [&out](const char* name, std::uint64_t value) {
    out += ", \"";
    out += name;
    out += "\": ";
    out += std::to_string(value);
  };
  field("frontend_connections", f.connections_accepted);
  field("frontend_active", f.connections_active);
  field("frontend_shed", f.connections_shed);
  field("frontend_closed", f.connections_closed);
  field("frontend_retry_after_sent", f.retry_after_sent);
  field("frontend_frames", f.frames_decoded);
  field("frontend_partial_frames", f.partial_frames);
  field("frontend_protocol_errors", f.protocol_errors);
  field("frontend_timeouts_idle", f.timeouts_idle);
  field("frontend_timeouts_read", f.timeouts_read);
  field("frontend_write_queue_disconnects", f.write_queue_disconnects);
  field("frontend_inline_answers", f.inline_answers);
  field("frontend_pump_answers", f.pump_answers);
  out += "}";
}

}  // namespace

// ---------------------------------------------------------------------------
// FrontendServer: the epoll reactor.

struct FrontendServer::Impl {
  // epoll_event.data.u64 tags; connection ids start above the sentinels.
  static constexpr std::uint64_t kListenerTag = 1;
  static constexpr std::uint64_t kStopTag = 2;
  static constexpr std::uint64_t kCompletionTag = 3;
  static constexpr std::uint64_t kFirstConnId = 16;

  /// One response slot, in request order. Responses flush strictly FIFO per
  /// connection, so a fast cache hit never overtakes a cold compute that
  /// arrived first on the same socket. A streaming op (kAlignmentPlot) lands
  /// several completions in one slot: each tile's bytes flush as they arrive,
  /// but the slot retires only once its terminal frame has been queued.
  struct Pending {
    std::uint64_t seq = 0;
    bool done = false;  // terminal frame received; slot retires once flushed
    std::string bytes;  // framed bytes not yet moved into the flush buffer
  };

  /// Hand-off between a streaming pump and the event loop: the pump posts a
  /// tile completion carrying this gate, then blocks until the loop grants
  /// the next tile (write queue drained below the watermark) or cancels
  /// (connection gone, shutdown). This is how a million-cell plot streams
  /// through a bounded write queue without the pump racing ahead of the
  /// socket.
  struct StreamGate {
    std::mutex mutex;
    std::condition_variable cv;
    bool proceed = false;
    bool cancel = false;
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
    std::size_t inflight = 0;  // slots awaiting a pump completion
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
    /// Streams paced by this loop: gates park here when the write queue sits
    /// above the watermark, and flush grants them once it drains.
    /// stream_parked_ns is when the oldest still-parked gate stalled -- a
    /// peer that never drains its socket trips the read-timeout clock on it.
    std::vector<std::shared_ptr<StreamGate>> parked_gates;
    std::uint64_t stream_parked_ns = 0;
  };

  /// A deferred job waiting for a pump; its frames land in slot `seq`.
  struct Ticket {
    std::uint64_t conn_id = 0;
    std::uint64_t seq = 0;
    Job job;
  };

  struct Completion {
    std::uint64_t conn_id = 0;
    std::uint64_t seq = 0;
    std::string bytes;  // framed response (one stream frame for plots)
    bool done = true;   // terminal: the slot may retire once flushed
    std::shared_ptr<StreamGate> gate;  // non-null while the stream pends
  };

  Service& service;
  FrontendOptions options;
  Env* env;
  Counters counters;

  int listener = -1;
  int bound_port = 0;
  int epoll_fd = -1;
  int stop_fd = -1;        // eventfd; request_stop() writes it (signal-safe)
  int completion_fd = -1;  // eventfd; pumps ring it after posting

  std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns;
  /// Closed conns parked until the current event-loop iteration ends, so
  /// references held by in-progress handlers stay valid.
  std::vector<std::unique_ptr<Conn>> graveyard;
  std::uint64_t next_conn_id = kFirstConnId;

  std::mutex pump_mutex;
  std::condition_variable pump_ready;
  std::deque<Ticket> pump_queue;
  bool pump_stop = false;
  std::atomic<bool> hard_stop{false};
  std::vector<std::thread> pumps;

  std::mutex completion_mutex;
  std::vector<Completion> completions;

  bool draining = false;
  std::uint64_t drain_deadline_ns = 0;

  Impl(Service& svc, FrontendOptions opts)
      : service(svc), options(std::move(opts)), env(options.env ? options.env : &real_env()) {
    raise_fd_limit();
    auto [fd, port] = make_listener(options.port, options.listen_backlog);
    listener = fd;
    bound_port = port;
    epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    stop_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    completion_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (epoll_fd < 0 || stop_fd < 0 || completion_fd < 0) {
      const int err = errno;
      close_fds();
      errno = err;
      throw_errno("frontend: epoll/eventfd");
    }
    try {
      watch(listener, kListenerTag, EPOLLIN);
      watch(stop_fd, kStopTag, EPOLLIN);
      watch(completion_fd, kCompletionTag, EPOLLIN);
    } catch (...) {
      // ~Impl never runs for a partially constructed object; sweep the four
      // live descriptors here or they leak.
      close_fds();
      throw;
    }
  }

  ~Impl() { close_fds(); }

  void close_fds() {
    for (auto& [id, conn] : conns) {
      if (conn->fd >= 0) ::close(conn->fd);
    }
    conns.clear();
    for (int* fd : {&listener, &epoll_fd, &stop_fd, &completion_fd}) {
      if (*fd >= 0) ::close(*fd);
      *fd = -1;
    }
  }

  void watch(int fd, std::uint64_t tag, std::uint32_t events) {
    epoll_event ev{};
    ev.events = events;
    ev.data.u64 = tag;
    if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
      throw_errno("frontend: epoll_ctl add");
    }
  }

  void rearm(Conn& conn, std::uint32_t events) {
    epoll_event ev{};
    ev.events = events;
    ev.data.u64 = conn.id;
    (void)::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev);
  }

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
      watch(fd, conn->id, EPOLLIN);
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

  static void gate_signal(StreamGate& gate, bool cancel) {
    {
      std::lock_guard lock(gate.mutex);
      (cancel ? gate.cancel : gate.proceed) = true;
    }
    gate.cv.notify_all();
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
    for (const auto& gate : conn.parked_gates) gate_signal(*gate, /*cancel=*/true);
    conn.parked_gates.clear();
    ::close(conn.fd);  // EPOLL_CTL_DEL is implicit in close(2)
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

  /// One decoded request frame: the service answers it now or defers it to
  /// a pump; the per-connection in-flight budget is checked before either.
  void on_frame(Conn& conn, std::string_view payload) {
    if (conn.dead) return;
    Request request;
    try {
      request = decode_request(payload);
    } catch (const ProtocolError& e) {
      counters.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      push_response(conn, error_response(e.what()));
      return;
    }
    const bool stats = request.op == Op::kStats;
    Step step;
    try {
      step = service.begin(std::move(request),
                           /*may_defer=*/conn.inflight < options.max_inflight_per_conn);
    } catch (...) {
      step.answer = failure_response();
    }
    if (step.job) {
      const std::uint64_t seq = conn.next_seq++;
      conn.pending.push_back(Pending{seq, false, {}});
      ++conn.inflight;
      {
        std::lock_guard lock(pump_mutex);
        pump_queue.push_back(Ticket{conn.id, seq, std::move(step.job)});
      }
      pump_ready.notify_one();
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
    if (stats && response.status == Status::kOk && !response.text.empty() &&
        response.text.back() == '}') {
      append_frontend_fields(response.text, counters.snapshot());
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

  /// Moves ready FIFO-head slots into the flush buffer, writes what the
  /// socket takes, enforces the write-queue cap, arms EPOLLOUT for the rest.
  void flush(Conn& conn) {
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
    if (!conn.parked_gates.empty() && queued <= stream_watermark()) {
      // The socket drained: wake every stream paced on this connection.
      for (const auto& gate : conn.parked_gates) gate_signal(*gate, /*cancel=*/false);
      conn.parked_gates.clear();
      conn.stream_parked_ns = 0;
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

  // -- pump pool (deferred jobs) --------------------------------------------

  void pump_loop() {
    while (true) {
      Ticket ticket;
      {
        std::unique_lock lock(pump_mutex);
        pump_ready.wait(lock, [this] { return pump_stop || !pump_queue.empty(); });
        if (pump_queue.empty()) {
          if (pump_stop) return;
          continue;
        }
        ticket = std::move(pump_queue.front());
        pump_queue.pop_front();
      }
      // Past the drain deadline every connection is being torn down: drop
      // the ticket instead of waiting out its compute.
      if (hard_stop.load(std::memory_order_relaxed)) continue;
      run_ticket(ticket);
    }
  }

  void post_completion(const Ticket& ticket, std::string bytes, bool done,
                       std::shared_ptr<StreamGate> gate) {
    {
      std::lock_guard lock(completion_mutex);
      completions.push_back(
          Completion{ticket.conn_id, ticket.seq, std::move(bytes), done, std::move(gate)});
    }
    const std::uint64_t one = 1;
    (void)::write(completion_fd, &one, sizeof(one));
  }

  /// Runs a ticket's job with a sink that posts every frame as its own
  /// completion into the ticket's pending slot. Between the frames of a
  /// stream the pump blocks on a gate the event loop grants once the
  /// connection's write queue has drained below the watermark, so a plot
  /// crosses the reactor one bounded frame at a time -- the write-queue cap
  /// holds no matter how many cells the grid has.
  void run_ticket(Ticket& ticket) {
    auto gate = std::make_shared<StreamGate>();
    bool ended = false;  // terminal frame posted, or the stream was cancelled
    const Sink sink = [&](Response&& response) {
      if (ended) return false;
      const bool done = terminal_response_frame(response);
      std::string bytes;
      try {
        bytes = encode_frame(response);
      } catch (...) {
        // An unencodable frame (a service bug) still terminates the slot.
        ended = true;
        post_completion(ticket, encode_frame(failure_response()), /*done=*/true, nullptr);
        return false;
      }
      ended = done;
      post_completion(ticket, std::move(bytes), done, done ? nullptr : gate);
      if (done) return true;
      std::unique_lock lock(gate->mutex);
      while (!gate->proceed && !gate->cancel) {
        if (hard_stop.load(std::memory_order_relaxed)) {
          ended = true;
          return false;
        }
        gate->cv.wait_for(lock, std::chrono::milliseconds(50));
      }
      if (gate->cancel) {
        ended = true;
        return false;
      }
      gate->proceed = false;
      return true;
    };
    try {
      ticket.job(sink);
    } catch (...) {
      (void)sink(failure_response());  // an escaping exception still ends the slot
    }
    counters.pump_answers.fetch_add(1, std::memory_order_relaxed);
  }

  void completions_ready() {
    std::uint64_t drainv = 0;
    (void)::read(completion_fd, &drainv, sizeof(drainv));
    std::vector<Completion> batch;
    {
      std::lock_guard lock(completion_mutex);
      batch.swap(completions);
    }
    for (Completion& c : batch) {
      const auto it = conns.find(c.conn_id);
      if (it == conns.end()) {  // connection died while computing
        if (c.gate) gate_signal(*c.gate, /*cancel=*/true);
        continue;
      }
      Conn& conn = *it->second;
      // Slots are contiguous seqs; index the deque directly. Stream frames
      // accumulate into their slot (flush drains the head's bytes even
      // before the slot is done).
      const std::uint64_t base = conn.pending.front().seq;
      Pending& slot = conn.pending[static_cast<std::size_t>(c.seq - base)];
      slot.bytes += c.bytes;
      conn.pending_ready_bytes += c.bytes.size();
      if (c.done) {
        slot.done = true;
        --conn.inflight;
      }
      flush(conn);
      if (c.gate) {
        // The pump is holding the next tile; grant it room now or park the
        // gate for flush to grant once the socket drains.
        const auto again = conns.find(c.conn_id);
        if (again == conns.end()) {
          gate_signal(*c.gate, /*cancel=*/true);
        } else if (queued_bytes(*again->second) <= stream_watermark()) {
          gate_signal(*c.gate, /*cancel=*/false);
        } else {
          Conn& live = *again->second;
          if (live.parked_gates.empty()) live.stream_parked_ns = env->now_ns();
          live.parked_gates.push_back(std::move(c.gate));
        }
      }
    }
  }

  // -- timeouts and drain ---------------------------------------------------

  void scan_timeouts() {
    if (options.idle_timeout_ms == 0 && options.read_timeout_ms == 0) return;
    const std::uint64_t now = env->now_ns();
    std::vector<std::uint64_t> doomed_idle;
    std::vector<std::uint64_t> doomed_read;
    std::vector<std::uint64_t> doomed_stall;
    for (const auto& [id, conn] : conns) {
      if (options.read_timeout_ms != 0 && conn->frame_start_ns != 0 &&
          now - conn->frame_start_ns > options.read_timeout_ms * 1'000'000) {
        doomed_read.push_back(id);
        continue;
      }
      // A paced stream parks below the disconnect cap, so a peer that stops
      // reading mid-plot never trips it; bound that stall with the
      // read-timeout clock instead.
      if (options.read_timeout_ms != 0 && conn->stream_parked_ns != 0 &&
          now - conn->stream_parked_ns > options.read_timeout_ms * 1'000'000) {
        doomed_stall.push_back(id);
        continue;
      }
      const bool idle = conn->pending.empty() && !conn->decoder.mid_frame() &&
                        conn->out_off == conn->out.size();
      if (options.idle_timeout_ms != 0 && idle &&
          now - conn->last_read_ns > options.idle_timeout_ms * 1'000'000) {
        doomed_idle.push_back(id);
      }
    }
    for (const std::uint64_t id : doomed_read) {
      counters.timeouts_read.fetch_add(1, std::memory_order_relaxed);
      close_conn(id);
    }
    for (const std::uint64_t id : doomed_stall) {
      counters.write_queue_disconnects.fetch_add(1, std::memory_order_relaxed);
      close_conn(id);
    }
    for (const std::uint64_t id : doomed_idle) {
      counters.timeouts_idle.fetch_add(1, std::memory_order_relaxed);
      close_conn(id);
    }
  }

  void begin_drain() {
    if (draining) return;
    draining = true;
    drain_deadline_ns = env->now_ns() + options.drain_timeout_ms * 1'000'000;
    ::close(listener);  // stop accepting; implicit EPOLL_CTL_DEL
    listener = -1;
    // Stop reading: in-flight requests finish, new bytes are ignored.
    for (const auto& [id, conn] : conns) {
      rearm(*conn, conn->want_write ? static_cast<std::uint32_t>(EPOLLOUT) : 0u);
    }
  }

  /// True when drain has nothing left to wait for (or ran out of patience).
  bool drain_finished() {
    if (!draining) return false;
    std::vector<std::uint64_t> done;
    for (const auto& [id, conn] : conns) {
      if (conn->pending.empty() && conn->out_off == conn->out.size()) {
        done.push_back(id);
      }
    }
    for (const std::uint64_t id : done) close_conn(id);
    if (conns.empty()) return true;
    if (env->now_ns() >= drain_deadline_ns) {
      std::vector<std::uint64_t> rest;
      rest.reserve(conns.size());
      for (const auto& [id, conn] : conns) rest.push_back(id);
      for (const std::uint64_t id : rest) close_conn(id);
      return true;
    }
    return false;
  }

  // -- the loop -------------------------------------------------------------

  void run() {
    for (int p = 0; p < std::max(1, options.pump_threads); ++p) {
      pumps.emplace_back([this] { pump_loop(); });
    }
    epoll_event events[256];
    std::uint64_t last_scan_ns = env->now_ns();
    while (true) {
      const int timeout_ms = draining ? 10 : 20;
      const int n = ::epoll_wait(epoll_fd, events, 256, timeout_ms);
      if (n < 0 && errno != EINTR) break;
      for (int i = 0; i < n; ++i) {
        const std::uint64_t tag = events[i].data.u64;
        const std::uint32_t ev = events[i].events;
        if (tag == kListenerTag) {
          if (!draining) accept_ready();
          continue;
        }
        if (tag == kStopTag) {
          std::uint64_t v = 0;
          (void)::read(stop_fd, &v, sizeof(v));
          begin_drain();
          continue;
        }
        if (tag == kCompletionTag) {
          completions_ready();
          continue;
        }
        const auto it = conns.find(tag);
        if (it == conns.end()) continue;  // closed earlier in this batch
        Conn& conn = *it->second;
        if ((ev & (EPOLLHUP | EPOLLERR)) != 0) {
          close_conn(tag);
          continue;
        }
        if ((ev & EPOLLOUT) != 0) flush(conn);
        // flush may have closed the conn; re-check before reading.
        if ((ev & EPOLLIN) != 0 && conns.count(tag) != 0 && !draining) {
          read_ready(conn);
        }
      }
      graveyard.clear();  // no handler is live past the events loop
      const std::uint64_t now = env->now_ns();
      if (now - last_scan_ns >= 10'000'000) {  // scan timeouts every ~10ms
        last_scan_ns = now;
        scan_timeouts();
      }
      if (drain_finished()) break;
    }
    // Stop the pumps; abandoned tickets belong to connections already torn
    // down (or about to be -- close_fds() in the destructor sweeps the rest).
    hard_stop.store(true, std::memory_order_relaxed);
    {
      std::lock_guard lock(pump_mutex);
      pump_stop = true;
    }
    pump_ready.notify_all();
    for (std::thread& t : pumps) t.join();
    pumps.clear();
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
