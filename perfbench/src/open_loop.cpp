#include "open_loop.hpp"

#include <sys/prctl.h>
#include <sys/socket.h>
#include <time.h>

#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>

namespace perfbench {

using semilocal::Response;

std::uint64_t now_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

namespace {

void sleep_until_ns(std::uint64_t t) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(t / 1'000'000'000ULL);
  ts.tv_nsec = static_cast<long>(t % 1'000'000'000ULL);
  while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) == EINTR) {
  }
}

/// Requests sent on one connection and not yet finally answered, in order.
struct Inflight {
  std::mutex mutex;
  std::deque<std::size_t> queue;
};

/// The receiver threads, stopped and joined on every exit path: shutting the
/// sockets down ends their blocking reads.
class Receivers {
 public:
  explicit Receivers(const std::vector<std::unique_ptr<Connection>>& conns) : conns_(conns) {}
  ~Receivers() { stop(); }
  Receivers(const Receivers&) = delete;
  Receivers& operator=(const Receivers&) = delete;

  template <typename Body>
  void start(Body&& body) {
    threads_.emplace_back(std::forward<Body>(body));
  }
  void stop() {
    for (const auto& c : conns_) ::shutdown(c->fd(), SHUT_RDWR);
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

 private:
  const std::vector<std::unique_ptr<Connection>>& conns_;
  std::vector<std::thread> threads_;
};

}  // namespace

OpenLoopRun run_open_loop(const Stream& stream,
                          const std::vector<std::unique_ptr<Connection>>& conns,
                          const std::function<void(std::size_t, const Response&)>& on_frame,
                          std::uint64_t drain_ms) {
  const std::size_t n = stream.reqs.size();
  OpenLoopRun run;
  run.times.due.resize(n);
  run.times.sent.assign(n, 0);
  run.times.done.assign(n, 0);
  run.times.ok.assign(n, false);
  run.status.assign(n, 255);

  std::vector<Inflight> inflight(conns.size());
  std::atomic<std::size_t> answered{0};
  std::atomic<std::uint64_t> received_bytes{0};
  std::mutex done_mutex;
  std::condition_variable all_done;

  Receivers receivers(conns);
  for (std::size_t c = 0; c < conns.size(); ++c) {
    receivers.start([&, c] {
      std::vector<std::string> frames;
      try {
        while (conns[c]->read_frames(frames)) {
          // Stamped on arrival, before the client decodes, assembles or
          // samples anything: only the server and the network are timed.
          const std::uint64_t arrived = now_ns();
          for (const std::string& payload : frames) {
            received_bytes.fetch_add(payload.size() + 4, std::memory_order_relaxed);
            const Response r = semilocal::decode_response(payload);
            const bool terminal = semilocal::terminal_response_frame(r);
            std::size_t i = 0;
            {
              std::lock_guard<std::mutex> lock(inflight[c].mutex);
              if (inflight[c].queue.empty()) throw std::runtime_error("unsolicited frame");
              i = inflight[c].queue.front();
              if (terminal) inflight[c].queue.pop_front();
            }
            if (terminal) run.times.done[i] = arrived;
            on_frame(i, r);
            if (terminal) {
              run.status[i] = static_cast<std::uint8_t>(r.status);
              if (answered.fetch_add(1) + 1 == n) {
                std::lock_guard<std::mutex> lock(done_mutex);
                all_done.notify_all();
              }
            }
          }
          frames.clear();
        }
      } catch (const std::exception&) {
        // A torn frame or a closed socket: whatever is still in flight on
        // this connection stays unanswered and counts as failed.
      }
    });
  }

  // The default 50 us timer slack would add itself to every send's
  // lateness; the generator still sleeps, it just wakes when asked.
  ::prctl(PR_SET_TIMERSLACK, 1UL);
  run.start_ns = now_ns() + 2'000'000;  // first due time, 2 ms out
  for (std::size_t i = 0; i < n; ++i) {
    const Planned& p = stream.reqs[i];
    const std::uint64_t due = run.start_ns + p.due_ns;
    run.times.due[i] = due;
    // Encoded before the sleep, so only the send itself is on the clock.
    const std::string payload = encode(stream, i, p);
    sleep_until_ns(due);
    {
      std::lock_guard<std::mutex> lock(inflight[p.conn].mutex);
      inflight[p.conn].queue.push_back(i);
    }
    run.times.sent[i] = now_ns();
    run.bytes_sent += payload.size() + 4;
    try {
      conns[p.conn]->send_payload(payload);
    } catch (const std::exception&) {
      // The receiver sees the close; the request stays unanswered.
    }
  }
  {
    std::unique_lock<std::mutex> lock(done_mutex);
    all_done.wait_until(lock, std::chrono::steady_clock::now() + std::chrono::milliseconds(drain_ms),
                        [&] { return answered.load() == n; });
  }
  run.end_ns = now_ns();
  receivers.stop();
  run.bytes_received = received_bytes.load();
  for (std::size_t i = 0; i < n; ++i) {
    run.times.ok[i] = run.status[i] == static_cast<std::uint8_t>(semilocal::Status::kOk);
  }
  return run;
}

}  // namespace perfbench
