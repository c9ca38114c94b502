// The event loop under the serve frontend and the shard router's relay.
//
// One thread calls poll(); everything else happens in the handlers it
// dispatches: fd readiness (epoll, level-triggered) and one-shot deadlines
// read off the Env clock, so FaultyEnv's synthetic clock drives every
// timeout a loop runs. The reactor (engine/frontend.hpp) runs its sockets
// on one; the router's relay (engine/shard/router.hpp) runs its backend
// exchanges on whichever loop it is handed -- the reactor's when serving,
// a private one inside route() and probe_all().
//
// Other threads finish their part on the loop through post(): a worker
// posts a computed answer or plot row, and the loop work that owns it sends
// the frames. A Poster may outlive its loop; a post to a loop that is gone
// is dropped unrun.
//
// A watch is identified by (fd, serial): an event collected for an fd that
// was unwatched -- and possibly reused by a fresh socket -- earlier in the
// same batch is dropped, never delivered to the new owner.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "engine/env.hpp"

namespace semilocal {

class EventLoop {
 public:
  /// What a watch or a deadline calls back; `token` is the value given at
  /// registration, so one handler can own many fds.
  class Handler {
   public:
    virtual void on_ready(std::uint64_t token, std::uint32_t events) = 0;
    virtual void on_deadline(std::uint64_t token) { (void)token; }

   protected:
    ~Handler() = default;
  };

  /// An armed deadline: (deadline_ns, id). A default Timer is "none".
  using Timer = std::pair<std::uint64_t, std::uint64_t>;

  /// Posts to one loop from any thread, and may outlive it.
  class Poster {
   public:
    /// Queues `fn` to run on the loop's thread, in posting order; once the
    /// loop is gone, `fn` is dropped unrun.
    void post(std::function<void()> fn) const;

   private:
    friend class EventLoop;
    struct Mailbox;
    std::shared_ptr<Mailbox> box_;
  };

  /// Throws std::runtime_error if the epoll set cannot be created.
  explicit EventLoop(Env& env);
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  [[nodiscard]] Env& env() const { return *env_; }

  /// Starts watching `fd` for `events` (EPOLLIN / EPOLLOUT; errors and
  /// hang-ups are always reported). Throws std::runtime_error.
  void watch(int fd, std::uint32_t events, Handler& handler, std::uint64_t token);
  /// Changes the interest of a watched fd.
  void rearm(int fd, std::uint32_t events);
  /// Stops watching `fd`; call it before close(fd).
  void unwatch(int fd);

  /// Arms a one-shot deadline on the Env clock.
  Timer at(std::uint64_t deadline_ns, Handler& handler, std::uint64_t token);
  /// Disarms a deadline; a fired or default Timer is a no-op.
  void cancel(Timer timer);

  /// Thread-safe: queues `fn` to run on this loop's thread.
  void post(std::function<void()> fn) const { poster_.post(std::move(fn)); }
  [[nodiscard]] const Poster& poster() const { return poster_; }

  /// Waits for readiness for at most max_wait_ms -- less when a deadline
  /// falls due sooner -- then runs the handlers of ready fds and of the
  /// deadlines due by then. false = epoll_wait failed.
  bool poll(int max_wait_ms);

  /// A private loop's driver: polls in short slices until `done()`. The
  /// slices keep a FaultyEnv's deadlines moving, since its clock advances
  /// per reading, not in real time. false = epoll_wait failed first.
  bool run_until(const std::function<bool()>& done);

 private:
  struct Watch {
    Handler* handler = nullptr;
    std::uint64_t token = 0;
    std::uint32_t serial = 0;  ///< 0 = not watched
  };

  Env* env_;
  int epoll_fd_ = -1;
  std::vector<Watch> watches_;  ///< indexed by fd
  std::uint32_t next_serial_ = 1;
  std::map<Timer, std::pair<Handler*, std::uint64_t>> deadlines_;
  std::uint64_t next_timer_id_ = 1;
  Poster poster_;
};

}  // namespace semilocal
