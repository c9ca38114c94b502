#include "engine/loop.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <string>

namespace semilocal {
namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

std::uint64_t pack(int fd, std::uint32_t serial) {
  return (static_cast<std::uint64_t>(serial) << 32) | static_cast<std::uint32_t>(fd);
}

}  // namespace

/// The posters' queue, and the loop's handler for its eventfd, which is
/// rung when the queue turns non-empty; fd = -1 once the loop is gone.
struct EventLoop::Poster::Mailbox final : EventLoop::Handler {
  std::mutex mutex;
  std::vector<std::function<void()>> queue;
  int fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);

  void on_ready(std::uint64_t /*token*/, std::uint32_t /*events*/) override {
    // Reset the eventfd before taking the queue: a post after the swap
    // finds the queue empty and rings it again.
    std::uint64_t count = 0;
    (void)::read(fd, &count, sizeof(count));
    std::vector<std::function<void()>> ready;
    {
      std::lock_guard lock(mutex);
      ready.swap(queue);
    }
    for (std::function<void()>& fn : ready) fn();
  }
};

void EventLoop::Poster::post(std::function<void()> fn) const {
  std::lock_guard lock(box_->mutex);
  if (box_->fd < 0) return;
  if (box_->queue.empty()) {
    const std::uint64_t one = 1;
    (void)::write(box_->fd, &one, sizeof(one));
  }
  box_->queue.push_back(std::move(fn));
}

EventLoop::EventLoop(Env& env) : env_(&env), epoll_fd_(::epoll_create1(EPOLL_CLOEXEC)) {
  poster_.box_ = std::make_shared<Poster::Mailbox>();
  try {
    if (epoll_fd_ < 0 || poster_.box_->fd < 0) throw_errno("event loop: epoll/eventfd");
    watch(poster_.box_->fd, EPOLLIN, *poster_.box_, 0);
  } catch (...) {
    ::close(epoll_fd_);
    ::close(poster_.box_->fd);
    throw;
  }
}

EventLoop::~EventLoop() {
  std::vector<std::function<void()>> dropped;
  {
    std::lock_guard lock(poster_.box_->mutex);
    ::close(poster_.box_->fd);
    poster_.box_->fd = -1;
    dropped.swap(poster_.box_->queue);
  }
  ::close(epoll_fd_);
}  // `dropped` is destroyed unrun, outside the lock

void EventLoop::watch(int fd, std::uint32_t events, Handler& handler, std::uint64_t token) {
  if (static_cast<std::size_t>(fd) >= watches_.size()) {
    watches_.resize(std::max<std::size_t>(static_cast<std::size_t>(fd) + 1, watches_.size() * 2));
  }
  Watch& w = watches_[static_cast<std::size_t>(fd)];
  w = Watch{&handler, token, next_serial_++};
  if (next_serial_ == 0) next_serial_ = 1;
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = pack(fd, w.serial);
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    w = Watch{};
    throw_errno("event loop: epoll_ctl add");
  }
}

void EventLoop::rearm(int fd, std::uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = pack(fd, watches_[static_cast<std::size_t>(fd)].serial);
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
}

void EventLoop::unwatch(int fd) {
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  if (static_cast<std::size_t>(fd) < watches_.size()) {
    watches_[static_cast<std::size_t>(fd)] = Watch{};
  }
}

EventLoop::Timer EventLoop::at(std::uint64_t deadline_ns, Handler& handler,
                               std::uint64_t token) {
  const Timer timer{deadline_ns, next_timer_id_++};
  deadlines_.emplace(timer, std::make_pair(&handler, token));
  return timer;
}

void EventLoop::cancel(Timer timer) { deadlines_.erase(timer); }

bool EventLoop::poll(int max_wait_ms) {
  int timeout_ms = max_wait_ms;
  if (!deadlines_.empty()) {
    const std::uint64_t now = env_->now_ns();
    const std::uint64_t first = deadlines_.begin()->first.first;
    const std::uint64_t wait_ns = first > now ? first - now : 0;
    timeout_ms = static_cast<int>(
        std::min<std::uint64_t>(static_cast<std::uint64_t>(max_wait_ms),
                                (wait_ns + 999'999) / 1'000'000));
  }
  epoll_event events[256];
  int n = ::epoll_wait(epoll_fd_, events, 256, timeout_ms);
  if (n < 0) {
    if (errno != EINTR) return false;
    n = 0;
  }
  for (int i = 0; i < n; ++i) {
    const auto fd = static_cast<std::size_t>(events[i].data.u64 & 0xffffffffU);
    const auto serial = static_cast<std::uint32_t>(events[i].data.u64 >> 32);
    if (fd >= watches_.size() || watches_[fd].serial != serial) continue;  // unwatched
    const Watch w = watches_[fd];
    w.handler->on_ready(w.token, events[i].events);
  }
  if (deadlines_.empty()) return true;
  // Deadlines armed before this point and due now fire, one at a time (a
  // handler may cancel another). One armed by a handler waits for the next
  // poll, so a handler that keeps re-arming cannot starve the fds.
  const std::uint64_t now = env_->now_ns();
  const std::uint64_t armed_before = next_timer_id_;
  auto it = deadlines_.begin();
  while (it != deadlines_.end() && it->first.first <= now) {
    if (it->first.second >= armed_before) {
      ++it;
      continue;
    }
    const auto [handler, token] = it->second;
    deadlines_.erase(it);
    handler->on_deadline(token);
    it = deadlines_.begin();
  }
  return true;
}

bool EventLoop::run_until(const std::function<bool()>& done) {
  while (!done()) {
    if (!poll(2)) return false;
  }
  return true;
}

}  // namespace semilocal
