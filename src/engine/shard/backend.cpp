#include "engine/shard/backend.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

namespace semilocal {
namespace {

/// Poll slice between Env-clock deadline checks. Short enough that FaultyEnv
/// runs (whose synthetic clock advances per now_ns call, not in real time)
/// still converge quickly; long enough not to spin.
constexpr int kPollSliceMs = 2;

bool poll_one(int fd, short events, int timeout_ms) {
  pollfd p{};
  p.fd = fd;
  p.events = events;
  const int n = ::poll(&p, 1, timeout_ms);
  return n > 0 && (p.revents & (events | POLLHUP | POLLERR)) != 0;
}

}  // namespace

BackendPool::Conn::~Conn() {
  if (fd >= 0) ::close(fd);
}

BackendPool::BackendPool(BackendOptions options)
    : options_(std::move(options)), env_(options_.env ? options_.env : &real_env()) {}

BackendPool::~BackendPool() = default;

int BackendPool::dial() {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return -1;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (errno != EINPROGRESS) {
      ::close(fd);
      return -1;
    }
    // Non-blocking connect: wait for writability, then check SO_ERROR. The
    // timeout is real time -- the handshake happens in the kernel, below the
    // Env seam (injected faults hit the byte stream, not the dial).
    if (!poll_one(fd, POLLOUT, static_cast<int>(options_.connect_timeout_ms))) {
      ::close(fd);
      return -1;
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      ::close(fd);
      return -1;
    }
  }
  const int nodelay = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
  return fd;
}

BackendPool::ConnPtr BackendPool::acquire(std::uint64_t deadline_ns) {
  std::unique_lock lock(mutex_);
  while (true) {
    if (!idle_.empty()) {
      ConnPtr conn = std::move(idle_.back());
      idle_.pop_back();
      return conn;
    }
    if (outstanding_ < options_.max_connections) {
      ++outstanding_;  // reserve the slot before dropping the lock to dial
      lock.unlock();
      const int fd = dial();
      if (fd < 0) {
        lock.lock();
        --outstanding_;
        returned_.notify_one();
        return nullptr;
      }
      auto conn = std::make_unique<Conn>();
      conn->fd = fd;
      conn->label = "shard:" + std::to_string(options_.shard_id);
      return conn;
    }
    // At capacity: wait for a release/discard. The deadline reads the Env
    // clock, the wait itself slices real time (condition variables have no
    // synthetic-clock seam).
    if (env_->now_ns() >= deadline_ns) return nullptr;
    returned_.wait_for(lock, std::chrono::milliseconds(kPollSliceMs));
  }
}

void BackendPool::release(ConnPtr conn) {
  if (!conn) return;
  if (conn->dirty()) return discard(std::move(conn));
  std::lock_guard lock(mutex_);
  idle_.push_back(std::move(conn));
  returned_.notify_one();
}

void BackendPool::discard(ConnPtr conn) {
  if (!conn) return;
  conn.reset();  // closes the fd
  std::lock_guard lock(mutex_);
  --outstanding_;
  returned_.notify_one();
}

bool send_frame(Env& env, BackendPool::Conn& conn, std::string_view payload,
                std::uint64_t deadline_ns) {
  std::string frame;
  try {
    frame = frame_payload(payload);
  } catch (const ProtocolError&) {
    return false;
  }
  std::size_t off = 0;
  while (off < frame.size()) {
    const long w = env.fd_write(conn.fd, frame.data() + off, frame.size() - off,
                                conn.label);
    if (w > 0) {
      off += static_cast<std::size_t>(w);
      continue;
    }
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (env.now_ns() >= deadline_ns) return false;
      (void)poll_one(conn.fd, POLLOUT, kPollSliceMs);
      continue;
    }
    return false;  // injected EIO, EPIPE, or a real connection error
  }
  return true;
}

RecvStatus recv_first(Env& env, const std::vector<BackendPool::Conn*>& conns,
                      std::uint64_t deadline_ns, int& winner, std::string& payload) {
  // Banked frames first: a streaming backend packs many tiles into one
  // read(), and the surplus beyond the frame returned then sits in
  // `pending`. Polling the socket instead would hang until the deadline --
  // the bytes are already off the wire.
  for (std::size_t i = 0; i < conns.size(); ++i) {
    if (conns[i]->pending.empty()) continue;
    payload = std::move(conns[i]->pending.front());
    conns[i]->pending.pop_front();
    winner = static_cast<int>(i);
    return RecvStatus::kOk;
  }
  std::vector<pollfd> fds(conns.size());
  char buf[1 << 16];
  while (true) {
    for (std::size_t i = 0; i < conns.size(); ++i) {
      fds[i].fd = conns[i]->fd;
      fds[i].events = POLLIN;
      fds[i].revents = 0;
    }
    const int n = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), kPollSliceMs);
    if (n > 0) {
      for (std::size_t i = 0; i < conns.size(); ++i) {
        if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        BackendPool::Conn& conn = *conns[i];
        const long r = env.fd_read(conn.fd, buf, sizeof(buf), conn.label);
        if (r == 0) {  // backend hung up mid-exchange
          winner = static_cast<int>(i);
          return RecvStatus::kError;
        }
        if (r < 0) {
          if (errno == EAGAIN || errno == EWOULDBLOCK) continue;
          winner = static_cast<int>(i);  // injected EIO or a real error
          return RecvStatus::kError;
        }
        bool complete = false;
        try {
          conn.decoder.feed(std::string_view(buf, static_cast<std::size_t>(r)),
                            [&](std::string_view p, bool /*spanned*/) {
                              // First frame is this call's answer; later
                              // frames from the same read are banked for the
                              // next call. A one-shot caller that finds the
                              // bank non-empty afterwards (Conn::dirty)
                              // treats it as a protocol violation and
                              // discards the connection.
                              if (!complete) {
                                payload.assign(p);
                                complete = true;
                              } else {
                                conn.pending.emplace_back(p);
                              }
                            });
        } catch (const ProtocolError&) {
          winner = static_cast<int>(i);
          return RecvStatus::kError;
        }
        if (complete) {
          winner = static_cast<int>(i);
          return RecvStatus::kOk;
        }
      }
    }
    if (env.now_ns() >= deadline_ns) return RecvStatus::kTimeout;
  }
}

}  // namespace semilocal
