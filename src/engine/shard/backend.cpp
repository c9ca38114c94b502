#include "engine/shard/backend.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

namespace semilocal {

BackendPool::Conn::~Conn() {
  if (fd >= 0) ::close(fd);
}

BackendPool::BackendPool(BackendOptions options) : options_(std::move(options)) {}

int BackendPool::dial(bool& connecting) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return -1;
  }
  // The handshake happens in the kernel, below the Env seam (injected
  // faults hit the byte stream, not the dial).
  connecting = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0;
  if (connecting && errno != EINPROGRESS) {
    ::close(fd);
    return -1;
  }
  const int nodelay = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
  return fd;
}

BackendPool::ConnPtr BackendPool::try_acquire(bool& busy) {
  busy = false;
  {
    std::lock_guard lock(mutex_);
    if (!idle_.empty()) {
      ConnPtr conn = std::move(idle_.back());
      idle_.pop_back();
      return conn;
    }
    if (outstanding_ >= options_.max_connections) {
      busy = true;
      return nullptr;
    }
    ++outstanding_;  // reserve the slot before dropping the lock to dial
  }
  auto conn = std::make_unique<Conn>();
  conn->fd = dial(conn->connecting);
  if (conn->fd < 0) {
    std::lock_guard lock(mutex_);
    --outstanding_;
    return nullptr;
  }
  conn->label = "shard:" + std::to_string(options_.shard_id);
  return conn;
}

void BackendPool::release(ConnPtr conn) {
  if (!conn) return;
  if (conn->decoder.mid_frame()) return discard(std::move(conn));
  std::lock_guard lock(mutex_);
  idle_.push_back(std::move(conn));
}

void BackendPool::discard(ConnPtr conn) {
  if (!conn) return;
  conn.reset();  // closes the fd
  std::lock_guard lock(mutex_);
  --outstanding_;
}

}  // namespace semilocal
