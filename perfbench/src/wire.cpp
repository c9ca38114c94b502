#include "wire.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

using semilocal::Response;

Connection::Connection(int port, int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (true) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) throw std::runtime_error("socket: " + std::string(std::strerror(errno)));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) break;
    ::close(fd_);
    fd_ = -1;
    if (std::chrono::steady_clock::now() > deadline) {
      throw std::runtime_error("connect to port " + std::to_string(port) + " timed out");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

Connection::~Connection() {
  if (fd_ >= 0) ::close(fd_);
}

void Connection::send_payload(const std::string& payload) {
  const std::string frame = semilocal::frame_payload(payload);
  std::size_t off = 0;
  while (off < frame.size()) {
    const ssize_t n = ::send(fd_, frame.data() + off, frame.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("send: " + std::string(std::strerror(errno)));
    }
    off += static_cast<std::size_t>(n);
  }
}

bool Connection::read_frames(std::vector<std::string>& out) {
  char buf[1 << 16];
  while (true) {
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    decoder_.feed(std::string_view(buf, static_cast<std::size_t>(n)),
                  [&out](std::string_view payload, bool) { out.emplace_back(payload); });
    if (!out.empty()) return true;
  }
}

Response Connection::read_response() {
  if (pending_pos_ == pending_.size()) {
    pending_.clear();
    pending_pos_ = 0;
    if (!read_frames(pending_)) throw std::runtime_error("connection closed by server");
  }
  return semilocal::decode_response(pending_[pending_pos_++]);
}

Response Connection::call(const std::string& payload,
                          const std::function<void(const Response&)>& on_frame) {
  send_payload(payload);
  while (true) {
    Response r = read_response();
    if (on_frame) on_frame(r);
    if (semilocal::terminal_response_frame(r)) return r;
  }
}

std::string fetch_stats(int port) {
  Connection c(port);
  semilocal::Request req;
  req.op = semilocal::Op::kStats;
  const Response r = c.call(semilocal::encode_request(req));
  if (r.status != semilocal::Status::kOk) throw std::runtime_error("stats: " + r.text);
  return r.text;
}

double process_cpu_s(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(in, line)) throw std::runtime_error("no /proc stat for pid " + std::to_string(pid));
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields overall, i.e. the 12th and 13th after ')'.
  std::istringstream rest(line.substr(line.rfind(')') + 2));
  std::string field;
  double ticks = 0;
  for (int i = 1; i <= 13 && rest >> field; ++i) {
    if (i >= 12) ticks += std::stod(field);
  }
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double process_hwm_mb(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      in >> kb;
      return kb / 1024.0;
    }
  }
  throw std::runtime_error("no VmHWM for pid " + std::to_string(pid));
}

}  // namespace perfbench
