// Minimal iostream adapter over a POSIX file descriptor.
//
// The engine's wire protocol (engine/protocol.hpp) is written against
// std::istream/std::ostream so it works identically over stdin/stdout pipes
// and sockets, and stays unit-testable against stringstreams. This adapter
// is the socket side of that bargain: a buffering streambuf over an fd,
// shared by semilocal_cli and semilocal_loadgen. POSIX-only, like the
// socket code in the tools themselves.
#pragma once

#include <unistd.h>

#include <cstddef>
#include <istream>
#include <ostream>
#include <streambuf>

namespace semilocal::tools {

class FdStreambuf : public std::streambuf {
 public:
  explicit FdStreambuf(int fd) : fd_(fd) { setg(in_, in_, in_); }

 protected:
  int_type underflow() override {
    const ssize_t n = ::read(fd_, in_, sizeof(in_));
    if (n <= 0) return traits_type::eof();
    setg(in_, in_, in_ + n);
    return traits_type::to_int_type(in_[0]);
  }

  std::streamsize xsputn(const char* s, std::streamsize n) override {
    std::streamsize written = 0;
    while (written < n) {
      const ssize_t w = ::write(fd_, s + written, static_cast<std::size_t>(n - written));
      if (w <= 0) return written;
      written += w;
    }
    return written;
  }

  int_type overflow(int_type ch) override {
    if (traits_type::eq_int_type(ch, traits_type::eof())) return 0;
    const char c = traits_type::to_char_type(ch);
    return xsputn(&c, 1) == 1 ? ch : traits_type::eof();
  }

 private:
  int fd_;
  char in_[1 << 16];
};

/// Owns the fd and both stream facades for one connection.
class FdStream {
  // Declared before the streams: members initialize in declaration order and
  // the streams take the buffer's address.
  int fd_;
  FdStreambuf buf_;

 public:
  explicit FdStream(int fd) : fd_(fd), buf_(fd), in(&buf_), out(&buf_) {}
  ~FdStream() {
    if (fd_ >= 0) ::close(fd_);
  }
  FdStream(const FdStream&) = delete;
  FdStream& operator=(const FdStream&) = delete;

  std::istream in;
  std::ostream out;
};

}  // namespace semilocal::tools
