#include "net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/error.hpp"
#include "common/format.hpp"

namespace myproxy::net {

namespace {

[[noreturn]] void throw_errno(std::string_view what) {
  throw IoError(fmt::format("{}: {}", what, std::strerror(errno)));
}

/// EAGAIN/EWOULDBLOCK on a socket with SO_RCVTIMEO/SO_SNDTIMEO armed means
/// the deadline expired, not that the connection broke.
bool errno_is_timeout() {
  return errno == EAGAIN || errno == EWOULDBLOCK;
}

timeval to_timeval(std::chrono::milliseconds timeout) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout.count() / 1000);
  tv.tv_usec = static_cast<suseconds_t>((timeout.count() % 1000) * 1000);
  return tv;
}

}  // namespace

void Socket::write_all(std::string_view data) {
  if (!valid()) throw IoError("write on closed socket");
  for (std::size_t sent = 0; sent < data.size();) {
    const std::size_t n = try_write(data.substr(sent));
    if (n == 0) {
      throw IoTimeout(fmt::format(
          "send deadline expired ({} of {} bytes sent)", sent, data.size()));
    }
    sent += n;
  }
}

std::string Socket::read_exact(std::size_t n) {
  std::string out;
  out.resize(n);
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd_, out.data() + got, n - got, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno_is_timeout()) {
        throw IoTimeout(fmt::format(
            "receive deadline expired ({} of {} bytes read)", got, n));
      }
      throw_errno("recv");
    }
    if (r == 0) {
      throw IoError(fmt::format(
          "connection closed mid-message ({} of {} bytes)", got, n));
    }
    got += static_cast<std::size_t>(r);
  }
  return out;
}

std::string Socket::read_some(std::size_t n) {
  auto out = try_read_some(n);
  if (!out.has_value()) throw IoTimeout("receive deadline expired");
  return std::move(*out);
}

std::optional<std::string> Socket::try_read_some(std::size_t n) {
  std::string out(n, '\0');
  ssize_t r = 0;
  do {
    r = ::recv(fd_, out.data(), n, 0);
  } while (r < 0 && errno == EINTR);
  if (r < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK) return std::nullopt;
    throw_errno("recv");
  }
  out.resize(static_cast<std::size_t>(r));
  return out;
}

std::size_t Socket::try_write(std::string_view data) {
  ssize_t n = 0;
  do {
    n = ::send(fd_, data.data(), data.size(), MSG_NOSIGNAL);
  } while (n < 0 && errno == EINTR);
  if (n < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK) return 0;
    throw_errno("send");
  }
  return static_cast<std::size_t>(n);
}

void Socket::set_read_timeout(std::chrono::milliseconds timeout) {
  if (!valid()) throw IoError("set_read_timeout on closed socket");
  const timeval tv = to_timeval(timeout);
  if (::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0) {
    throw_errno("setsockopt(SO_RCVTIMEO)");
  }
}

void Socket::set_write_timeout(std::chrono::milliseconds timeout) {
  if (!valid()) throw IoError("set_write_timeout on closed socket");
  const timeval tv = to_timeval(timeout);
  if (::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv)) != 0) {
    throw_errno("setsockopt(SO_SNDTIMEO)");
  }
}

void Socket::set_nonblocking(bool enabled) {
  if (!valid()) throw IoError("set_nonblocking on closed socket");
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags < 0) throw_errno("fcntl(F_GETFL)");
  const int updated = enabled ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (updated != flags && ::fcntl(fd_, F_SETFL, updated) != 0) {
    throw_errno("fcntl(F_SETFL)");
  }
}

void Socket::shutdown_send() noexcept {
  if (valid()) ::shutdown(fd_, SHUT_WR);
}

std::string Socket::peer_address() const {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (!valid() ||
      ::getpeername(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0 ||
      addr.sin_family != AF_INET) {
    return {};
  }
  char text[INET_ADDRSTRLEN] = {};
  if (::inet_ntop(AF_INET, &addr.sin_addr, text, sizeof(text)) == nullptr) {
    return {};
  }
  return text;
}

bool is_loopback_address(std::string_view address) {
  in_addr parsed{};
  const std::string text(address);
  if (::inet_pton(AF_INET, text.c_str(), &parsed) != 1) return false;
  return (ntohl(parsed.s_addr) >> 24) == 127;
}

void Socket::close() noexcept {
  if (valid()) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::pair<Socket, Socket> socket_pair() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    throw_errno("socketpair");
  }
  return {Socket(fds[0]), Socket(fds[1])};
}

TcpListener TcpListener::bind(std::uint16_t port) {
  return bind(port, "127.0.0.1");
}

TcpListener TcpListener::bind(std::uint16_t port, std::string_view address) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  Socket socket(fd);

  const int one = 1;
  if (::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) != 0) {
    throw_errno("setsockopt(SO_REUSEADDR)");
  }

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  const std::string address_text(address);
  if (::inet_pton(AF_INET, address_text.c_str(), &addr.sin_addr) != 1) {
    throw IoError(fmt::format("unparseable bind address '{}'", address));
  }
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    throw_errno("bind");
  }
  // Deep enough for a reactor-scale connect burst; the kernel clamps to
  // net.core.somaxconn anyway.
  if (::listen(fd, 512) != 0) throw_errno("listen");

  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    throw_errno("getsockname");
  }
  return TcpListener(std::move(socket), ntohs(addr.sin_port));
}

void TcpListener::close() noexcept {
  if (socket_.valid()) {
    ::shutdown(socket_.fd(), SHUT_RDWR);
    socket_.close();
  }
}

Socket TcpListener::accept() {
  if (!socket_.valid()) throw IoError("accept on closed listener");
  const int fd = ::accept(socket_.fd(), nullptr, nullptr);
  if (fd < 0) throw_errno("accept");
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Socket(fd);
}

std::optional<Socket> TcpListener::try_accept() {
  if (!socket_.valid()) throw IoError("accept on closed listener");
  while (true) {
    const int fd = ::accept(socket_.fd(), nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return std::nullopt;
      throw_errno("accept");
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return Socket(fd);
  }
}

void TcpListener::set_nonblocking(bool enabled) {
  socket_.set_nonblocking(enabled);
}

Socket tcp_connect(std::uint16_t port, std::chrono::milliseconds timeout) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  Socket socket(fd);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);

  if (timeout.count() <= 0) {
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      throw_errno("connect");
    }
  } else {
    // Bounded connect: flip to non-blocking, start the handshake, poll for
    // writability, then restore blocking mode for the rest of the session.
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0) throw_errno("fcntl(F_GETFL)");
    if (::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
      throw_errno("fcntl(F_SETFL)");
    }
    const int rc =
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    if (rc != 0) {
      if (errno != EINPROGRESS) throw_errno("connect");
      pollfd pfd{fd, POLLOUT, 0};
      int polled;
      do {
        polled = ::poll(&pfd, 1, static_cast<int>(timeout.count()));
      } while (polled < 0 && errno == EINTR);
      if (polled < 0) throw_errno("poll(connect)");
      if (polled == 0) {
        throw IoTimeout(fmt::format(
            "connect to port {} timed out after {} ms", port,
            timeout.count()));
      }
      int so_error = 0;
      socklen_t len = sizeof(so_error);
      if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) != 0) {
        throw_errno("getsockopt(SO_ERROR)");
      }
      if (so_error != 0) {
        throw IoError(fmt::format("connect: {}", std::strerror(so_error)));
      }
    }
    if (::fcntl(fd, F_SETFL, flags) != 0) throw_errno("fcntl(F_SETFL)");
  }

  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return socket;
}

}  // namespace myproxy::net
