// RAII POSIX sockets: stream sockets, listeners, and socket pairs. This is
// the transport under the TLS layer; nothing here knows about GSI.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

namespace myproxy::net {

/// Owning wrapper for a connected stream-socket file descriptor.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }

  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  Socket(Socket&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
  Socket& operator=(Socket&& other) noexcept {
    if (this != &other) {
      close();
      fd_ = std::exchange(other.fd_, -1);
    }
    return *this;
  }

  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  [[nodiscard]] int fd() const noexcept { return fd_; }

  /// Write all of `data`; throws IoError on failure or peer close.
  void write_all(std::string_view data);

  /// Read exactly `n` bytes; throws IoError on failure or early EOF.
  [[nodiscard]] std::string read_exact(std::size_t n);

  /// Read up to `n` bytes; returns empty string on orderly EOF.
  [[nodiscard]] std::string read_some(std::size_t n);

  /// Single-call forms for event-loop code on a non-blocking socket:
  /// try_read_some returns nullopt when nothing is ready and an empty string
  /// on orderly EOF; try_write returns the bytes the kernel took, 0 when the
  /// send buffer is full. Both throw IoError on real failures. (On a
  /// blocking socket "not ready" means its SO_*TIMEO deadline expired.)
  [[nodiscard]] std::optional<std::string> try_read_some(std::size_t n);
  [[nodiscard]] std::size_t try_write(std::string_view data);

  /// Arm a per-read deadline (SO_RCVTIMEO): any single recv that makes no
  /// progress for `timeout` fails with IoTimeout. Zero clears the deadline.
  /// Applies to everything layered on this descriptor, including TLS reads.
  void set_read_timeout(std::chrono::milliseconds timeout);

  /// Arm a per-write deadline (SO_SNDTIMEO); zero clears it.
  void set_write_timeout(std::chrono::milliseconds timeout);

  /// Convenience: arm both deadlines at once.
  void set_deadlines(std::chrono::milliseconds read,
                     std::chrono::milliseconds write) {
    set_read_timeout(read);
    set_write_timeout(write);
  }

  /// Toggle O_NONBLOCK. The reactor path runs handshake and request reads
  /// non-blocking, then flips the socket back to blocking (with SO_*TIMEO
  /// deadlines) before handing it to a worker thread.
  void set_nonblocking(bool enabled);

  /// Shut down writing (sends FIN) without closing the descriptor.
  void shutdown_send() noexcept;

  /// Dotted-quad address of the connected peer ("127.0.0.1"); empty for
  /// non-INET sockets (e.g. socket_pair test transports). The pre-auth
  /// admission gate buckets by this string.
  [[nodiscard]] std::string peer_address() const;

  void close() noexcept;

  /// Release ownership of the descriptor.
  [[nodiscard]] int release() noexcept { return std::exchange(fd_, -1); }

 private:
  int fd_ = -1;
};

/// Connected AF_UNIX pair — in-process transport for tests and benchmarks.
[[nodiscard]] std::pair<Socket, Socket> socket_pair();

/// True when `address` parses as an IPv4 loopback address (127.0.0.0/8).
[[nodiscard]] bool is_loopback_address(std::string_view address);

/// Listening TCP socket on 127.0.0.1.
class TcpListener {
 public:
  /// Bind to 127.0.0.1:`port` (0 = ephemeral) and listen.
  static TcpListener bind(std::uint16_t port);

  /// Bind to `address`:`port` — the metrics endpoint's opt-in non-loopback
  /// form. Throws IoError on an unparseable address.
  static TcpListener bind(std::uint16_t port, std::string_view address);

  TcpListener(TcpListener&&) = default;
  TcpListener& operator=(TcpListener&&) = default;

  /// Port actually bound (resolves ephemeral ports).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Block until a client connects. Throws IoError if the listener was
  /// closed from another thread (the server-shutdown path).
  [[nodiscard]] Socket accept();

  /// Non-blocking accept (listener must be set_nonblocking(true)):
  /// nullopt when no connection is pending; connections aborted before
  /// accept are skipped. Throws IoError on real failures.
  [[nodiscard]] std::optional<Socket> try_accept();

  /// Toggle O_NONBLOCK on the listening descriptor (reactor accept path).
  void set_nonblocking(bool enabled);

  /// Listening descriptor, for event-loop registration.
  [[nodiscard]] int fd() const noexcept { return socket_.fd(); }

  /// Unblock any accept() blocked in another thread (shutdown, which is
  /// what interrupts accept() on Linux) and invalidate the listener. Note
  /// close() rewrites the fd and must not race a concurrent accept() call.
  void close() noexcept;

 private:
  TcpListener(Socket socket, std::uint16_t port)
      : socket_(std::move(socket)), port_(port) {}
  Socket socket_;
  std::uint16_t port_ = 0;
};

/// Connect to 127.0.0.1:`port` (the reproduction runs single-host; see
/// DESIGN.md substitutions). A non-zero `timeout` bounds the three-way
/// handshake: expiry raises IoTimeout instead of blocking indefinitely.
[[nodiscard]] Socket tcp_connect(
    std::uint16_t port, std::chrono::milliseconds timeout = {});

}  // namespace myproxy::net
