// The event-driven TLS front end of every service that accepts TLS: the
// MyProxy server, the Grid portal's HTTPS side and the Grid resource service.
//
// The reactor runs the phases of a connection an attacker can make slow —
// accept, the TLS handshake, reading the first framed message — non-blocking
// on a few epoll loops, so idle or dribbling connections cost descriptors,
// not pinned workers. Each phase runs under a loop timer (the handshake
// budget, then the request budget). The reactor owns the in-flight slot
// count and every shed: the owner's pre-TLS gate and the connection cap
// refuse at accept, and a full worker queue refuses at hand-off, each with
// one non-blocking write of the owner's busy reply. Then a pool worker makes
// the socket blocking under the request deadlines and runs the owner's
// serve callback, which does the crypto and any further exchanges.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "common/thread_pool.hpp"
#include "net/event_loop.hpp"
#include "net/socket.hpp"
#include "tls/tls_channel.hpp"

namespace myproxy::tls {

/// Defaults every front end starts from: the handshake and first-message
/// deadlines and the cap on connections in flight (queued + being served).
inline constexpr Millis kDefaultHandshakeTimeout{10000};
inline constexpr Millis kDefaultRequestTimeout{30000};
inline constexpr std::size_t kDefaultMaxConnections = 256;

/// Connection counters a reactor keeps on its owner's behalf.
struct ReactorStats {
  std::atomic<std::uint64_t> connections{0};      ///< admitted at accept
  std::atomic<std::uint64_t> protocol_errors{0};  ///< garbage, torn, aborted
  std::atomic<std::uint64_t> timeouts{0};         ///< reaped by deadline
  std::atomic<std::uint64_t> shed_connections{0};  ///< refused at the cap
  std::atomic<std::uint64_t> peak_in_flight{0};   ///< high-water slot gauge
};

/// Why the owner's pre-TLS gate refused a connection, and the plaintext
/// frame to tell the peer.
struct Refusal {
  std::string_view reason;  ///< log detail
  std::string reply;
};

struct ReactorOptions {
  /// Event loops; loop 0 owns the listener and accepted connections are
  /// distributed round-robin.
  std::size_t loops = 1;

  /// Zero disables a deadline; zero max_connections means no cap. The
  /// request deadline also becomes the worker's per-read/per-write budget.
  Millis handshake_timeout = kDefaultHandshakeTimeout;
  Millis request_timeout = kDefaultRequestTimeout;
  std::size_t max_connections = kDefaultMaxConnections;

  /// Framed refusal: written in plaintext at the cap (before TLS), and
  /// over TLS when the worker queue is full.
  std::string busy_reply;

  /// Consulted on loop 0 right after accept, before the cap; a Refusal
  /// sheds the connection with its reply. Must not block.
  std::function<std::optional<Refusal>(const net::Socket&)> gate;
};

class Reactor {
 public:
  /// Runs on a pool worker with the socket blocking and the request
  /// deadlines armed; an IoTimeout or other exception it throws is counted
  /// and closes the connection.
  using Serve = std::function<void(TlsChannel& channel,
                                   std::string_view first_message)>;

  /// The context, listener, pool and stats must outlive the reactor.
  Reactor(const TlsContext& context, net::TcpListener& listener,
          ThreadPool& pool, ReactorStats& stats, ReactorOptions options,
          Serve serve);
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Loop 0, which also owns the listener. Register descriptors and timers
  /// on it before start(), or from its own callbacks afterwards; they are
  /// dropped at stop().
  [[nodiscard]] net::EventLoop& housekeeping_loop() { return *loops_[0]; }

  void start();

  /// Stop and join the loops, dropping every connection not yet handed
  /// off, then wait for the pool to finish the ones that were. Idempotent.
  void stop();

  /// Connections holding a slot (gauge).
  [[nodiscard]] std::size_t in_flight() const {
    return in_flight_.load(std::memory_order_relaxed);
  }

 private:
  /// Per-connection state: handshake → first message → hand-off.
  struct Connection;

  /// An in-flight slot, released when its last copy goes: it travels with
  /// the socket to its loop, the connection and the worker task, so every
  /// exit path releases it exactly once.
  using Slot = std::shared_ptr<Reactor>;

  void on_accept_ready();
  void begin_connection(std::size_t loop_index, net::Socket socket,
                        Slot slot);

  /// Null when the cap refuses. One fetch_add claims a slot and an over-cap
  /// claim is rolled back (a load-then-add pair would let a burst of
  /// accepts race past the cap).
  [[nodiscard]] Slot reserve_slot();

  /// Before any TLS: one non-blocking write of `reply` as a plaintext
  /// frame, then close.
  void shed(net::Socket socket, std::string_view reason,
            std::string_view reply);

  /// Replace the connection's deadline timer (zero budget: none).
  void arm_deadline(const std::shared_ptr<Connection>& conn, Millis budget,
                    std::string_view phase);

  /// Drive the connection as far as readiness allows, then re-arm epoll
  /// interest for whatever the TLS layer wants next.
  void advance(const std::shared_ptr<Connection>& conn);

  /// Deregister the fd and cancel the timer.
  void detach(const std::shared_ptr<Connection>& conn);

  void hand_off(const std::shared_ptr<Connection>& conn);
  void serve_on_worker(TlsChannel& channel, std::string_view first_message);

  const TlsContext& context_;
  net::TcpListener& listener_;
  ThreadPool& pool_;
  ReactorStats& stats_;
  const ReactorOptions options_;
  const Serve serve_;
  std::vector<std::unique_ptr<net::EventLoop>> loops_;
  std::vector<std::thread> threads_;
  std::size_t next_loop_ = 0;
  std::atomic<std::size_t> in_flight_{0};
  bool stopped_ = false;
};

}  // namespace myproxy::tls
