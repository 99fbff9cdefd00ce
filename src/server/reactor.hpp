// Event-driven connection front end for the MyProxy server.
//
// The reactor owns the phases of a connection that an attacker can make
// arbitrarily slow — accept, the TLS handshake, and reading the framed
// request — and runs them non-blocking on a small set of epoll event
// loops, so ten thousand idle or dribbling connections cost file
// descriptors and a few KB of state instead of pinned worker threads.
// Sheds happen here without blocking a loop: the pre-auth address gate and
// the connection cap refuse at accept time, before any TLS, and a full
// worker queue refuses at hand-off; each refusal is one non-blocking
// best-effort write. Once a complete request is in hand, the connection is
// handed to the ThreadPool, whose worker flips the socket back to blocking
// (with the per-request SO_*TIMEO deadlines) and runs everything
// crypto-heavy — GSI chain verification, keygen, proxy signing — and the
// long-lived REPLICA_SYNC streams.
//
// Deadlines are event-loop timers here (one per connection): the
// handshake_timeout budget covers accept → handshake completion, and the
// request_timeout budget covers reading the request. A fired timer closes
// the connection and counts a ServerStats timeout.
//
// Loop 0 also runs the server's housekeeping: the plaintext /metrics scrape
// (read the request head, render, write, close, all under one deadline)
// and the periodic timers registered with every().
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <string_view>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "net/event_loop.hpp"
#include "net/socket.hpp"
#include "tls/tls_channel.hpp"

namespace myproxy::server {

class MyProxyServer;

class Reactor {
 public:
  /// `threads` event loops; loop 0 additionally owns the (non-blocking)
  /// listener and, when non-null, the /metrics listener. The listeners and
  /// server must outlive the reactor.
  Reactor(MyProxyServer& server, net::TcpListener& listener,
          net::TcpListener* metrics_listener, std::size_t threads);
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Run `tick` on loop 0 every `period`, the first time `period` after
  /// this call. Call before start(); a tick must not block the loop.
  void every(Millis period, std::function<void()> tick);

  void start();
  void stop();

 private:
  /// Per-connection state machine: handshake → read request → hand off.
  struct Connection;
  /// One /metrics scrape on loop 0: read head → write response → close.
  struct Scrape;

  void on_accept_ready();
  void begin_connection(std::size_t loop_index, net::Socket socket);

  /// Replace the connection's deadline timer with one for `phase` that
  /// fires after `budget` (zero: no deadline).
  void arm_deadline(const std::shared_ptr<Connection>& conn, Millis budget,
                    std::string_view phase);

  /// Drive the connection as far as readiness allows, then re-arm epoll
  /// interest for whatever the TLS layer wants next.
  void advance(const std::shared_ptr<Connection>& conn);

  /// Remove the connection from its loop (deregister fd, cancel timer).
  /// The in-flight slot is released by ~Connection unless the connection
  /// was handed off to a worker.
  void detach(const std::shared_ptr<Connection>& conn);

  void hand_off(const std::shared_ptr<Connection>& conn);

  void on_scrape_accept_ready();
  void advance_scrape(const std::shared_ptr<Scrape>& scrape);
  void end_scrape(const std::shared_ptr<Scrape>& scrape);

  MyProxyServer& server_;
  net::TcpListener& listener_;
  net::TcpListener* metrics_listener_;
  std::vector<std::unique_ptr<net::EventLoop>> loops_;
  std::vector<std::thread> threads_;
  std::size_t next_loop_ = 0;
};

}  // namespace myproxy::server
