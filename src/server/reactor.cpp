#include "server/reactor.hpp"

#include "common/error.hpp"
#include "common/logging.hpp"
#include "net/socket.hpp"
#include "portal/http.hpp"
#include "protocol/message.hpp"
#include "server/myproxy_server.hpp"

namespace myproxy::server {

namespace {

constexpr std::string_view kLogComponent = "reactor";

/// Whole-connection budget for one /metrics scrape, accept to last byte
/// written: a scraper that dribbles its request or stops reading is closed.
constexpr Millis kScrapeDeadline{2000};

/// A scrape is a GET with no body, so the request ends at the header
/// terminator; a longer head is dropped.
constexpr std::size_t kMaxScrapeRequest = 8192;

/// The serialized HTTP answer to one complete scrape request head.
std::string scrape_response(std::string_view raw,
                            const MyProxyServer& server) {
  portal::HttpResponse response;
  try {
    const portal::HttpRequest request = portal::parse_request(raw);
    const std::string_view target(request.target);
    const bool is_metrics =
        target == "/metrics" || target.substr(0, 9) == "/metrics?";
    if (request.method != "GET") {
      response = portal::HttpResponse::error(405, "Method Not Allowed",
                                             "GET only\n");
    } else if (!is_metrics) {
      response =
          portal::HttpResponse::error(404, "Not Found", "try /metrics\n");
    } else {
      response.status = 200;
      response.reason = "OK";
      response.headers["content-type"] =
          "text/plain; version=0.0.4; charset=utf-8";
      response.body = server.render_metrics();
    }
  } catch (const Error&) {
    response = portal::HttpResponse::error(400, "Bad Request",
                                           "malformed request\n");
  }
  response.headers["connection"] = "close";
  return response.serialize();
}

}  // namespace

struct Reactor::Connection {
  MyProxyServer* server = nullptr;
  std::size_t loop_index = 0;
  std::unique_ptr<tls::TlsChannel> channel;
  std::string request;

  enum class State { kHandshake, kRequest };
  State state = State::kHandshake;

  net::EventLoop::TimerId deadline_timer = 0;
  bool timer_armed = false;
  std::uint32_t interest = 0;
  bool registered = false;

  /// Set when responsibility for the in-flight slot moved to a worker (or
  /// was released explicitly); otherwise the destructor releases it, so
  /// every admitted connection releases exactly once on every exit path.
  bool slot_transferred = false;

  ~Connection() {
    if (!slot_transferred && server != nullptr) {
      server->release_connection_slot();
    }
  }
};

struct Reactor::Scrape {
  net::Socket socket;
  std::string request;
  std::string response;  ///< set once the request head is complete
  std::size_t written = 0;
  net::EventLoop::TimerId deadline_timer = 0;
};

Reactor::Reactor(MyProxyServer& server, net::TcpListener& listener,
                 net::TcpListener* metrics_listener, std::size_t threads)
    : server_(server), listener_(listener),
      metrics_listener_(metrics_listener) {
  const std::size_t count = threads == 0 ? 1 : threads;
  for (std::size_t i = 0; i < count; ++i) {
    loops_.push_back(std::make_unique<net::EventLoop>());
  }
}

Reactor::~Reactor() { stop(); }

void Reactor::every(Millis period, std::function<void()> tick) {
  // Loop 0 re-arms from inside the fired callback, on its own thread.
  loops_[0]->add_timer(period, [this, period, tick = std::move(tick)] {
    tick();
    every(period, tick);
  });
}

void Reactor::start() {
  listener_.set_nonblocking(true);
  loops_[0]->add_fd(listener_.fd(), net::EventLoop::kRead,
                    [this](std::uint32_t) { on_accept_ready(); });
  if (metrics_listener_ != nullptr) {
    metrics_listener_->set_nonblocking(true);
    loops_[0]->add_fd(metrics_listener_->fd(), net::EventLoop::kRead,
                      [this](std::uint32_t) { on_scrape_accept_ready(); });
  }
  for (auto& loop : loops_) {
    threads_.emplace_back([raw = loop.get()] { raw->run(); });
  }
  log::info(kLogComponent, "reactor running with {} event loop(s)",
            loops_.size());
}

void Reactor::stop() {
  for (auto& loop : loops_) loop->stop();
  for (auto& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
  threads_.clear();
  // Destroying the loops drops every callback and timer, which drops the
  // last references to in-flight Connections: sockets close and their
  // slots release via ~Connection.
  loops_.clear();
}

void Reactor::on_accept_ready() {
  while (true) {
    std::optional<net::Socket> socket;
    try {
      socket = listener_.try_accept();
    } catch (const IoError&) {
      return;  // listener shut down
    }
    if (!socket.has_value()) return;
    // Pre-auth gate: per-peer-address token bucket, consulted before a
    // handshake or a worker is spent on the connection.
    const AdmissionDecision preauth =
        server_.admission_.admit_preauth(socket->peer_address());
    if (!preauth.admitted) {
      server_.shed_connection(std::move(*socket),
                              "pre-auth address rate limit",
                              busy_response(preauth.retry_after));
      continue;
    }
    if (!server_.reserve_connection_slot()) {
      server_.shed_connection(
          std::move(*socket), "connection limit reached",
          protocol::Response::make_error("server busy, try again"));
      continue;
    }
    server_.stats_.connections.fetch_add(1, std::memory_order_relaxed);
    const std::size_t target = next_loop_;
    next_loop_ = (next_loop_ + 1) % loops_.size();
    if (target == 0) {
      begin_connection(0, std::move(*socket));
    } else {
      auto shared = std::make_shared<net::Socket>(std::move(*socket));
      loops_[target]->post([this, target, shared]() mutable {
        begin_connection(target, std::move(*shared));
      });
    }
  }
}

void Reactor::begin_connection(std::size_t loop_index, net::Socket socket) {
  // The Connection owns the admission slot from here on (~Connection
  // releases it), so any failure below cannot leak the reservation.
  auto conn = std::make_shared<Connection>();
  conn->server = &server_;
  conn->loop_index = loop_index;
  try {
    socket.set_nonblocking(true);
    conn->channel =
        tls::TlsChannel::accept_async(server_.tls_context_, std::move(socket));
  } catch (const std::exception& e) {
    server_.stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
    log::warn(kLogComponent, "connection setup failed: {}", e.what());
    return;
  }
  arm_deadline(conn, server_.config_.handshake_timeout, "TLS handshake");
  advance(conn);
}

void Reactor::arm_deadline(const std::shared_ptr<Connection>& conn,
                           Millis budget, std::string_view phase) {
  auto& loop = *loops_[conn->loop_index];
  if (conn->timer_armed) {
    loop.cancel_timer(conn->deadline_timer);
    conn->timer_armed = false;
  }
  if (budget.count() <= 0) return;
  conn->deadline_timer = loop.add_timer(budget, [this, conn, phase] {
    conn->timer_armed = false;
    server_.stats_.timeouts.fetch_add(1, std::memory_order_relaxed);
    log::warn(kLogComponent, "connection timed out: {} deadline expired",
              phase);
    detach(conn);
  });
  conn->timer_armed = true;
}

void Reactor::advance(const std::shared_ptr<Connection>& conn) {
  auto& loop = *loops_[conn->loop_index];
  try {
    while (true) {
      tls::IoWant want;
      if (conn->state == Connection::State::kHandshake) {
        want = conn->channel->handshake_step();
        if (want == tls::IoWant::kDone) {
          conn->state = Connection::State::kRequest;
          // Handshake done: swap the handshake budget for the per-request
          // budget.
          arm_deadline(conn, server_.config_.request_timeout, "request");
          continue;
        }
      } else {
        want = conn->channel->receive_step(conn->request);
        if (want == tls::IoWant::kDone) {
          hand_off(conn);
          return;
        }
      }
      const std::uint32_t interest = want == tls::IoWant::kRead
                                         ? net::EventLoop::kRead
                                         : net::EventLoop::kWrite;
      if (!conn->registered) {
        loop.add_fd(conn->channel->fd(), interest,
                    [this, conn](std::uint32_t) { advance(conn); });
        conn->registered = true;
        conn->interest = interest;
      } else if (conn->interest != interest) {
        loop.mod_fd(conn->channel->fd(), interest);
        conn->interest = interest;
      }
      return;
    }
  } catch (const std::exception& e) {
    // Garbage instead of TLS, a torn connection, or an oversized frame:
    // count and drop.
    server_.stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
    log::warn(kLogComponent, "connection aborted: {}", e.what());
    detach(conn);
  }
}

void Reactor::detach(const std::shared_ptr<Connection>& conn) {
  auto& loop = *loops_[conn->loop_index];
  if (conn->registered) {
    loop.del_fd(conn->channel->fd());
    conn->registered = false;
  }
  if (conn->timer_armed) {
    loop.cancel_timer(conn->deadline_timer);
    conn->timer_armed = false;
  }
}

void Reactor::hand_off(const std::shared_ptr<Connection>& conn) {
  detach(conn);
  std::shared_ptr<tls::TlsChannel> channel(std::move(conn->channel));
  conn->slot_transferred = true;

  // The worker flips the socket to blocking (serve_accepted); the loop
  // only ever touches it non-blocking.
  const bool queued = server_.pool_->try_submit(
      [srv = &server_, channel, request = std::move(conn->request)]() mutable {
        srv->serve_accepted(std::move(channel), std::move(request));
        srv->release_connection_slot();
      });
  if (!queued) {
    server_.release_connection_slot();
    server_.stats_.shed_connections.fetch_add(1, std::memory_order_relaxed);
    log::warn(kLogComponent, "shedding connection: worker queue full");
    try {
      // The handshake is complete here, so the busy note travels framed
      // over TLS: one best-effort write on the still non-blocking socket.
      channel->send(protocol::Response::make_error("server busy, try again")
                        .serialize());
    } catch (const std::exception&) {
      // Shedding is advisory; failure to notify the peer is acceptable.
    }
    channel->close();
  }
}

void Reactor::on_scrape_accept_ready() {
  auto& loop = *loops_[0];
  try {
    while (auto socket = metrics_listener_->try_accept()) {
      auto scrape = std::make_shared<Scrape>();
      scrape->socket = std::move(*socket);
      scrape->socket.set_nonblocking(true);
      loop.add_fd(scrape->socket.fd(), net::EventLoop::kRead,
                  [this, scrape](std::uint32_t) { advance_scrape(scrape); });
      scrape->deadline_timer = loop.add_timer(kScrapeDeadline, [this, scrape] {
        log::warn(kLogComponent, "scrape timed out: deadline expired");
        end_scrape(scrape);
      });
    }
  } catch (const std::exception& e) {
    // Level-triggered readiness brings any still-pending scrapers back.
    log::warn(kLogComponent, "scrape accept failed: {}", e.what());
  }
}

void Reactor::advance_scrape(const std::shared_ptr<Scrape>& scrape) {
  try {
    while (scrape->response.empty()) {
      const auto chunk = scrape->socket.try_read_some(1024);
      if (!chunk.has_value()) return;  // wait for more of the head
      if (chunk->empty()) throw IoError("scraper closed mid-request");
      scrape->request += *chunk;
      if (scrape->request.find("\r\n\r\n") != std::string::npos) {
        scrape->response = scrape_response(scrape->request, server_);
        loops_[0]->mod_fd(scrape->socket.fd(), net::EventLoop::kWrite);
      } else if (scrape->request.size() > kMaxScrapeRequest) {
        throw ProtocolError("oversized metrics request");
      }
    }
    const std::string_view response(scrape->response);
    while (scrape->written < response.size()) {
      const std::size_t n =
          scrape->socket.try_write(response.substr(scrape->written));
      if (n == 0) return;  // send buffer full: wait for writability
      scrape->written += n;
    }
    scrape->socket.shutdown_send();
  } catch (const std::exception& e) {
    // A broken or hostile scraper costs only its own connection.
    log::warn(kLogComponent, "scrape failed: {}", e.what());
  }
  end_scrape(scrape);
}

void Reactor::end_scrape(const std::shared_ptr<Scrape>& scrape) {
  // The socket closes with the last reference, once the loop drops the
  // callbacks that hold it.
  loops_[0]->del_fd(scrape->socket.fd());
  loops_[0]->cancel_timer(scrape->deadline_timer);
}

}  // namespace myproxy::server
