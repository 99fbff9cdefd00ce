#include "tls/reactor.hpp"

#include "common/error.hpp"
#include "common/logging.hpp"
#include "net/channel.hpp"

namespace myproxy::tls {

namespace {

constexpr std::string_view kLogComponent = "reactor";

}  // namespace

struct Reactor::Connection {
  Slot slot;
  std::size_t loop_index = 0;
  std::unique_ptr<TlsChannel> channel;
  std::string request;

  bool handshake_done = false;
  bool registered = false;  ///< with the loop
  /// Cancelling a timer that already fired is a no-op.
  net::EventLoop::TimerId deadline_timer = 0;
};

Reactor::Reactor(const TlsContext& context, net::TcpListener& listener,
                 ThreadPool& pool, ReactorStats& stats,
                 ReactorOptions options, Serve serve)
    : context_(context), listener_(listener), pool_(pool), stats_(stats),
      options_(std::move(options)), serve_(std::move(serve)) {
  const std::size_t count = options_.loops == 0 ? 1 : options_.loops;
  for (std::size_t i = 0; i < count; ++i) {
    loops_.push_back(std::make_unique<net::EventLoop>());
  }
}

Reactor::~Reactor() { stop(); }

void Reactor::start() {
  listener_.set_nonblocking(true);
  loops_[0]->add_fd(listener_.fd(), net::EventLoop::kRead,
                    [this](std::uint32_t) { on_accept_ready(); });
  for (auto& loop : loops_) {
    threads_.emplace_back([raw = loop.get()] { raw->run(); });
  }
  log::info(kLogComponent, "reactor running with {} event loop(s)",
            loops_.size());
}

void Reactor::stop() {
  if (stopped_) return;
  stopped_ = true;
  for (auto& loop : loops_) loop->stop();
  for (auto& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
  threads_.clear();
  // Destroying the loops drops every callback, timer and posted task, which
  // drops the last references to connections still on them: sockets close
  // and their slots release.
  loops_.clear();
  // Handed-off connections run on the pool and call back into this object.
  pool_.wait_idle();
}

Reactor::Slot Reactor::reserve_slot() {
  const std::size_t current =
      in_flight_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (options_.max_connections != 0 && current > options_.max_connections) {
    in_flight_.fetch_sub(1, std::memory_order_relaxed);
    return nullptr;
  }
  std::uint64_t peak = stats_.peak_in_flight.load(std::memory_order_relaxed);
  while (current > peak &&
         !stats_.peak_in_flight.compare_exchange_weak(
             peak, current, std::memory_order_relaxed)) {
  }
  return Slot(this, [](Reactor* reactor) {
    reactor->in_flight_.fetch_sub(1, std::memory_order_relaxed);
  });
}

void Reactor::shed(net::Socket socket, std::string_view reason,
                   std::string_view reply) {
  stats_.shed_connections.fetch_add(1, std::memory_order_relaxed);
  log::warn(kLogComponent, "shedding connection: {}", reason);
  try {
    // Best-effort courtesy note, one non-blocking write; TLS clients see the
    // connection closed before the handshake, which they retry.
    socket.set_nonblocking(true);
    net::PlainChannel channel(std::move(socket));
    channel.send(reply);
    channel.close();
  } catch (const std::exception&) {
    // Shedding is advisory; failure to notify the peer is acceptable.
  }
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
    if (options_.gate) {
      if (auto refusal = options_.gate(*socket)) {
        shed(std::move(*socket), refusal->reason, refusal->reply);
        continue;
      }
    }
    Slot slot = reserve_slot();
    if (slot == nullptr) {
      shed(std::move(*socket), "connection limit reached",
           options_.busy_reply);
      continue;
    }
    stats_.connections.fetch_add(1, std::memory_order_relaxed);
    const std::size_t target = next_loop_;
    next_loop_ = (next_loop_ + 1) % loops_.size();
    if (target == 0) {
      begin_connection(0, std::move(*socket), std::move(slot));
    } else {
      auto shared = std::make_shared<net::Socket>(std::move(*socket));
      loops_[target]->post([this, target, shared, slot]() mutable {
        begin_connection(target, std::move(*shared), std::move(slot));
      });
    }
  }
}

void Reactor::begin_connection(std::size_t loop_index, net::Socket socket,
                               Slot slot) {
  auto conn = std::make_shared<Connection>();
  conn->slot = std::move(slot);
  conn->loop_index = loop_index;
  try {
    socket.set_nonblocking(true);
    conn->channel = TlsChannel::accept_async(context_, std::move(socket));
  } catch (const std::exception& e) {
    stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
    log::warn(kLogComponent, "connection setup failed: {}", e.what());
    return;
  }
  arm_deadline(conn, options_.handshake_timeout, "TLS handshake");
  advance(conn);
}

void Reactor::arm_deadline(const std::shared_ptr<Connection>& conn,
                           Millis budget, std::string_view phase) {
  auto& loop = *loops_[conn->loop_index];
  loop.cancel_timer(conn->deadline_timer);
  if (budget.count() <= 0) return;
  conn->deadline_timer = loop.add_timer(budget, [this, conn, phase] {
    stats_.timeouts.fetch_add(1, std::memory_order_relaxed);
    log::warn(kLogComponent, "connection timed out: {} deadline expired",
              phase);
    detach(conn);
  });
}

void Reactor::advance(const std::shared_ptr<Connection>& conn) {
  auto& loop = *loops_[conn->loop_index];
  try {
    while (true) {
      IoWant want;
      if (!conn->handshake_done) {
        want = conn->channel->handshake_step();
        if (want == IoWant::kDone) {
          conn->handshake_done = true;
          // Handshake done: swap the handshake budget for the per-request
          // budget.
          arm_deadline(conn, options_.request_timeout, "request");
          continue;
        }
      } else {
        want = conn->channel->receive_step(conn->request);
        if (want == IoWant::kDone) {
          hand_off(conn);
          return;
        }
      }
      const std::uint32_t interest = want == IoWant::kRead
                                         ? net::EventLoop::kRead
                                         : net::EventLoop::kWrite;
      if (conn->registered) {
        loop.mod_fd(conn->channel->fd(), interest);
      } else {
        loop.add_fd(conn->channel->fd(), interest,
                    [this, conn](std::uint32_t) { advance(conn); });
        conn->registered = true;
      }
      return;
    }
  } catch (const std::exception& e) {
    // Garbage instead of TLS, a torn connection, or an oversized frame:
    // count and drop.
    stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
    log::warn(kLogComponent, "connection aborted: {}", e.what());
    detach(conn);
  }
}

void Reactor::detach(const std::shared_ptr<Connection>& conn) {
  // The channel still owns its fd, so no other registration can hold that
  // number: deleting an unregistered fd is a no-op.
  auto& loop = *loops_[conn->loop_index];
  loop.del_fd(conn->channel->fd());
  loop.cancel_timer(conn->deadline_timer);
}

void Reactor::hand_off(const std::shared_ptr<Connection>& conn) {
  detach(conn);
  std::shared_ptr<TlsChannel> channel(std::move(conn->channel));
  const bool queued = pool_.submit([this, channel, slot = std::move(conn->slot),
                                    request = std::move(conn->request)] {
    serve_on_worker(*channel, request);
  });
  if (!queued) {
    stats_.shed_connections.fetch_add(1, std::memory_order_relaxed);
    log::warn(kLogComponent, "shedding connection: worker queue full");
    try {
      // The handshake is complete here, so the busy note travels framed
      // over TLS: one best-effort write on the still non-blocking socket.
      channel->send(options_.busy_reply);
    } catch (const std::exception&) {
      // Shedding is advisory; failure to notify the peer is acceptable.
    }
    channel->close();
  }
}

void Reactor::serve_on_worker(TlsChannel& channel,
                              std::string_view first_message) {
  try {
    // The event loop enforced the handshake/request deadlines with timers;
    // from here the worker uses blocking I/O under the per-request budget.
    channel.make_blocking();
    channel.set_deadlines(options_.request_timeout, options_.request_timeout);
    serve_(channel, first_message);
  } catch (const IoTimeout& e) {
    // Slow, silent, or stalled peer: the deadline fired and the worker is
    // free again. This is the DoS-resilience path, not a service bug.
    stats_.timeouts.fetch_add(1, std::memory_order_relaxed);
    log::warn(kLogComponent, "connection timed out: {}", e.what());
  } catch (const std::exception& e) {
    stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
    log::warn(kLogComponent, "connection aborted: {}", e.what());
  }
}

}  // namespace myproxy::tls
