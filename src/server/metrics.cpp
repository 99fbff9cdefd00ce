#include "server/metrics.hpp"

#include <algorithm>
#include <bit>
#include <memory>

#include "common/clock.hpp"
#include "common/error.hpp"
#include "common/format.hpp"
#include "common/logging.hpp"
#include "portal/http.hpp"

namespace myproxy::server {

namespace {

/// Per-thread shard assignment: round-robin at first use, so a pool of
/// workers spreads across shards instead of hashing onto the same line.
std::size_t shard_index(std::size_t shard_count) {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t assigned =
      next.fetch_add(1, std::memory_order_relaxed);
  return assigned % shard_count;
}

}  // namespace

// --- LatencyHistogram --------------------------------------------------------

std::size_t LatencyHistogram::bucket_index(std::uint64_t us) noexcept {
  // First bucket whose upper bound 2^i covers the sample:
  // ceil(log2(us)) == bit_width(us - 1), with us <= 1 landing in bucket 0.
  if (us <= 1) return 0;
  const std::size_t index =
      static_cast<std::size_t>(std::bit_width(us - 1));
  return std::min(index, kBuckets - 1);
}

void LatencyHistogram::record(std::uint64_t us) noexcept {
  Shard& shard = shards_[shard_index(kShards)];
  shard.counts[bucket_index(us)].fetch_add(1, std::memory_order_relaxed);
  shard.sum_us.fetch_add(us, std::memory_order_relaxed);
}

LatencyHistogram::Snapshot LatencyHistogram::snapshot() const noexcept {
  Snapshot out;
  for (const Shard& shard : shards_) {
    for (std::size_t i = 0; i < kBuckets; ++i) {
      out.counts[i] += shard.counts[i].load(std::memory_order_relaxed);
    }
    out.sum_us += shard.sum_us.load(std::memory_order_relaxed);
  }
  for (const std::uint64_t count : out.counts) out.total += count;
  return out;
}

void append_histogram(std::string& out, std::string_view name,
                      std::string_view label,
                      const LatencyHistogram::Snapshot& snapshot) {
  const auto braced = [&label](std::string_view extra) {
    if (label.empty()) return fmt::format("{{{}}}", extra);
    return fmt::format("{{{},{}}}", label, extra);
  };
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
    cumulative += snapshot.counts[i];
    if (i + 1 == LatencyHistogram::kBuckets) break;  // +Inf rendered below
    out += fmt::format(
        "{}_bucket{} {}\n", name,
        braced(fmt::format("le=\"{}\"", LatencyHistogram::bucket_upper_us(i))),
        cumulative);
  }
  out += fmt::format("{}_bucket{} {}\n", name, braced("le=\"+Inf\""),
                     snapshot.total);
  const std::string selector =
      label.empty() ? std::string() : fmt::format("{{{}}}", label);
  out += fmt::format("{}_sum{} {}\n", name, selector, snapshot.sum_us);
  out += fmt::format("{}_count{} {}\n", name, selector, snapshot.total);
}

// --- The /metrics scrape ----------------------------------------------------

namespace {

constexpr std::string_view kScrapeLog = "metrics";

/// Whole-connection budget for one scrape, accept to last byte written.
constexpr Millis kScrapeDeadline{2000};

/// A scrape is a GET with no body, so the request ends at the header
/// terminator; a longer head is dropped.
constexpr std::size_t kMaxScrapeRequest = 8192;

using Render = std::function<std::string()>;

/// The serialized HTTP answer to one complete scrape request head.
std::string scrape_response(std::string_view raw, const Render& render) {
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
      response.body = render();
    }
  } catch (const Error&) {
    response = portal::HttpResponse::error(400, "Bad Request",
                                           "malformed request\n");
  }
  response.headers["connection"] = "close";
  return response.serialize();
}

/// One scrape: read head → write response → close.
struct Scrape {
  Scrape(net::EventLoop& loop, Render render, net::Socket socket)
      : loop(loop), render(std::move(render)), socket(std::move(socket)) {}

  net::EventLoop& loop;
  Render render;
  net::Socket socket;
  std::string request;
  std::string response;  ///< set once the request head is complete
  std::size_t written = 0;
  net::EventLoop::TimerId deadline_timer = 0;

  void end() {
    // The socket closes with the last reference, once the loop drops the
    // callbacks that hold it.
    loop.del_fd(socket.fd());
    loop.cancel_timer(deadline_timer);
  }

  void advance() {
    try {
      while (response.empty()) {
        const auto chunk = socket.try_read_some(1024);
        if (!chunk.has_value()) return;  // wait for more of the head
        if (chunk->empty()) throw IoError("scraper closed mid-request");
        request += *chunk;
        if (request.find("\r\n\r\n") != std::string::npos) {
          response = scrape_response(request, render);
          loop.mod_fd(socket.fd(), net::EventLoop::kWrite);
        } else if (request.size() > kMaxScrapeRequest) {
          throw ProtocolError("oversized metrics request");
        }
      }
      const std::string_view view(response);
      while (written < view.size()) {
        const std::size_t n = socket.try_write(view.substr(written));
        if (n == 0) return;  // send buffer full: wait for writability
        written += n;
      }
      socket.shutdown_send();
    } catch (const std::exception& e) {
      // A broken or hostile scraper costs only its own connection.
      log::warn(kScrapeLog, "scrape failed: {}", e.what());
    }
    end();
  }
};

}  // namespace

void serve_metrics(net::EventLoop& loop, net::TcpListener& listener,
                   Render render) {
  listener.set_nonblocking(true);
  const auto on_accept = [&loop, &listener, render](std::uint32_t) {
    try {
      while (auto socket = listener.try_accept()) {
        socket->set_nonblocking(true);
        auto scrape =
            std::make_shared<Scrape>(loop, render, std::move(*socket));
        loop.add_fd(scrape->socket.fd(), net::EventLoop::kRead,
                    [scrape](std::uint32_t) { scrape->advance(); });
        scrape->deadline_timer = loop.add_timer(kScrapeDeadline, [scrape] {
          log::warn(kScrapeLog, "scrape timed out: deadline expired");
          scrape->end();
        });
      }
    } catch (const std::exception& e) {
      // Level-triggered readiness brings any still-pending scrapers back.
      log::warn(kScrapeLog, "scrape accept failed: {}", e.what());
    }
  };
  loop.add_fd(listener.fd(), net::EventLoop::kRead, on_accept);
}

}  // namespace myproxy::server
