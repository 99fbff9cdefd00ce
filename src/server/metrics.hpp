// Live metrics for the repository server: lock-free latency histograms,
// their Prometheus text rendering, and the plaintext /metrics scrape served
// on the front end's loop 0. MyProxyServer::start() refuses a non-loopback
// bind unless metrics_bind_any is set, since the scrape carries no
// credentials and the counters leak operational shape.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "net/event_loop.hpp"
#include "net/socket.hpp"

namespace myproxy::server {

/// Fixed log2-scale latency histogram over microsecond samples.
///
/// record() is lock-free and runs on every request: samples land in one of
/// kShards cache-line-sized shards of relaxed atomics (shard picked per
/// thread), so concurrent workers never contend on a counter line.
/// snapshot() sums the shards — a scrape-time cost, not a request-time one.
class LatencyHistogram {
 public:
  /// Buckets are upper bounds 2^0..2^26 µs (1 µs .. ~67 s) plus overflow.
  static constexpr std::size_t kBuckets = 28;

  LatencyHistogram() = default;
  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  void record(std::uint64_t us) noexcept;

  struct Snapshot {
    std::array<std::uint64_t, kBuckets> counts{};  ///< per-bucket (not cumulative)
    std::uint64_t total = 0;
    std::uint64_t sum_us = 0;
  };
  [[nodiscard]] Snapshot snapshot() const noexcept;

  /// Upper bound of bucket `index` in µs; the last bucket is unbounded
  /// (rendered as +Inf).
  [[nodiscard]] static std::uint64_t bucket_upper_us(
      std::size_t index) noexcept {
    return std::uint64_t{1} << index;
  }

  /// Bucket index for a sample (exposed for tests of the boundary math).
  [[nodiscard]] static std::size_t bucket_index(std::uint64_t us) noexcept;

 private:
  static constexpr std::size_t kShards = 8;
  struct alignas(64) Shard {
    std::array<std::atomic<std::uint64_t>, kBuckets> counts{};
    std::atomic<std::uint64_t> sum_us{0};
  };
  std::array<Shard, kShards> shards_;
};

/// Render one histogram in Prometheus text format under `name`, with an
/// optional `{label}` selector (e.g. op="GET") applied to every line.
void append_histogram(std::string& out, std::string_view name,
                      std::string_view label,
                      const LatencyHistogram::Snapshot& snapshot);

/// Answer plaintext scrapes of `listener` on `loop`: each connection's
/// request head is read, answered with `render()` for GET /metrics (404 or
/// 405 otherwise) and closed, all non-blocking under one 2 s deadline, so a
/// scraper that dribbles its request or stops reading costs only its own
/// connection. Call before the loop runs or on its thread; `listener` must
/// outlive the loop.
void serve_metrics(net::EventLoop& loop, net::TcpListener& listener,
                   std::function<std::string()> render);

}  // namespace myproxy::server
