// Live metrics for the repository server: lock-free latency histograms and
// their Prometheus text rendering. The plaintext /metrics scrape itself is
// served on the reactor's loop 0 (reactor.hpp); MyProxyServer::start()
// refuses a non-loopback bind unless metrics_bind_any is set, since the
// scrape carries no credentials and the counters leak operational shape.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

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

}  // namespace myproxy::server
