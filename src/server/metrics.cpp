#include "server/metrics.hpp"

#include <algorithm>
#include <bit>

#include "common/format.hpp"

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

}  // namespace myproxy::server
