// STORE_SCALE — the sharded/indexed credential store against the legacy
// flat layout, at repository population (100k records) and under
// concurrent clients.
//
// Phase A (concurrency): 8 client threads run the portal session pattern —
// put, two gets, and every 4th op a wallet list — against a pre-populated
// store. The flat store serializes everything behind one mutex and re-reads
// the whole directory per list; the sharded store stripes the locks and
// answers lists from its metadata index. Reported as ops/s per store and
// the throughput ratio.
//
// Phase B (scale): populate N records (default 100k; --quick shrinks
// everything) and sample per-op latency — put, get, list (p50/p90) — plus
// the expiry sweep and the startup index scan. The same measurements at
// N/10 give the scaling ratios: an indexed list/sweep is O(records-for-
// user)/O(expired), so the ratio stays far below the 10x a linear scan
// pays. The flat store is sampled at N for the direct comparison.
//
// Gates (full mode only; --quick is the ctest smoke and checks structure,
// not latency):
//   * phase A throughput ratio >= 4x
//   * sharded sweep time ratio (N vs N/10, same expired count) <= 5x
//   * sharded list p50 ratio (N vs N/10, same wallet size) <= 3x
//
// Usage: bench_store_scale [--quick] --out FILE [--records N]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "crypto/random.hpp"
#include "repository/credential_store.hpp"

namespace {

using namespace myproxy;         // NOLINT(google-build-using-namespace)
using namespace myproxy::bench;  // NOLINT(google-build-using-namespace)
namespace fs = std::filesystem;

constexpr int kThreads = 8;
constexpr int kWalletSlots = 4;  ///< records per user in the population

struct Series {
  std::vector<double> us;

  void add(std::chrono::steady_clock::duration d) {
    us.push_back(std::chrono::duration<double, std::micro>(d).count());
  }
  [[nodiscard]] double percentile(double p) const {
    std::vector<double> sorted = us;
    std::sort(sorted.begin(), sorted.end());
    const auto rank = static_cast<std::size_t>(
        p * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[std::min(rank, sorted.size() - 1)];
  }
};

repository::CredentialRecord make_record(std::string username,
                                         std::string name,
                                         Seconds ttl = Seconds(7 * 24 *
                                                               3600)) {
  repository::CredentialRecord record;
  record.username = std::move(username);
  record.name = std::move(name);
  record.owner_dn = "/O=Grid/CN=" + record.username;
  record.blob.assign(256, 0x42);  // a small sealed-credential stand-in
  record.created_at = now();
  record.not_after = now() + ttl;
  return record;
}

/// `count` records as users of `kWalletSlots` slots each.
void populate(repository::CredentialStore& store, std::size_t count,
              const std::string& prefix) {
  for (std::size_t i = 0; i < count; ++i) {
    store.put(make_record(prefix + std::to_string(i / kWalletSlots),
                          "slot" + std::to_string(i % kWalletSlots)));
  }
}

/// Phase A workload: portal sessions against `store`. Returns ops/s.
double mixed_throughput(repository::CredentialStore& store,
                        std::size_t population_users,
                        std::size_t ops_per_thread) {
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, population_users, ops_per_thread, t] {
      for (std::size_t i = 0; i < ops_per_thread; ++i) {
        const std::string user =
            "mix" + std::to_string(t) + "-" + std::to_string(i);
        store.put(make_record(user, "slot0"));
        benchmark::DoNotOptimize(store.get(user, "slot0"));
        // Cross-user read: land on an arbitrary populated user's shard.
        benchmark::DoNotOptimize(store.get(
            "u" + std::to_string((t * 7919 + i) % population_users),
            "slot0"));
        if (i % 4 == 0) {
          benchmark::DoNotOptimize(store.list(user));
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  // put + 2 gets per op, plus a list every 4th.
  const double ops =
      static_cast<double>(kThreads * ops_per_thread) * 3.25;
  return ops / elapsed.count();
}

struct OpLatencies {
  Series put;
  Series get;
  Series list;
  std::vector<double> sweep_ms;
};

/// Phase B sampling against a store populated with `users` users.
OpLatencies sample_ops(repository::CredentialStore& store, std::size_t users,
                       std::size_t samples, std::size_t sweep_samples,
                       std::size_t expired_per_sweep) {
  OpLatencies out;
  for (std::size_t i = 0; i < samples; ++i) {
    const std::string user = "u" + std::to_string((i * 7919) % users);
    {
      const auto start = std::chrono::steady_clock::now();
      store.put(make_record(user, "slot0"));
      out.put.add(std::chrono::steady_clock::now() - start);
    }
    {
      const auto start = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(store.get(user, "slot1"));
      out.get.add(std::chrono::steady_clock::now() - start);
    }
    {
      const auto start = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(store.list(user));
      out.list.add(std::chrono::steady_clock::now() - start);
    }
  }
  for (std::size_t round = 0; round < sweep_samples; ++round) {
    // Same expired workload each round, so sweep samples are comparable
    // across population sizes: insert the batch, then time its removal.
    for (std::size_t i = 0; i < expired_per_sweep; ++i) {
      store.put(make_record("doomed" + std::to_string(i), "slot0",
                            Seconds(-10)));
    }
    const auto start = std::chrono::steady_clock::now();
    const std::size_t swept = store.sweep_expired();
    const auto elapsed = std::chrono::steady_clock::now() - start;
    out.sweep_ms.push_back(
        std::chrono::duration<double, std::milli>(elapsed).count());
    if (swept < expired_per_sweep) {
      std::fprintf(stderr, "FAIL: sweep removed %zu of %zu expired\n", swept,
                   expired_per_sweep);
      std::exit(1);
    }
  }
  return out;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

void emit_latencies(std::ostream& out, const char* name,
                    const OpLatencies& l) {
  out << "  \"" << name << "\": {"
      << "\"put_p50_us\": " << l.put.percentile(0.50)
      << ", \"put_p90_us\": " << l.put.percentile(0.90)
      << ", \"get_p50_us\": " << l.get.percentile(0.50)
      << ", \"get_p90_us\": " << l.get.percentile(0.90)
      << ", \"list_p50_us\": " << l.list.percentile(0.50)
      << ", \"list_p90_us\": " << l.list.percentile(0.90)
      << ", \"sweep_median_ms\": " << median(l.sweep_ms) << "},\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path;
  std::size_t records = 100000;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
      records = 2000;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--records" && i + 1 < argc) {
      records = static_cast<std::size_t>(std::stoul(argv[++i]));
    } else {
      out_path.clear();
      break;
    }
  }
  if (out_path.empty()) {
    std::fprintf(stderr,
                 "usage: bench_store_scale [--quick] --out FILE "
                 "[--records N]\n");
    return 2;
  }

  quiet_logs();
  const fs::path root = fs::temp_directory_path() /
                        ("myproxy-bench-store-" + crypto::random_hex(6));
  fs::create_directories(root);

  // --- Phase A: concurrent mixed workload, flat vs sharded ------------------
  const std::size_t mix_population = quick ? 200 : 5000;
  const std::size_t mix_users = mix_population / kWalletSlots;
  const std::size_t ops_per_thread = quick ? 8 : 64;

  double flat_ops_s = 0;
  double sharded_ops_s = 0;
  {
    repository::FlatFileCredentialStore flat(root / "mix-flat");
    populate(flat, mix_population, "u");
    flat_ops_s = mixed_throughput(flat, mix_users, ops_per_thread);
  }
  {
    repository::FileCredentialStore sharded(root / "mix-sharded");
    populate(sharded, mix_population, "u");
    sharded_ops_s = mixed_throughput(sharded, mix_users, ops_per_thread);
  }
  const double speedup = sharded_ops_s / flat_ops_s;
  std::printf("phase A (8 threads, %zu-record store): flat %.0f ops/s | "
              "sharded %.0f ops/s | %.1fx\n",
              mix_population, flat_ops_s, sharded_ops_s, speedup);

  // --- Phase B: per-op latency at scale -------------------------------------
  const std::size_t big = records;
  const std::size_t small = std::max<std::size_t>(records / 10, 100);
  const std::size_t samples = quick ? 30 : 200;
  const std::size_t sweep_samples = quick ? 2 : 3;
  const std::size_t expired_per_sweep = quick ? 50 : 500;
  const std::size_t flat_samples = quick ? 5 : 10;

  OpLatencies sharded_big;
  OpLatencies sharded_small;
  OpLatencies flat_big;
  double scan_ms = 0;
  std::size_t scan_indexed = 0;

  {
    repository::FileCredentialStore store(root / "scale-big");
    populate(store, big, "u");
    sharded_big =
        sample_ops(store, big / kWalletSlots, samples, sweep_samples,
                   expired_per_sweep);
  }
  {
    // Reopen the big store: the parallel startup index scan at population.
    const auto start = std::chrono::steady_clock::now();
    repository::FileCredentialStore store(root / "scale-big");
    scan_ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - start)
                  .count();
    scan_indexed = store.scan_report().indexed;
  }
  {
    repository::FileCredentialStore store(root / "scale-small");
    populate(store, small, "u");
    sharded_small =
        sample_ops(store, small / kWalletSlots, samples, sweep_samples,
                   expired_per_sweep);
  }
  {
    repository::FlatFileCredentialStore store(root / "scale-flat");
    // The flat baseline pays O(population) per list/sweep; sample it at the
    // full population but with few samples so the run stays bounded.
    populate(store, quick ? small : big, "u");
    flat_big = sample_ops(store, (quick ? small : big) / kWalletSlots,
                          flat_samples, /*sweep_samples=*/1,
                          expired_per_sweep);
  }
  fs::remove_all(root);

  const double sweep_ratio =
      median(sharded_big.sweep_ms) / median(sharded_small.sweep_ms);
  const double list_ratio = sharded_big.list.percentile(0.50) /
                            sharded_small.list.percentile(0.50);
  std::printf("phase B (%zu records): sharded list p50 %.1f us (ratio vs "
              "%zu: %.2fx) | sweep %.2f ms (ratio %.2fx) | scan %.0f ms\n",
              big, sharded_big.list.percentile(0.50), small, list_ratio,
              median(sharded_big.sweep_ms), sweep_ratio, scan_ms);
  std::printf("flat baseline: list p50 %.1f us | sweep %.2f ms\n",
              flat_big.list.percentile(0.50), median(flat_big.sweep_ms));

  std::ostringstream json;
  json << "{\n"
       << "  \"benchmark\": \"bench_store_scale\",\n"
       << "  \"mode\": \"" << (quick ? "quick" : "full") << "\",\n"
       << "  \"records\": " << big << ",\n"
       << "  \"threads\": " << kThreads << ",\n"
       << "  \"wallet_slots\": " << kWalletSlots << ",\n"
       << "  \"mixed\": {\"population\": " << mix_population
       << ", \"flat_ops_s\": " << flat_ops_s
       << ", \"sharded_ops_s\": " << sharded_ops_s
       << ", \"speedup\": " << speedup << "},\n";
  emit_latencies(json, "sharded_at_n", sharded_big);
  emit_latencies(json, "sharded_at_n_over_10", sharded_small);
  emit_latencies(json, "flat_at_n", flat_big);
  json << "  \"scaling\": {\"list_p50_ratio\": " << list_ratio
       << ", \"sweep_ratio\": " << sweep_ratio
       << ", \"linear_would_be\": " << static_cast<double>(big) /
              static_cast<double>(small)
       << "},\n"
       << "  \"startup_scan\": {\"ms\": " << scan_ms
       << ", \"indexed\": " << scan_indexed << "}\n"
       << "}\n";

  std::ofstream out(out_path);
  out << json.str();
  out.close();
  std::printf("wrote %s\n", out_path.c_str());

  bool ok = true;
  if (scan_indexed == 0) {
    std::fprintf(stderr, "FAIL: startup scan indexed nothing\n");
    ok = false;
  }
  if (!(speedup > 0) || !(sharded_ops_s > 0)) {
    std::fprintf(stderr, "FAIL: no throughput recorded\n");
    ok = false;
  }
  if (!quick) {
    if (speedup < 4.0) {
      std::fprintf(stderr, "FAIL: mixed-workload speedup %.2fx < 4x\n",
                   speedup);
      ok = false;
    }
    if (sweep_ratio > 5.0) {
      std::fprintf(stderr,
                   "FAIL: sweep time ratio %.2fx > 5x (not sublinear)\n",
                   sweep_ratio);
      ok = false;
    }
    if (list_ratio > 3.0) {
      std::fprintf(stderr,
                   "FAIL: list p50 ratio %.2fx > 3x (not sublinear)\n",
                   list_ratio);
      ok = false;
    }
  }
  return ok ? 0 : 1;
}
