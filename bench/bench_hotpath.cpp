// HOTPATH — the Figure 2 retrieval pipeline, before and after the fast
// path, recorded as the first point of the BENCH trajectory.
//
// Two series of `myproxy-get-delegation` against the production stack
// (FileCredentialStore behind the sharded read cache):
//
//   baseline — session resumption off, no key pool: every GET pays a full
//              TLS handshake plus a synchronous RSA-2048 keygen.
//   fastpath — session resumption on, warm pre-generation pool (refill
//              paused so pool CPU stays out of the measured window — the
//              steady-state behaviour on a multi-core host).
//
// Emits machine-readable JSON to the --out file with p50/p90
// per series, the speedup, and the pool / resumption / cache counters, and
// fails loudly when the fast path regresses:
//   * resumed handshakes must be > 0 (both modes)
//   * pool and cache hits must be > 0 (both modes)
//   * p50 speedup must be >= 2x (full mode only; --quick runs too few
//     iterations to gate on latency and is wired into ctest as a smoke)
//
// Usage: bench_hotpath [--quick] --out FILE
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "crypto/keypair_pool.hpp"
#include "crypto/random.hpp"
#include "repository/cached_store.hpp"

namespace {

using namespace myproxy;         // NOLINT(google-build-using-namespace)
using namespace myproxy::bench;  // NOLINT(google-build-using-namespace)

struct Series {
  std::vector<double> ms;

  [[nodiscard]] double percentile(double p) const {
    std::vector<double> sorted = ms;
    std::sort(sorted.begin(), sorted.end());
    const auto rank = static_cast<std::size_t>(
        p * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[std::min(rank, sorted.size() - 1)];
  }
  [[nodiscard]] double mean() const {
    double sum = 0;
    for (const double v : ms) sum += v;
    return sum / static_cast<double>(ms.size());
  }
};

/// Time `count` GETs through `client`, one fresh connection each.
Series measure_gets(client::MyProxyClient& client, std::size_t count,
                    const client::GetOptions& options) {
  Series series;
  series.ms.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto start = std::chrono::steady_clock::now();
    const gsi::Credential delegated =
        client.get("hotpath-alice", kPhrase, options);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    benchmark::DoNotOptimize(delegated);
    series.ms.push_back(
        std::chrono::duration<double, std::milli>(elapsed).count());
  }
  return series;
}

void emit_series(std::ostream& out, const char* name, const Series& s) {
  out << "  \"" << name << "\": {\"p50_ms\": " << s.percentile(0.50)
      << ", \"p90_ms\": " << s.percentile(0.90)
      << ", \"mean_ms\": " << s.mean() << "},\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      out_path.clear();
      break;
    }
  }
  if (out_path.empty()) {
    std::fprintf(stderr, "usage: bench_hotpath [--quick] --out FILE\n");
    return 2;
  }

  quiet_logs();
  const std::size_t iterations = quick ? 4 : 25;
  const crypto::KeySpec spec = crypto::KeySpec::rsa(2048);

  // Production stack: file store behind the sharded read cache.
  const std::filesystem::path storage_dir =
      std::filesystem::temp_directory_path() /
      ("myproxy-bench-hotpath-" + crypto::random_hex(6));
  VirtualOrganization vo;
  auto cached = std::make_unique<repository::CachedCredentialStore>(
      std::make_unique<repository::FileCredentialStore>(storage_dir));
  const repository::CachedCredentialStore* cache = cached.get();
  auto repository = std::make_shared<repository::Repository>(
      std::move(cached), bench_policy());

  server::ServerConfig config;
  config.accepted_credentials.add("*");
  config.authorized_retrievers.add("*");
  config.authorized_renewers.add("*");
  config.worker_threads = 2;
  server::MyProxyServer server(vo.service("hotpath-myproxy"),
                               vo.trust_store(), repository, config);
  server.start();

  {
    const gsi::Credential user = vo.user("hotpath-user");
    const gsi::Credential proxy = gsi::create_proxy(user);
    client::MyProxyClient init(proxy, vo.trust_store(), server.port());
    client::PutOptions put_options;
    put_options.stored_lifetime = Seconds(24 * 3600);
    init.put("hotpath-alice", kPhrase, proxy, put_options);
  }

  client::GetOptions options;
  options.key_spec = spec;

  // Baseline: the pre-optimization pipeline.
  client::MyProxyClient baseline_client(vo.portal("hotpath-baseline"),
                                        vo.trust_store(), server.port());
  baseline_client.set_session_resumption(false);
  (void)baseline_client.get("hotpath-alice", kPhrase, options);  // warm-up
  const Series baseline = measure_gets(baseline_client, iterations, options);

  // Fast path: resumption + warm pool, refill paused during measurement.
  client::MyProxyClient fast_client(vo.portal("hotpath-fast"),
                                    vo.trust_store(), server.port());
  auto pool =
      std::make_shared<crypto::KeyPairPool>(spec, iterations + 2,
                                            /*refill_threads=*/1);
  pool->prefill(iterations + 2);
  pool->set_refill_enabled(false);
  fast_client.set_key_pool(pool);
  (void)fast_client.get("hotpath-alice", kPhrase, options);  // ticket + cache
  const Series fastpath = measure_gets(fast_client, iterations, options);

  server.stop();
  std::filesystem::remove_all(storage_dir);

  const double speedup = baseline.percentile(0.50) / fastpath.percentile(0.50);
  const auto& stats = server.stats();
  const auto pool_stats = pool->stats();
  const auto cache_stats = cache->stats();

  std::ostringstream json;
  json << "{\n"
       << "  \"benchmark\": \"bench_hotpath\",\n"
       << "  \"figure\": \"fig2_get\",\n"
       << "  \"mode\": \"" << (quick ? "quick" : "full") << "\",\n"
       << "  \"key_spec\": \"RSA-2048\",\n"
       << "  \"kdf_iterations\": 1000,\n"
       << "  \"iterations\": " << iterations << ",\n";
  emit_series(json, "baseline", baseline);
  emit_series(json, "fastpath", fastpath);
  json << "  \"speedup_p50\": " << speedup << ",\n"
       << "  \"client\": {\"resumed_connections\": "
       << fast_client.resumed_connections()
       << ", \"full_connections\": " << fast_client.full_connections()
       << ", \"pool_hits\": " << pool_stats.hits
       << ", \"pool_misses\": " << pool_stats.misses << "},\n"
       << "  \"server\": {\"gets\": " << stats.gets.load()
       << ", \"full_handshakes\": " << stats.full_handshakes.load()
       << ", \"resumed_handshakes\": " << stats.resumed_handshakes.load()
       << ", \"keypool_hits\": " << stats.keypool_hits.load()
       << ", \"keypool_misses\": " << stats.keypool_misses.load() << "},\n"
       << "  \"store_cache\": {\"hits\": " << cache_stats.hits
       << ", \"misses\": " << cache_stats.misses
       << ", \"invalidations\": " << cache_stats.invalidations << "}\n"
       << "}\n";

  std::ofstream out(out_path);
  out << json.str();
  out.close();
  std::printf("baseline p50 %.2f ms | fastpath p50 %.2f ms | %.1fx\n",
              baseline.percentile(0.50), fastpath.percentile(0.50), speedup);
  std::printf("resumed handshakes %llu, pool hits %llu, cache hits %llu\n",
              static_cast<unsigned long long>(stats.resumed_handshakes.load()),
              static_cast<unsigned long long>(pool_stats.hits),
              static_cast<unsigned long long>(cache_stats.hits));
  std::printf("wrote %s\n", out_path.c_str());

  // Regression gates — loud failures for ctest and bench/run.py.
  bool ok = true;
  if (stats.resumed_handshakes.load() == 0) {
    std::fprintf(stderr, "FAIL: no resumed handshakes recorded\n");
    ok = false;
  }
  if (pool_stats.hits == 0) {
    std::fprintf(stderr, "FAIL: key pool never hit\n");
    ok = false;
  }
  if (cache_stats.hits == 0) {
    std::fprintf(stderr, "FAIL: store cache never hit\n");
    ok = false;
  }
  if (!quick && speedup < 2.0) {
    std::fprintf(stderr, "FAIL: p50 speedup %.2fx < 2x\n", speedup);
    ok = false;
  }
  return ok ? 0 : 1;
}
