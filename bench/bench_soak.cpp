// SOAK — zipf-distributed mixed workload over a large credential
// population with an abusive tenant, as the standing regression gate for
// per-identity admission control.
//
// Preload: N credentials (default 100k, --records up to 1M) stored
// directly into the repository, owned round-robin by T polite tenants.
// Phase A (baseline): the polite tenants run a zipf-skewed mix of
// get/put/renew/destroy at a paced offered rate comfortably under the
// per-identity limit; nothing may be shed. Phase B (abuse): the same
// polite load plus a configurable number of abusive-tenant threads
// hammering gets with no pacing — roughly 10x the fair share. The
// admission layer must shed the abuser (busy/retry-after replies, counted
// client-side and server-side) while the polite tenants see zero sheds and
// a p99 within 2x of their no-abuser baseline.
//
// Gates (full mode; --quick is the BenchSoakSmoke ctest and checks the
// phases complete, polite sheds stay zero, and the abuser is shed):
//   * polite sheds == 0 in both phases
//   * abuser sheds > 0 and the server counts them as rate sheds
//   * polite p99 (abuse) < 2 x max(polite p99 (baseline), 1 ms)
//
// Usage: bench_soak [--quick] --out FILE [--records N]
//                   [--abuser-threads K] [--zipf-s S]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"

namespace {

using namespace myproxy;         // NOLINT(google-build-using-namespace)
using namespace myproxy::bench;  // NOLINT(google-build-using-namespace)

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      p * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

/// Zipf sampler over ranks [0, n): precomputed CDF + binary search. The
/// skew s~1.1 concentrates most draws on a hot head while still touching
/// the long tail, the shape credential repositories see in practice.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s) : cdf_(n) {
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }

  [[nodiscard]] std::size_t draw(std::mt19937& rng) const {
    const double u =
        std::uniform_real_distribution<double>(0.0, 1.0)(rng);
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<std::size_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

std::string record_username(std::size_t id) {
  return "soak-u" + std::to_string(id);
}

struct TenantResult {
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;
  std::uint64_t errors = 0;
  std::vector<double> latencies_ms;
};

struct PhaseResult {
  double p50 = 0;
  double p90 = 0;
  double p99 = 0;
  std::uint64_t polite_ok = 0;
  std::uint64_t polite_shed = 0;
  std::uint64_t polite_errors = 0;
  std::uint64_t abuser_ok = 0;
  std::uint64_t abuser_shed = 0;
};

struct SoakParams {
  std::size_t records = 100000;
  std::size_t tenants = 6;
  std::size_t abuser_threads = 1;
  double zipf_s = 1.1;
  Millis phase_length{10000};  ///< polite tenants pace at ~20 ops/s each
};

/// One polite tenant: zipf-skewed 80/10/5/5 get/put/renew/destroy at a
/// paced rate, counting sheds (ServerBusy with max_attempts=1) separately
/// from real failures.
void run_polite(client::MyProxyClient& client, const ZipfSampler& zipf,
                std::size_t tenant, std::size_t tenants, std::size_t records,
                const gsi::Credential& proxy, std::atomic<bool>& running,
                std::uint32_t seed, TenantResult& out) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> mix(0.0, 1.0);
  const std::string scratch = "soak-scratch-t" + std::to_string(tenant);
  while (running.load(std::memory_order_relaxed)) {
    // Renew/destroy need ownership: map the draw onto this tenant's stripe
    // of the population (ids congruent to `tenant` mod `tenants`).
    const std::size_t draw = zipf.draw(rng);
    const std::size_t own =
        std::min(records - 1, draw - (draw % tenants) + tenant);
    const double r = mix(rng);
    const auto start = std::chrono::steady_clock::now();
    try {
      if (r < 0.80) {
        (void)client.get(record_username(draw), kPhrase);
      } else if (r < 0.90) {
        client.put(scratch, kPhrase, proxy);
      } else if (r < 0.95) {
        (void)client.renew(record_username(own));
      } else {
        try {
          client.destroy(scratch);
        } catch (const client::ServerBusy&) {
          throw;
        } catch (const Error&) {
          // Nothing scratched yet: not a soak failure.
        }
      }
      out.ok += 1;
      out.latencies_ms.push_back(std::chrono::duration<double, std::milli>(
                                     std::chrono::steady_clock::now() - start)
                                     .count());
    } catch (const client::ServerBusy&) {
      out.shed += 1;
    } catch (const std::exception&) {
      out.errors += 1;
    }
    std::this_thread::sleep_for(Millis(50));
  }
}

PhaseResult run_phase(VirtualOrganization& vo,
                      const RepositoryFixture& fixture,
                      const std::vector<gsi::Credential>& tenants,
                      const gsi::Credential& abuser_user,
                      const ZipfSampler& zipf, const SoakParams& params,
                      bool with_abuser) {
  std::atomic<bool> running{true};
  std::vector<TenantResult> polite(tenants.size());
  std::vector<TenantResult> abusive(with_abuser ? params.abuser_threads : 0);
  std::vector<std::thread> threads;
  threads.reserve(tenants.size() + abusive.size());

  client::RetryPolicy no_retry;
  no_retry.max_attempts = 1;

  for (std::size_t t = 0; t < tenants.size(); ++t) {
    threads.emplace_back([&, t] {
      const auto proxy = gsi::create_proxy(tenants[t]);
      client::MyProxyClient client(proxy, vo.trust_store(),
                                   fixture.server->port(), no_retry);
      run_polite(client, zipf, t, tenants.size(), params.records, proxy,
                 running, static_cast<std::uint32_t>(1000 + t), polite[t]);
    });
  }
  for (std::size_t a = 0; a < abusive.size(); ++a) {
    threads.emplace_back([&, a] {
      // No pacing at all: the abuser offers every request the transport
      // can carry — an order of magnitude over the per-identity budget.
      const auto proxy = gsi::create_proxy(abuser_user);
      client::MyProxyClient client(proxy, vo.trust_store(),
                                   fixture.server->port(), no_retry);
      std::mt19937 rng(9000 + static_cast<std::uint32_t>(a));
      while (running.load(std::memory_order_relaxed)) {
        try {
          (void)client.get(record_username(zipf.draw(rng)), kPhrase);
          abusive[a].ok += 1;
        } catch (const client::ServerBusy&) {
          abusive[a].shed += 1;
        } catch (const std::exception&) {
          abusive[a].errors += 1;
        }
      }
    });
  }

  std::this_thread::sleep_for(params.phase_length);
  running.store(false);
  for (auto& thread : threads) thread.join();

  PhaseResult result;
  std::vector<double> all_latencies;
  for (const TenantResult& t : polite) {
    result.polite_ok += t.ok;
    result.polite_shed += t.shed;
    result.polite_errors += t.errors;
    all_latencies.insert(all_latencies.end(), t.latencies_ms.begin(),
                         t.latencies_ms.end());
  }
  for (const TenantResult& t : abusive) {
    result.abuser_ok += t.ok;
    result.abuser_shed += t.shed;
  }
  result.p50 = percentile(all_latencies, 0.50);
  result.p90 = percentile(all_latencies, 0.90);
  result.p99 = percentile(all_latencies, 0.99);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path;
  SoakParams params;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--records" && i + 1 < argc) {
      params.records = static_cast<std::size_t>(std::stoul(argv[++i]));
    } else if (arg == "--abuser-threads" && i + 1 < argc) {
      params.abuser_threads = static_cast<std::size_t>(std::stoul(argv[++i]));
    } else if (arg == "--zipf-s" && i + 1 < argc) {
      params.zipf_s = std::stod(argv[++i]);
    } else {
      out_path.clear();
      break;
    }
  }
  if (out_path.empty()) {
    std::fprintf(stderr,
                 "usage: bench_soak [--quick] --out FILE [--records N] "
                 "[--abuser-threads K] [--zipf-s S]\n");
    return 2;
  }
  if (quick) {
    params.records = std::min<std::size_t>(params.records, 2000);
    params.phase_length = Millis(3000);
  }
  params.records = std::max<std::size_t>(params.records, params.tenants);

  quiet_logs();
  VirtualOrganization vo;
  std::vector<gsi::Credential> tenants;
  tenants.reserve(params.tenants);
  for (std::size_t t = 0; t < params.tenants; ++t) {
    tenants.push_back(vo.user("soak-tenant-" + std::to_string(t)));
  }
  const gsi::Credential abuser = vo.user("soak-abuser");

  // Per-identity budget: polite tenants offer ~20/s against 40/s; the
  // unpaced abuser is held to the same 40/s and shed beyond it.
  server::ServerConfig config;
  config.accepted_credentials.add("*");
  config.authorized_retrievers.add("*");
  config.authorized_renewers.add("*");
  config.worker_threads = 8;
  config.reactor_threads = 2;
  config.admission.rate_limit_rps = 40.0;
  config.admission.rate_limit_burst = 10.0;

  RepositoryFixture fixture(vo, bench_policy(100), 8);
  fixture.server->stop();
  fixture.server = std::make_unique<server::MyProxyServer>(
      vo.service("myproxy-soak"), vo.trust_store(), fixture.repository,
      std::move(config));
  fixture.server->start();

  // Preload: the population is stored directly (the client protocol would
  // dominate the run), each record owned by tenant id%T and renewable.
  const auto preload_start = std::chrono::steady_clock::now();
  {
    repository::StoreOptions options;
    options.renewer_patterns = {"*"};
    // One delegated proxy per tenant, stored under every username the
    // tenant owns (the seal is per-record; the proxy need not be).
    std::vector<gsi::Credential> proxies;
    proxies.reserve(params.tenants);
    for (const gsi::Credential& tenant : tenants) {
      proxies.push_back(gsi::create_proxy(tenant));
    }
    for (std::size_t i = 0; i < params.records; ++i) {
      const std::size_t t = i % params.tenants;
      fixture.repository->store(record_username(i), kPhrase,
                                tenants[t].identity().str(), proxies[t],
                                options);
      if ((i + 1) % 20000 == 0) {
        std::printf("preloaded %zu/%zu\n", i + 1, params.records);
      }
    }
  }
  const double preload_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    preload_start)
          .count();
  std::printf("preloaded %zu credentials in %.1f s\n", params.records,
              preload_s);

  const ZipfSampler zipf(params.records, params.zipf_s);

  std::printf("phase A: %zu polite tenants, no abuser (%lld ms)\n",
              params.tenants,
              static_cast<long long>(params.phase_length.count()));
  const PhaseResult baseline = run_phase(vo, fixture, tenants, abuser, zipf,
                                         params, /*with_abuser=*/false);
  std::printf(
      "  polite: %llu ok, %llu shed, %llu errors | p50 %.2f ms p99 %.2f ms\n",
      static_cast<unsigned long long>(baseline.polite_ok),
      static_cast<unsigned long long>(baseline.polite_shed),
      static_cast<unsigned long long>(baseline.polite_errors), baseline.p50,
      baseline.p99);

  std::printf("phase B: same load plus %zu abuser thread(s)\n",
              params.abuser_threads);
  const PhaseResult abuse = run_phase(vo, fixture, tenants, abuser, zipf,
                                      params, /*with_abuser=*/true);
  const auto counters = fixture.server->admission().counters();
  std::printf(
      "  polite: %llu ok, %llu shed, %llu errors | p50 %.2f ms p99 %.2f ms\n"
      "  abuser: %llu ok, %llu shed | server rate sheds %llu\n",
      static_cast<unsigned long long>(abuse.polite_ok),
      static_cast<unsigned long long>(abuse.polite_shed),
      static_cast<unsigned long long>(abuse.polite_errors), abuse.p50,
      abuse.p99, static_cast<unsigned long long>(abuse.abuser_ok),
      static_cast<unsigned long long>(abuse.abuser_shed),
      static_cast<unsigned long long>(counters.shed_rate));

  // --- Report ---------------------------------------------------------------
  const auto phase_json = [](const PhaseResult& p) {
    std::ostringstream s;
    s << "{\"polite_ok\": " << p.polite_ok
      << ", \"polite_shed\": " << p.polite_shed
      << ", \"polite_errors\": " << p.polite_errors
      << ", \"abuser_ok\": " << p.abuser_ok
      << ", \"abuser_shed\": " << p.abuser_shed
      << ", \"polite_ms\": {\"p50\": " << p.p50 << ", \"p90\": " << p.p90
      << ", \"p99\": " << p.p99 << "}}";
    return s.str();
  };
  std::ostringstream json;
  json << "{\n"
       << "  \"benchmark\": \"bench_soak\",\n"
       << "  \"mode\": \"" << (quick ? "quick" : "full") << "\",\n"
       << "  \"records\": " << params.records << ",\n"
       << "  \"tenants\": " << params.tenants << ",\n"
       << "  \"abuser_threads\": " << params.abuser_threads << ",\n"
       << "  \"zipf_s\": " << params.zipf_s << ",\n"
       << "  \"rate_limit_rps\": 40.0,\n"
       << "  \"preload_s\": " << preload_s << ",\n"
       << "  \"baseline\": " << phase_json(baseline) << ",\n"
       << "  \"abuse\": " << phase_json(abuse) << ",\n"
       << "  \"server_rate_sheds\": " << counters.shed_rate << "\n"
       << "}\n";
  std::ofstream out(out_path);
  out << json.str();
  out.close();
  std::printf("wrote %s\n", out_path.c_str());

  // --- Gates ----------------------------------------------------------------
  bool ok = true;
  if (baseline.polite_shed + abuse.polite_shed != 0) {
    std::fprintf(stderr, "FAIL: polite tenants were shed (%llu baseline, "
                         "%llu under abuse)\n",
                 static_cast<unsigned long long>(baseline.polite_shed),
                 static_cast<unsigned long long>(abuse.polite_shed));
    ok = false;
  }
  if (abuse.abuser_shed == 0 || counters.shed_rate == 0) {
    std::fprintf(stderr, "FAIL: the abuser was never shed\n");
    ok = false;
  }
  if (baseline.polite_ok == 0 || abuse.polite_ok == 0) {
    std::fprintf(stderr, "FAIL: a phase completed no polite work\n");
    ok = false;
  }
  if (baseline.polite_errors + abuse.polite_errors != 0) {
    std::fprintf(stderr, "FAIL: polite tenants saw hard errors\n");
    ok = false;
  }
  if (!quick) {
    const double budget = 2.0 * std::max(baseline.p99, 1.0);
    if (abuse.p99 >= budget) {
      std::fprintf(stderr,
                   "FAIL: polite p99 %.2f ms under abuse exceeds budget "
                   "%.2f ms (2x baseline p99 %.2f ms)\n",
                   abuse.p99, budget, baseline.p99);
      ok = false;
    }
  }
  return ok ? 0 : 1;
}
