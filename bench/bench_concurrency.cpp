// CONCURRENCY — connection-scaling sweep for the epoll reactor front end.
//
// Hold N idle TCP connections open against the server (they sit in the
// event loop's handshake phase, costing state but no worker), then
// measure warm GET latency through a resuming client. The
// reactor claim is that the series stays flat: p99 at N=5000 looks like
// p99 at N=0, and the idle connections are all still admitted (in_flight
// == N, nothing shed, nothing timed out) when the sweep ends.
//
// Gates (full mode only; --quick is the ctest smoke and checks the sweep
// completes with nothing shed or reaped):
//   * reactor sustains >= 5000 concurrent connections (timeouts == 0,
//     shed == 0, in_flight >= N while held)
//   * reactor warm-GET p99 at max N <= max(50 ms, 5 x p99 at N=0)
//
// Usage: bench_concurrency [--quick] --out FILE [--max-connections N]
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "net/socket.hpp"

namespace {

using namespace myproxy;         // NOLINT(google-build-using-namespace)
using namespace myproxy::bench;  // NOLINT(google-build-using-namespace)

double percentile(std::vector<double> values, double p) {
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      p * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

/// Lift RLIMIT_NOFILE's soft limit to the hard limit: every held
/// connection costs two descriptors (client + in-process server end).
void raise_fd_limit() {
  struct rlimit limit {};
  if (::getrlimit(RLIMIT_NOFILE, &limit) == 0 &&
      limit.rlim_cur < limit.rlim_max) {
    limit.rlim_cur = limit.rlim_max;
    (void)::setrlimit(RLIMIT_NOFILE, &limit);
  }
}

struct GetStats {
  double p50 = 0;
  double p90 = 0;
  double p99 = 0;
};

GetStats measure_warm_gets(client::MyProxyClient& client,
                           std::size_t samples) {
  std::vector<double> ms;
  ms.reserve(samples);
  for (std::size_t i = 0; i < samples; ++i) {
    const auto start = std::chrono::steady_clock::now();
    (void)client.get("alice", kPhrase);
    ms.push_back(std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - start)
                     .count());
  }
  return {percentile(ms, 0.50), percentile(ms, 0.90), percentile(ms, 0.99)};
}

server::ServerConfig sweep_config() {
  server::ServerConfig config;
  config.accepted_credentials.add("*");
  config.authorized_retrievers.add("*");
  config.worker_threads = 4;
  config.keygen_pool_size = 0;
  config.reactor_threads = 2;
  config.max_connections = 0;  // the sweep itself is the admission test
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path;
  std::size_t max_connections = 5000;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--max-connections" && i + 1 < argc) {
      max_connections = static_cast<std::size_t>(std::stoul(argv[++i]));
    } else {
      out_path.clear();
      break;
    }
  }
  if (out_path.empty()) {
    std::fprintf(stderr,
                 "usage: bench_concurrency [--quick] --out FILE "
                 "[--max-connections N]\n");
    return 2;
  }
  if (quick) max_connections = std::min<std::size_t>(max_connections, 500);

  quiet_logs();
  raise_fd_limit();
  VirtualOrganization vo;
  const gsi::Credential alice = vo.user("conc-alice");
  const gsi::Credential portal = vo.portal("conc-portal");

  // --- Reactor idle-connection sweep -----------------------------------------
  std::vector<std::size_t> sweep;
  if (quick) {
    sweep = {0, max_connections / 2, max_connections};
  } else {
    sweep = {0, 1000, max_connections / 2, max_connections};
  }
  const std::size_t samples = quick ? 15 : 40;

  struct Point {
    std::size_t connections;
    GetStats get;
    std::size_t in_flight;
    std::uint64_t timeouts;
    std::uint64_t shed;
  };
  std::vector<Point> reactor_series;
  bool sustained_ok = true;
  {
    server::ServerConfig config = sweep_config();
    // Idle connections must stay parked for the whole sweep, not be reaped:
    // sustaining them IS the experiment.
    config.handshake_timeout = Millis(0);
    RepositoryFixture fixture(vo, bench_policy());
    // RepositoryFixture wires its own config; rebuild with ours instead.
    fixture.server->stop();
    fixture.server = std::make_unique<server::MyProxyServer>(
        vo.service("myproxy-conc"), vo.trust_store(), fixture.repository,
        std::move(config));
    fixture.server->start();
    put_credential(vo, fixture, alice, "alice");

    client::MyProxyClient reader(gsi::create_proxy(portal), vo.trust_store(),
                                 fixture.server->port());
    (void)reader.get("alice", kPhrase);  // warm the session ticket

    std::vector<net::Socket> idle;
    idle.reserve(max_connections);
    for (const std::size_t target : sweep) {
      while (idle.size() < target) {
        idle.push_back(net::tcp_connect(fixture.server->port()));
      }
      // Let the accept backlog drain so in_flight reflects the target.
      for (int i = 0; i < 100 && fixture.server->in_flight() < target; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
      Point point;
      point.connections = target;
      point.get = measure_warm_gets(reader, samples);
      point.in_flight = fixture.server->in_flight();
      point.timeouts = fixture.server->stats().timeouts.load();
      point.shed = fixture.server->stats().shed_connections.load();
      reactor_series.push_back(point);
      std::printf(
          "reactor %5zu idle conns: warm GET p50 %6.2f ms | p99 %6.2f ms "
          "| in_flight %zu | timeouts %llu | shed %llu\n",
          target, point.get.p50, point.get.p99, point.in_flight,
          static_cast<unsigned long long>(point.timeouts),
          static_cast<unsigned long long>(point.shed));
      if (point.timeouts != 0 || point.shed != 0 ||
          point.in_flight < target) {
        sustained_ok = false;
      }
    }
    for (auto& socket : idle) socket.close();
  }

  // --- Report ---------------------------------------------------------------
  std::ostringstream json;
  json << "{\n"
       << "  \"benchmark\": \"bench_concurrency\",\n"
       << "  \"mode\": \"" << (quick ? "quick" : "full") << "\",\n"
       << "  \"max_connections\": " << max_connections << ",\n"
       << "  \"reactor_series\": [\n";
  for (std::size_t i = 0; i < reactor_series.size(); ++i) {
    const Point& p = reactor_series[i];
    json << "    {\"connections\": " << p.connections
         << ", \"get_ms\": {\"p50\": " << p.get.p50 << ", \"p90\": "
         << p.get.p90 << ", \"p99\": " << p.get.p99 << "}, \"in_flight\": "
         << p.in_flight << ", \"timeouts\": " << p.timeouts
         << ", \"shed\": " << p.shed << "}"
         << (i + 1 < reactor_series.size() ? "," : "") << "\n";
  }
  json << "  ],\n"
       << "  \"sustained\": " << (sustained_ok ? "true" : "false") << "\n"
       << "}\n";

  std::ofstream out(out_path);
  out << json.str();
  out.close();
  std::printf("wrote %s\n", out_path.c_str());

  bool ok = sustained_ok;
  if (!sustained_ok) {
    std::fprintf(stderr,
                 "FAIL: reactor did not sustain the idle-connection sweep "
                 "(timeout/shed/in_flight mismatch above)\n");
  }
  if (!quick) {
    const GetStats& base = reactor_series.front().get;
    const GetStats& peak = reactor_series.back().get;
    const double budget = std::max(50.0, 5.0 * base.p99);
    if (peak.p99 > budget) {
      std::fprintf(stderr,
                   "FAIL: reactor warm GET p99 %.2f ms at %zu conns exceeds "
                   "budget %.2f ms\n",
                   peak.p99, reactor_series.back().connections, budget);
      ok = false;
    }
    if (reactor_series.back().connections < 5000) {
      std::fprintf(stderr, "FAIL: sweep topped out at %zu conns (< 5000)\n",
                   reactor_series.back().connections);
      ok = false;
    }
  }
  return ok ? 0 : 1;
}
