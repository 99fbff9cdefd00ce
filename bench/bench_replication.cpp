// REPLICATION — steady-state replication lag and client failover time for
// the primary–replica repository pair.
//
// Phase A (lag): a client streams puts at the primary; after each put
// returns, the bench waits until the replica has applied that journal
// sequence and records the elapsed time. That is the window in which a
// primary crash would lose the write from the replica's point of view.
// Reported as p50/p90/p99 milliseconds.
//
// Phase B (failover): a multi-endpoint client (primary first, replica
// second) performs a warm-up read, the primary is stopped, and the bench
// times the next get() — connect failure at the dead primary included —
// until the replica serves it. Repeated over fresh server pairs; the
// median is reported.
//
// Gates (full mode only; --quick is the ctest smoke and checks that
// replication happened and failover succeeded, not latency):
//   * lag p99 <= 2000 ms (batched shipping keeps replicas close)
//   * failover median <= 5000 ms
//
// Usage: bench_replication [--quick] --out FILE [--writes N]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "crypto/random.hpp"
#include "replication/replicated_store.hpp"

namespace {

using namespace myproxy;         // NOLINT(google-build-using-namespace)
using namespace myproxy::bench;  // NOLINT(google-build-using-namespace)
namespace fs = std::filesystem;

constexpr std::string_view kReplicaCn = "myproxy-replica";

double percentile(std::vector<double> values, double p) {
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      p * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

/// A primary+replica myproxy-server pair over a shared journal, with the
/// replica's host credential on the primary's replica ACL.
struct ReplicatedPair {
  std::shared_ptr<replication::ReplicationJournal> journal;
  std::shared_ptr<repository::Repository> primary_repo;
  std::shared_ptr<repository::Repository> replica_repo;
  std::unique_ptr<server::MyProxyServer> primary;
  std::unique_ptr<server::MyProxyServer> replica;

  ReplicatedPair(VirtualOrganization& vo, const fs::path& dir) {
    journal = std::make_shared<replication::ReplicationJournal>(
        dir / "journal.log");
    primary_repo = std::make_shared<repository::Repository>(
        std::make_unique<replication::ReplicatedStore>(
            std::make_unique<repository::MemoryCredentialStore>(), journal,
            dir / "journal.watermark"),
        bench_policy());

    server::ServerConfig primary_config;
    primary_config.accepted_credentials.add("*");
    primary_config.authorized_retrievers.add("*");
    primary_config.worker_threads = 4;
    primary_config.keygen_pool_size = 0;
    primary_config.replication_role = replication::ReplicationRole::kPrimary;
    primary_config.journal = journal;
    primary_config.replica_acl.add("/C=US/O=Grid/OU=Services/CN=" +
                                   std::string(kReplicaCn));
    primary = std::make_unique<server::MyProxyServer>(
        vo.service("myproxy"), vo.trust_store(), primary_repo,
        std::move(primary_config));
    primary->start();

    replica_repo = std::make_shared<repository::Repository>(
        std::make_unique<repository::MemoryCredentialStore>(),
        bench_policy());
    server::ServerConfig replica_config;
    replica_config.accepted_credentials.add("*");
    replica_config.authorized_retrievers.add("*");
    replica_config.worker_threads = 4;
    replica_config.keygen_pool_size = 0;
    replica_config.replication_role = replication::ReplicationRole::kReplica;
    replica_config.replication_primary_port = primary->port();
    replica_config.replication_state_file = dir / "replica.state";
    replica = std::make_unique<server::MyProxyServer>(
        vo.service(std::string(kReplicaCn)), vo.trust_store(), replica_repo,
        std::move(replica_config));
    replica->start();
  }

  ~ReplicatedPair() {
    if (replica) replica->stop();
    if (primary) primary->stop();
  }

  /// Block until the replica has applied the journal tip.
  bool catch_up(Millis timeout = Millis(15000)) const {
    return replica->replica_session() != nullptr &&
           replica->replica_session()->wait_for_sequence(
               journal->last_sequence(), timeout);
  }
};

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path;
  std::size_t writes = 200;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
      writes = 20;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--writes" && i + 1 < argc) {
      writes = static_cast<std::size_t>(std::stoul(argv[++i]));
    } else {
      out_path.clear();
      break;
    }
  }
  if (out_path.empty()) {
    std::fprintf(stderr,
                 "usage: bench_replication [--quick] --out FILE "
                 "[--writes N]\n");
    return 2;
  }

  quiet_logs();
  const fs::path root = fs::temp_directory_path() /
                        ("myproxy-bench-repl-" + crypto::random_hex(6));
  fs::create_directories(root);

  VirtualOrganization vo;
  const gsi::Credential alice = vo.user("repl-bench-alice");
  const gsi::Credential proxy = gsi::create_proxy(alice);
  const gsi::Credential portal = vo.portal("repl-bench-portal");

  // --- Phase A: steady-state replication lag --------------------------------
  std::vector<double> lag_ms;
  std::uint64_t ops_applied = 0;
  {
    const fs::path dir = root / "lag";
    fs::create_directories(dir);
    ReplicatedPair pair(vo, dir);
    client::MyProxyClient writer(proxy, vo.trust_store(),
                                 pair.primary->port());
    client::PutOptions options;
    options.stored_lifetime = Seconds(24 * 3600);
    // One put to establish the stream (covers snapshot bootstrap).
    writer.put("warmup", kPhrase, proxy, options);
    if (!pair.catch_up()) {
      std::fprintf(stderr, "FAIL: replica never caught up after warmup\n");
      return 1;
    }

    lag_ms.reserve(writes);
    for (std::size_t i = 0; i < writes; ++i) {
      options.credential_name = "slot" + std::to_string(i % 8);
      writer.put("alice", kPhrase, proxy, options);
      const std::uint64_t seq = pair.journal->last_sequence();
      const auto start = std::chrono::steady_clock::now();
      if (!pair.replica->replica_session()->wait_for_sequence(
              seq, Millis(15000))) {
        std::fprintf(stderr, "FAIL: sequence %llu never replicated\n",
                     static_cast<unsigned long long>(seq));
        return 1;
      }
      lag_ms.push_back(std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - start)
                           .count());
    }
    ops_applied =
        pair.replica->replica_session()->stats().ops_applied.load();
  }
  const double lag_p50 = percentile(lag_ms, 0.50);
  const double lag_p90 = percentile(lag_ms, 0.90);
  const double lag_p99 = percentile(lag_ms, 0.99);
  std::printf("phase A (%zu writes): lag p50 %.2f ms | p90 %.2f ms | "
              "p99 %.2f ms\n",
              writes, lag_p50, lag_p90, lag_p99);

  // --- Phase B: failover time ----------------------------------------------
  const std::size_t rounds = quick ? 1 : 5;
  std::vector<double> failover_ms;
  for (std::size_t round = 0; round < rounds; ++round) {
    const fs::path dir = root / ("failover" + std::to_string(round));
    fs::create_directories(dir);
    ReplicatedPair pair(vo, dir);
    {
      client::MyProxyClient writer(proxy, vo.trust_store(),
                                   pair.primary->port());
      client::PutOptions options;
      options.stored_lifetime = Seconds(24 * 3600);
      writer.put("alice", kPhrase, proxy, options);
    }
    if (!pair.catch_up()) {
      std::fprintf(stderr, "FAIL: replica never caught up (round %zu)\n",
                   round);
      return 1;
    }

    // Fail fast at the dead endpoint: one attempt, short connect deadline.
    client::RetryPolicy policy;
    policy.max_attempts = 1;
    policy.connect_timeout = Millis(2000);
    client::MyProxyClient reader(
        portal, vo.trust_store(),
        {pair.primary->port(), pair.replica->port()}, policy);
    (void)reader.get("alice", kPhrase);  // warm-up while both are alive

    pair.primary->stop();
    const auto start = std::chrono::steady_clock::now();
    const gsi::Credential delegated = reader.get("alice", kPhrase);
    failover_ms.push_back(std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - start)
                              .count());
    if (delegated.identity() != alice.identity()) {
      std::fprintf(stderr, "FAIL: failover get returned wrong identity\n");
      return 1;
    }
  }
  std::vector<double> sorted = failover_ms;
  std::sort(sorted.begin(), sorted.end());
  const double failover_median = sorted[sorted.size() / 2];
  std::printf("phase B (%zu rounds): failover median %.2f ms\n", rounds,
              failover_median);

  fs::remove_all(root);

  std::ostringstream json;
  json << "{\n"
       << "  \"benchmark\": \"bench_replication\",\n"
       << "  \"mode\": \"" << (quick ? "quick" : "full") << "\",\n"
       << "  \"writes\": " << writes << ",\n"
       << "  \"lag_ms\": {\"p50\": " << lag_p50 << ", \"p90\": " << lag_p90
       << ", \"p99\": " << lag_p99 << "},\n"
       << "  \"failover\": {\"rounds\": " << rounds << ", \"median_ms\": "
       << failover_median << ", \"samples_ms\": [";
  for (std::size_t i = 0; i < failover_ms.size(); ++i) {
    if (i > 0) json << ", ";
    json << failover_ms[i];
  }
  json << "]},\n"
       << "  \"replica_ops_applied\": " << ops_applied << "\n"
       << "}\n";

  std::ofstream out(out_path);
  out << json.str();
  out.close();
  std::printf("wrote %s\n", out_path.c_str());

  bool ok = true;
  if (ops_applied < writes) {
    std::fprintf(stderr, "FAIL: replica applied %llu of %zu writes\n",
                 static_cast<unsigned long long>(ops_applied), writes);
    ok = false;
  }
  if (!quick) {
    if (lag_p99 > 2000.0) {
      std::fprintf(stderr, "FAIL: lag p99 %.2f ms > 2000 ms\n", lag_p99);
      ok = false;
    }
    if (failover_median > 5000.0) {
      std::fprintf(stderr, "FAIL: failover median %.2f ms > 5000 ms\n",
                   failover_median);
      ok = false;
    }
  }
  return ok ? 0 : 1;
}
