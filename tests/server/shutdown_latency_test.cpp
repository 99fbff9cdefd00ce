// Regression tests for the shutdown path: stop() must complete promptly
// while the expiry sweep's loop timer is armed for a long period, and while
// a scraper holds a /metrics connection mid-request. Both live on the
// reactor's loop 0, which stop() wakes and joins. It must also be prompt on
// either end of a replication stream that sits between heartbeats.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <thread>

#include "common/error.hpp"
#include "gsi/gsi_fixtures.hpp"
#include "gsi/proxy.hpp"
#include "net/socket.hpp"
#include "replication/replicated_store.hpp"
#include "server/myproxy_server.hpp"

namespace myproxy {
namespace {

using gsi::testing::make_trust_store;
using gsi::testing::test_ca;
using std::chrono::milliseconds;
using std::chrono::steady_clock;

gsi::Credential make_host(const std::string& cn) {
  const auto dn =
      pki::DistinguishedName::parse("/C=US/O=Grid/OU=Services/CN=" + cn);
  auto key = crypto::KeyPair::generate(crypto::KeySpec::ec());
  auto cert = test_ca().issue(dn, key, Seconds(365L * 24 * 3600));
  return gsi::Credential(std::move(cert), std::move(key));
}

std::unique_ptr<server::MyProxyServer> make_server(Seconds sweep_interval,
                                                   bool metrics = false) {
  repository::RepositoryPolicy policy;
  policy.kdf_iterations = 100;
  auto repo = std::make_shared<repository::Repository>(
      std::make_unique<repository::MemoryCredentialStore>(), policy);
  server::ServerConfig config;
  config.accepted_credentials.add("*");
  config.authorized_retrievers.add("*");
  config.sweep_interval = sweep_interval;
  config.metrics_enabled = metrics;
  return std::make_unique<server::MyProxyServer>(
      make_host("shutdown-myproxy"), make_trust_store(), repo, config);
}

milliseconds timed_stop(server::MyProxyServer& server) {
  const auto start = steady_clock::now();
  server.stop();
  return std::chrono::duration_cast<milliseconds>(steady_clock::now() -
                                                  start);
}

TEST(ServerShutdown, StopIsFastWhileSweeperIsMidWait) {
  auto server = make_server(/*sweep_interval=*/Seconds(60));
  server->start();
  // Let the 60s sweep timer sit armed on loop 0 before stopping.
  std::this_thread::sleep_for(milliseconds(100));
  EXPECT_LT(timed_stop(*server), milliseconds(1000));
}

TEST(ServerShutdown, StopImmediatelyAfterStartIsFast) {
  // Exercises the startup window where the sweeper may be anywhere between
  // thread creation and its first predicate check.
  for (int i = 0; i < 5; ++i) {
    auto server = make_server(/*sweep_interval=*/Seconds(60));
    server->start();
    EXPECT_LT(timed_stop(*server), milliseconds(1000)) << "iteration " << i;
  }
}

TEST(ServerShutdown, StopIsIdempotent) {
  auto server = make_server(/*sweep_interval=*/Seconds(60));
  server->start();
  server->stop();
  EXPECT_LT(timed_stop(*server), milliseconds(100));  // second stop: no-op
}

TEST(ServerShutdown, StopIsFastWhileScraperDrips) {
  auto server = make_server(/*sweep_interval=*/Seconds(60), /*metrics=*/true);
  server->start();
  // One byte of a scrape request every 200 ms for 3 s, never reaching the
  // end of the request head.
  net::Socket drip = net::tcp_connect(server->metrics_port());
  std::atomic<bool> done{false};
  std::thread dripper([&] {
    try {
      for (int i = 0; i < 15 && !done.load(); ++i) {
        drip.write_all("G");
        std::this_thread::sleep_for(milliseconds(200));
      }
    } catch (const IoError&) {
      // The server closed the connection on its way down.
    }
  });
  std::this_thread::sleep_for(milliseconds(500));
  EXPECT_LT(timed_stop(*server), milliseconds(1000));
  done.store(true);
  dripper.join();
}

/// A journaling primary and a replica tailing it, in a scratch directory.
class ReplicatedPair {
 public:
  ReplicatedPair() {
    dir_ = std::filesystem::temp_directory_path() /
           ("myproxy-shutdown-repl-" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    journal_ = std::make_shared<replication::ReplicationJournal>(
        dir_ / "journal.log");
    repository::RepositoryPolicy policy;
    policy.kdf_iterations = 100;
    primary_repo_ = std::make_shared<repository::Repository>(
        std::make_unique<replication::ReplicatedStore>(
            std::make_unique<repository::MemoryCredentialStore>(), journal_),
        policy);
    server::ServerConfig config;
    config.replication_role = replication::ReplicationRole::kPrimary;
    config.journal = journal_;
    config.replica_acl.add("*");
    primary = std::make_unique<server::MyProxyServer>(
        make_host("shutdown-primary"), make_trust_store(), primary_repo_,
        config);
    primary->start();

    server::ServerConfig replica_config;
    replica_config.replication_role = replication::ReplicationRole::kReplica;
    replica_config.replication_primary_port = primary->port();
    replica = std::make_unique<server::MyProxyServer>(
        make_host("shutdown-replica"), make_trust_store(),
        std::make_shared<repository::Repository>(
            std::make_unique<repository::MemoryCredentialStore>(), policy),
        replica_config);
    replica->start();
  }

  ~ReplicatedPair() {
    replica->stop();
    primary->stop();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  /// Journal one write and wait until the primary has the replica's ack
  /// for it. The primary then waits for the next write, and the replica
  /// for the next frame, for a whole heartbeat interval.
  void write_and_catch_up() {
    const auto deadline = steady_clock::now() + milliseconds(10000);
    while (!replica->replica_session()->stats().connected.load()) {
      ASSERT_LT(steady_clock::now(), deadline);
      std::this_thread::sleep_for(milliseconds(5));
    }
    primary_repo_->store_mutable().remove_all("nobody");
    while (primary->stats().repl_last_acked_seq.load() <
           journal_->last_sequence()) {
      ASSERT_LT(steady_clock::now(), deadline);
      std::this_thread::sleep_for(milliseconds(5));
    }
    // Past the ack callback, into the wait for the next write.
    std::this_thread::sleep_for(milliseconds(50));
  }

  std::unique_ptr<server::MyProxyServer> primary;
  std::unique_ptr<server::MyProxyServer> replica;

 private:
  std::filesystem::path dir_;
  std::shared_ptr<replication::ReplicationJournal> journal_;
  std::shared_ptr<repository::Repository> primary_repo_;
};

TEST(ServerShutdown, PrimaryStopIsFastWithAReplicaAttached) {
  ReplicatedPair pair;
  pair.write_and_catch_up();
  EXPECT_LT(timed_stop(*pair.primary), milliseconds(250));
}

TEST(ServerShutdown, ReplicaStopIsFastWhileTailing) {
  ReplicatedPair pair;
  pair.write_and_catch_up();
  EXPECT_LT(timed_stop(*pair.replica), milliseconds(250));
}

}  // namespace
}  // namespace myproxy
