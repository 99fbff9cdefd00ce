// Regression tests for the shutdown path: stop() must complete promptly
// while the expiry sweep's loop timer is armed for a long period, and while
// a scraper holds a /metrics connection mid-request. Both live on the
// reactor's loop 0, which stop() wakes and joins.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "common/error.hpp"
#include "gsi/gsi_fixtures.hpp"
#include "gsi/proxy.hpp"
#include "net/socket.hpp"
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

}  // namespace
}  // namespace myproxy
