// End-to-end admission control: a greedy identity flooding the server is
// shed with framed busy/retry-after replies while polite identities see
// zero sheds; the client RetryPolicy honors the hint; SIGHUP re-reads the
// config file and tightens limits without dropping established TLS
// sessions; the pre-auth per-address gate sheds abusive connect storms at
// accept time, before a TLS handshake or a worker is spent.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "client/myproxy_client.hpp"
#include "common/error.hpp"
#include "gsi/gsi_fixtures.hpp"
#include "gsi/proxy.hpp"
#include "net/socket.hpp"
#include "server/myproxy_server.hpp"

namespace myproxy {
namespace {

using client::MyProxyClient;
using client::RetryPolicy;
using client::ServerBusy;
using gsi::testing::make_trust_store;
using gsi::testing::make_user;
using gsi::testing::test_ca;

constexpr std::string_view kPhrase = "correct horse battery";

gsi::Credential make_host(const std::string& cn) {
  const auto dn =
      pki::DistinguishedName::parse("/C=US/O=Grid/OU=Services/CN=" + cn);
  auto key = crypto::KeyPair::generate(crypto::KeySpec::ec());
  auto cert = test_ca().issue(dn, key, Seconds(365L * 24 * 3600));
  return gsi::Credential(std::move(cert), std::move(key));
}

std::shared_ptr<repository::Repository> make_repo() {
  repository::RepositoryPolicy policy;
  policy.kdf_iterations = 100;
  return std::make_shared<repository::Repository>(
      std::make_unique<repository::MemoryCredentialStore>(), policy);
}

server::ServerConfig base_config() {
  server::ServerConfig config;
  config.accepted_credentials.add("*");
  config.authorized_retrievers.add("*");
  config.worker_threads = 4;
  return config;
}

RetryPolicy no_retry() {
  RetryPolicy policy;
  policy.max_attempts = 1;
  return policy;
}

// --- Greedy vs polite ----------------------------------------------------------

TEST(AdmissionIoTest, GreedyFloodIsShedWhilePoliteClientsSucceed) {
  auto repo = make_repo();
  server::ServerConfig config = base_config();
  // Small per-identity budget: polite clients pace themselves well under
  // it; the greedy identity offers an order of magnitude more.
  config.admission.rate_limit_rps = 5.0;
  config.admission.rate_limit_burst = 2.0;
  server::MyProxyServer server(make_host("admission-myproxy"),
                               make_trust_store(), repo, config);
  server.start();

  std::atomic<int> polite_failures{0};
  std::atomic<int> greedy_ok{0};
  std::atomic<int> greedy_shed{0};
  std::atomic<std::int64_t> max_hint_ms{0};

  const auto polite_loop = [&](const std::string& name) {
    try {
      const auto user = make_user(name);
      const auto proxy = gsi::create_proxy(user);
      MyProxyClient client(proxy, make_trust_store(), server.port(),
                           no_retry());
      client.put(name, kPhrase, proxy);
      for (int i = 0; i < 6; ++i) {
        // 4/s offered against a 5/s budget: never shed. A single refusal
        // (ServerBusy escapes: max_attempts=1) fails the test.
        std::this_thread::sleep_for(Millis(250));
        (void)client.info(name);
      }
    } catch (const std::exception&) {
      polite_failures.fetch_add(1);
    }
  };

  std::thread greedy([&] {
    const auto user = make_user("admission-greedy");
    const auto proxy = gsi::create_proxy(user);
    MyProxyClient client(proxy, make_trust_store(), server.port(),
                         no_retry());
    try {
      client.put("admission-greedy", kPhrase, proxy);
    } catch (const ServerBusy&) {
    }
    for (int i = 0; i < 40; ++i) {
      try {
        (void)client.info("admission-greedy");
        greedy_ok.fetch_add(1);
      } catch (const ServerBusy& e) {
        greedy_shed.fetch_add(1);
        std::int64_t seen = max_hint_ms.load();
        while (e.retry_after().count() > seen &&
               !max_hint_ms.compare_exchange_weak(seen,
                                                  e.retry_after().count())) {
        }
      }
    }
  });
  std::thread polite_a([&] { polite_loop("admission-polite-a"); });
  std::thread polite_b([&] { polite_loop("admission-polite-b"); });
  greedy.join();
  polite_a.join();
  polite_b.join();

  EXPECT_EQ(polite_failures.load(), 0) << "a polite client was shed";
  EXPECT_GT(greedy_shed.load(), 0) << "the flood was never shed";
  EXPECT_GT(greedy_ok.load(), 0) << "the greedy identity was starved out";
  EXPECT_GT(max_hint_ms.load(), 0) << "busy replies carried no hint";
  EXPECT_GE(server.admission().counters().shed_rate,
            static_cast<std::uint64_t>(greedy_shed.load()));
  server.stop();
}

// --- RetryPolicy honors the hint ---------------------------------------------

TEST(AdmissionRetry, ClientRetryPolicyHonorsBusyHint) {
  auto repo = make_repo();
  server::ServerConfig config = base_config();
  // One token per two seconds: the PUT spends the burst and the GET right
  // behind it is shed with a hint of roughly the remaining refill time.
  config.admission.rate_limit_rps = 0.5;
  config.admission.rate_limit_burst = 1.0;
  server::MyProxyServer server(make_host("admission-retry-myproxy"),
                               make_trust_store(), repo, config);
  server.start();

  const auto user = make_user("admission-retry-alice");
  const auto proxy = gsi::create_proxy(user);
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.initial_backoff = Millis(50);
  MyProxyClient client(proxy, make_trust_store(), server.port(), policy);
  client.put("admission-retry-alice", kPhrase, proxy);

  const auto started = std::chrono::steady_clock::now();
  const auto fetched = client.get("admission-retry-alice", kPhrase);
  const auto elapsed = std::chrono::duration_cast<Millis>(
      std::chrono::steady_clock::now() - started);
  EXPECT_EQ(fetched.identity(), user.identity());
  // The op could only succeed by sleeping out the server's retry-after
  // hint (~2 s minus the connection overhead), far beyond the client's own
  // 50 ms starting backoff.
  EXPECT_GE(elapsed.count(), 1000) << "busy hint was not honored";
  EXPECT_GE(server.admission().counters().shed_rate, 1u);
  server.stop();
}

// --- Per-identity top-K accounting -------------------------------------------

TEST(AdmissionTopIdentities, StatsNameTheHeaviestShedderFirst) {
  auto repo = make_repo();
  server::ServerConfig config = base_config();
  // One token every two seconds: the first op per identity is served off
  // the burst, everything offered behind it is shed.
  config.admission.rate_limit_rps = 0.5;
  config.admission.rate_limit_burst = 1.0;
  server::MyProxyServer server(make_host("admission-topk-myproxy"),
                               make_trust_store(), repo, config);
  server.start();

  const auto greedy = make_user("admission-topk-greedy");
  const auto greedy_proxy = gsi::create_proxy(greedy);
  MyProxyClient greedy_client(greedy_proxy, make_trust_store(), server.port(),
                              no_retry());
  greedy_client.put("admission-topk-greedy", kPhrase, greedy_proxy);
  int greedy_shed = 0;
  for (int i = 0; i < 8; ++i) {
    try {
      (void)greedy_client.info("admission-topk-greedy");
    } catch (const ServerBusy&) {
      ++greedy_shed;
    }
  }
  ASSERT_GT(greedy_shed, 0);

  const auto polite = make_user("admission-topk-polite");
  const auto polite_proxy = gsi::create_proxy(polite);
  MyProxyClient polite_client(polite_proxy, make_trust_store(), server.port(),
                              no_retry());
  polite_client.put("admission-topk-polite", kPhrase, polite_proxy);

  // STATS is exempt from admission, so the snapshot itself cannot be shed.
  const auto stats = polite_client.server_stats();
  ASSERT_TRUE(stats.contains("ADMISSION_TOP0"));
  const std::string& top = stats.at("ADMISSION_TOP0");
  // "served=N shed=M <identity>", heaviest shedder first: only the greedy
  // identity was ever refused, so it must lead the board.
  EXPECT_NE(top.find("admission-topk-greedy"), std::string::npos) << top;
  EXPECT_NE(top.find("served="), std::string::npos) << top;
  const auto shed_pos = top.find("shed=");
  ASSERT_NE(shed_pos, std::string::npos) << top;
  const int shed = std::stoi(top.substr(shed_pos + 5));
  EXPECT_GE(shed, greedy_shed) << top;

  // The polite identity appears further down with zero sheds.
  bool polite_listed = false;
  for (int rank = 1; rank < 8; ++rank) {
    const auto it = stats.find("ADMISSION_TOP" + std::to_string(rank));
    if (it == stats.end()) break;
    if (it->second.find("admission-topk-polite") != std::string::npos) {
      polite_listed = true;
      EXPECT_NE(it->second.find("shed=0"), std::string::npos) << it->second;
    }
  }
  EXPECT_TRUE(polite_listed);
  server.stop();
}

// --- SIGHUP hot reload --------------------------------------------------------

TEST(AdmissionReload, SighupTightensLimitsWithoutDroppingSessions) {
  const std::filesystem::path config_path =
      std::filesystem::path(::testing::TempDir()) /
      "myproxy-admission-reload.config";
  std::ofstream(config_path) << "rate_limit_rps 100\n"
                             << "rate_limit_burst 100\n";

  auto repo = make_repo();
  server::ServerConfig config = base_config();
  config.admission.rate_limit_rps = 100.0;
  config.admission.rate_limit_burst = 100.0;
  config.config_file = config_path;
  server::MyProxyServer server(make_host("admission-reload-myproxy"),
                               make_trust_store(), repo, config);
  server.start();
  ASSERT_DOUBLE_EQ(server.admission_limits().rate_limit_rps, 100.0);

  const auto user = make_user("admission-reload-alice");
  const auto proxy = gsi::create_proxy(user);
  MyProxyClient client(proxy, make_trust_store(), server.port());
  client.put("admission-reload-alice", kPhrase, proxy);
  EXPECT_EQ(client.get("admission-reload-alice", kPhrase).identity(),
            user.identity());

  // Tighten on disk, then poke the running server. A loop-0 timer polls
  // the signal generation every 100 ms.
  std::ofstream(config_path) << "rate_limit_rps 2\n"
                             << "rate_limit_burst 1\n";
  ASSERT_EQ(std::raise(SIGHUP), 0);
  bool reloaded = false;
  for (int i = 0; i < 50 && !reloaded; ++i) {
    reloaded = server.admission_limits().rate_limit_rps == 2.0;
    std::this_thread::sleep_for(Millis(100));
  }
  ASSERT_TRUE(reloaded) << "SIGHUP reload never applied";

  // The established client (cached TLS session) still completes: the
  // tightened bucket clamps to one token, which this op spends.
  EXPECT_EQ(client.get("admission-reload-alice", kPhrase).identity(),
            user.identity());
  EXPECT_GE(client.resumed_connections(), 1u);

  // The next burst is shed under the new limit.
  client.set_retry_policy(no_retry());
  int sheds = 0;
  for (int i = 0; i < 5; ++i) {
    try {
      (void)client.info("admission-reload-alice");
    } catch (const ServerBusy&) {
      ++sheds;
    }
  }
  EXPECT_GE(sheds, 1) << "tightened limit never bit";

  // A bad config on disk must keep the running limits, not kill them.
  std::ofstream(config_path) << "rate_limit_rps banana\n";
  ASSERT_EQ(std::raise(SIGHUP), 0);
  std::this_thread::sleep_for(Millis(400));
  EXPECT_DOUBLE_EQ(server.admission_limits().rate_limit_rps, 2.0);
  server.stop();
}

// --- Pre-auth per-address gate ------------------------------------------------

TEST(AdmissionPreauth, AcceptPathShedsConnectStorm) {
  auto repo = make_repo();
  server::ServerConfig config = base_config();
  config.admission.preauth_rate_limit_rps = 1.0;
  config.admission.preauth_rate_limit_burst = 2.0;
  server::MyProxyServer server(make_host("admission-preauth-myproxy"),
                               make_trust_store(), repo, config);
  server.start();

  // Raw connects, no TLS: the gate sits right after accept, so the storm
  // costs the server nothing but an accept — never a handshake.
  for (int i = 0; i < 10; ++i) {
    try {
      net::Socket socket = net::tcp_connect(server.port());
      socket.close();
    } catch (const IoError&) {
      // A shed connection may RST before connect() returns; that is the
      // point of the gate, not a failure.
    }
  }
  std::uint64_t shed = 0;
  for (int i = 0; i < 100 && shed == 0; ++i) {
    shed = server.admission().counters().preauth_shed;
    std::this_thread::sleep_for(Millis(20));
  }
  EXPECT_GE(shed, 1u) << "connect storm was never shed";
  EXPECT_GE(server.admission().counters().preauth_accepted, 1u);
  EXPECT_EQ(server.stats().full_handshakes.load(), 0u)
      << "the storm was charged a TLS handshake";
  server.stop();
}

TEST(AdmissionPreauth, ReactorPathShedsAfterHandshake) {
  auto repo = make_repo();
  server::ServerConfig config = base_config();
  config.reactor_threads = 2;
  // One connection per five seconds after a burst of two: the third
  // one-command connection in quick succession is refused at accept.
  config.admission.preauth_rate_limit_rps = 0.2;
  config.admission.preauth_rate_limit_burst = 2.0;
  server::MyProxyServer server(make_host("admission-preauth-reactor"),
                               make_trust_store(), repo, config);
  server.start();

  const auto user = make_user("admission-preauth-alice");
  const auto proxy = gsi::create_proxy(user);
  MyProxyClient client(proxy, make_trust_store(), server.port(), no_retry());
  client.put("admission-preauth-alice", kPhrase, proxy);  // token 1
  EXPECT_EQ(client.get("admission-preauth-alice", kPhrase).identity(),
            user.identity());  // token 2
  // The gate refuses before the TLS handshake, so the busy note arrives as
  // a plaintext frame a TLS client cannot read: the refusal surfaces as a
  // transport error (or, had the handshake been reached, a busy reply).
  int refusals = 0;
  for (int i = 0; i < 3; ++i) {
    try {
      (void)client.info("admission-preauth-alice");
    } catch (const ServerBusy&) {
      ++refusals;
    } catch (const IoError&) {
      ++refusals;
    }
  }
  EXPECT_GE(refusals, 1);
  EXPECT_GE(server.admission().counters().preauth_shed, 1u);
  server.stop();
}

}  // namespace
}  // namespace myproxy
