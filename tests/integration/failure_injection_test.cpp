// Failure injection against the running server: hostile bytes, aborted
// protocol flows, concurrent load, restarts. The repository is a production
// service (§3.3) — one misbehaving client must never take it down.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <thread>

#include <unistd.h>

#include "client/myproxy_client.hpp"
#include "common/error.hpp"
#include "gsi/gsi_fixtures.hpp"
#include "gsi/proxy.hpp"
#include "net/channel.hpp"
#include "protocol/message.hpp"
#include "server/myproxy_server.hpp"
#include "tls/tls_channel.hpp"

namespace myproxy {
namespace {

using client::GetOptions;
using client::MyProxyClient;
using client::PutOptions;
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

class FailureInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    repository::RepositoryPolicy policy;
    policy.kdf_iterations = 100;
    repo_ = std::make_shared<repository::Repository>(
        std::make_unique<repository::MemoryCredentialStore>(), policy);
    server::ServerConfig config;
    config.accepted_credentials.add("*");
    config.authorized_retrievers.add("*");
    config.worker_threads = 4;
    // Short deadlines so hostile clients are reaped within the test budget.
    config.handshake_timeout = Millis(1000);
    config.request_timeout = Millis(1000);
    server_ = std::make_unique<server::MyProxyServer>(
        make_host("fi-myproxy"), make_trust_store(), repo_, config);
    server_->start();
  }

  void TearDown() override { server_->stop(); }

  /// A stored credential plus a portal client ready to GET it.
  void store_alice(const gsi::Credential& alice) {
    const auto proxy = gsi::create_proxy(alice);
    MyProxyClient client(proxy, make_trust_store(), server_->port());
    client.put("alice", kPhrase, proxy);
  }

  void expect_server_alive(const gsi::Credential& alice) {
    const auto proxy = gsi::create_proxy(alice);
    MyProxyClient client(proxy, make_trust_store(), server_->port());
    EXPECT_EQ(client.get("alice", kPhrase).identity(), alice.identity());
  }

  std::shared_ptr<repository::Repository> repo_;
  std::unique_ptr<server::MyProxyServer> server_;
};

TEST_F(FailureInjectionTest, RawGarbageBytesDoNotKillServer) {
  const auto alice = make_user("fi-garbage-alice");
  store_alice(alice);
  // Not even a TLS handshake — just noise on the port.
  for (int i = 0; i < 5; ++i) {
    net::Socket socket = net::tcp_connect(server_->port());
    socket.write_all("GET / HTTP/1.0\r\n\r\n\x00\xff\x13garbage");
    socket.close();
  }
  expect_server_alive(alice);
}

TEST_F(FailureInjectionTest, ImmediateDisconnectDoesNotKillServer) {
  const auto alice = make_user("fi-disc-alice");
  store_alice(alice);
  for (int i = 0; i < 10; ++i) {
    net::Socket socket = net::tcp_connect(server_->port());
    socket.close();
  }
  expect_server_alive(alice);
}

TEST_F(FailureInjectionTest, AbortedPutLeavesNothingBehind) {
  // Client authenticates, starts a PUT, receives the server's CSR, then
  // vanishes without sending the chain. No record may appear.
  const auto alice = make_user("fi-abort-alice");
  const auto proxy = gsi::create_proxy(alice);
  {
    const tls::TlsContext ctx = tls::TlsContext::make(proxy);
    auto channel =
        tls::TlsChannel::connect(ctx, net::tcp_connect(server_->port()));
    protocol::Request request;
    request.command = protocol::Command::kPut;
    request.username = "abandoned";
    request.passphrase = std::string(kPhrase);
    channel->send(request.serialize());
    const auto ok = protocol::Response::parse(channel->receive());
    ASSERT_TRUE(ok.ok());
    (void)channel->receive();  // the CSR
    channel->close();          // ...and walk away
  }
  // Give the worker a moment to unwind.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(repo_->size(), 0u);
  store_alice(alice);
  expect_server_alive(alice);
}

TEST_F(FailureInjectionTest, MalformedRequestGetsErrorResponse) {
  const auto alice = make_user("fi-malformed-alice");
  store_alice(alice);
  const auto proxy = gsi::create_proxy(alice);
  const tls::TlsContext ctx = tls::TlsContext::make(proxy);
  auto channel =
      tls::TlsChannel::connect(ctx, net::tcp_connect(server_->port()));
  channel->send("COMPLETELY=WRONG\nnot a real request\n");
  const auto response = protocol::Response::parse(channel->receive());
  EXPECT_FALSE(response.ok());
  EXPECT_GE(server_->stats().protocol_errors.load(), 1u);
  expect_server_alive(alice);
}

TEST_F(FailureInjectionTest, RepeatedBadPassphrasesAreAuditable) {
  // §5.1: "the required delay allows ... the intrusion to be detected."
  const auto alice = make_user("fi-audit-alice");
  store_alice(alice);
  const auto portal = gsi::create_proxy(make_user("fi-audit-portal"));
  MyProxyClient client(portal, make_trust_store(), server_->port());
  const TimePoint attack_start = now();
  for (int i = 0; i < 5; ++i) {
    EXPECT_THROW((void)client.get("alice", "guess-" + std::to_string(i)),
                 Error);
  }
  EXPECT_GE(server_->audit().failures_for("alice", attack_start), 5u);
  // Legitimate access still works and is recorded as success.
  expect_server_alive(alice);
  const auto successes =
      server_->audit().events_with(server::AuditOutcome::kSuccess);
  EXPECT_FALSE(successes.empty());
}

TEST_F(FailureInjectionTest, ConcurrentClientsAllSucceed) {
  const auto alice = make_user("fi-conc-alice");
  store_alice(alice);
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 5;
  std::atomic<int> successes{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, &successes, &alice] {
      const auto proxy = gsi::create_proxy(alice);
      MyProxyClient client(proxy, make_trust_store(), server_->port());
      for (int i = 0; i < kOpsPerThread; ++i) {
        if (client.get("alice", kPhrase).identity() == alice.identity()) {
          ++successes;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(successes.load(), kThreads * kOpsPerThread);
  EXPECT_GE(server_->stats().gets.load(),
            static_cast<std::uint64_t>(kThreads * kOpsPerThread));
}

TEST_F(FailureInjectionTest, SlowlorisConnectionsAreReapedByHandshakeDeadline) {
  // Clients that complete the TCP connect but never speak TLS would pin one
  // worker each forever without the handshake deadline. With all four
  // workers under attack, a healthy client must still get served once the
  // deadline reaps the attackers.
  const auto alice = make_user("fi-slowloris-alice");
  store_alice(alice);
  std::vector<net::Socket> attackers;
  attackers.reserve(4);
  for (int i = 0; i < 4; ++i) {
    attackers.push_back(net::tcp_connect(server_->port()));
  }
  // The healthy client queues behind the attackers and is served as soon as
  // the 1s handshake deadline frees the workers.
  expect_server_alive(alice);
  bool reaped = false;
  for (int i = 0; i < 200 && !reaped; ++i) {
    reaped = server_->stats().timeouts.load() >= 4;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_TRUE(reaped) << "handshake deadline reaped only "
                      << server_->stats().timeouts.load() << " of 4";
  for (auto& socket : attackers) socket.close();
  expect_server_alive(alice);
}

TEST_F(FailureInjectionTest, MidRequestStallIsReapedByRequestDeadline) {
  // A client that authenticates, starts a PUT, receives the server's CSR,
  // then goes silent while holding the connection open: the per-request
  // deadline must free the worker and no record may appear.
  const auto alice = make_user("fi-stall-alice");
  const auto proxy = gsi::create_proxy(alice);
  const auto timeouts_before = server_->stats().timeouts.load();
  const tls::TlsContext ctx = tls::TlsContext::make(proxy);
  auto channel =
      tls::TlsChannel::connect(ctx, net::tcp_connect(server_->port()));
  protocol::Request request;
  request.command = protocol::Command::kPut;
  request.username = "stalled";
  request.passphrase = std::string(kPhrase);
  channel->send(request.serialize());
  const auto ok = protocol::Response::parse(channel->receive());
  ASSERT_TRUE(ok.ok());
  (void)channel->receive();  // the CSR — now hang, connection still open
  bool reaped = false;
  for (int i = 0; i < 100 && !reaped; ++i) {
    reaped = server_->stats().timeouts.load() > timeouts_before;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_TRUE(reaped) << "request deadline never fired";
  channel->close();
  EXPECT_EQ(repo_->size(), 0u);
  store_alice(alice);
  expect_server_alive(alice);
}

TEST(ConnectionCap, ExcessConnectionsAreShedWithBusyResponse) {
  repository::RepositoryPolicy policy;
  policy.kdf_iterations = 100;
  auto repo = std::make_shared<repository::Repository>(
      std::make_unique<repository::MemoryCredentialStore>(), policy);
  server::ServerConfig config;
  config.accepted_credentials.add("*");
  config.authorized_retrievers.add("*");
  config.worker_threads = 2;
  config.max_connections = 2;
  config.handshake_timeout = Millis(2000);
  server::MyProxyServer server(make_host("fi-cap-myproxy"),
                               make_trust_store(), repo, config);
  server.start();

  // Two silent connections fill the in-flight budget.
  net::Socket pin1 = net::tcp_connect(server.port());
  net::Socket pin2 = net::tcp_connect(server.port());
  std::this_thread::sleep_for(std::chrono::milliseconds(150));

  // The third is shed immediately with a framed "busy" error instead of
  // waiting behind the pinned workers.
  net::Socket third = net::tcp_connect(server.port());
  third.set_read_timeout(std::chrono::milliseconds(2000));
  net::PlainChannel channel(std::move(third));
  const auto response = protocol::Response::parse(channel.receive());
  EXPECT_FALSE(response.ok());
  EXPECT_NE(response.error.find("busy"), std::string::npos) << response.error;
  EXPECT_GE(server.stats().shed_connections.load(), 1u);

  pin1.close();
  pin2.close();
  server.stop();
}

TEST(ConnectionCapBurst, SimultaneousConnectsNeverExceedTheCap) {
  repository::RepositoryPolicy policy;
  policy.kdf_iterations = 100;
  auto repo = std::make_shared<repository::Repository>(
      std::make_unique<repository::MemoryCredentialStore>(), policy);
  server::ServerConfig config;
  config.accepted_credentials.add("*");
  config.authorized_retrievers.add("*");
  config.worker_threads = 2;
  config.max_connections = 4;
  config.handshake_timeout = Millis(500);
  server::MyProxyServer server(make_host("fi-burst-myproxy"),
                               make_trust_store(), repo, config);
  server.start();

  // A stampede of simultaneous silent connects. Admission used to read
  // in_flight_ first and increment it later, so a burst arriving between
  // the two could race every member past the cap; the reservation must be
  // a single atomic claim. peak_in_flight records the high-water mark of
  // *reserved* slots, so any overshoot is visible even if transient.
  constexpr int kBurst = 24;
  std::vector<std::thread> threads;
  threads.reserve(kBurst);
  for (int i = 0; i < kBurst; ++i) {
    threads.emplace_back([&server] {
      try {
        net::Socket socket = net::tcp_connect(server.port());
        // Stay silent so admitted connections remain in flight until the
        // handshake deadline reaps them.
        std::this_thread::sleep_for(std::chrono::milliseconds(700));
        socket.close();
      } catch (const std::exception&) {
        // Refused/reset connections are fine; the cap is what matters.
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_LE(server.stats().peak_in_flight.load(), 4u);
  EXPECT_GE(server.stats().shed_connections.load(), 1u);
  server.stop();
}

TEST(ClientRetry, SucceedsAfterServerComesBack) {
  const auto host = make_host("fi-retry-myproxy");
  repository::RepositoryPolicy policy;
  policy.kdf_iterations = 100;
  auto repo = std::make_shared<repository::Repository>(
      std::make_unique<repository::MemoryCredentialStore>(), policy);
  const auto make_server = [&](std::uint16_t port) {
    server::ServerConfig config;
    config.accepted_credentials.add("*");
    config.authorized_retrievers.add("*");
    config.port = port;
    return std::make_unique<server::MyProxyServer>(host, make_trust_store(),
                                                   repo, config);
  };

  auto first = make_server(0);
  first->start();
  const std::uint16_t port = first->port();
  const auto alice = make_user("fi-retry-alice");
  {
    const auto proxy = gsi::create_proxy(alice);
    MyProxyClient client(proxy, make_trust_store(), port);
    client.put("alice", kPhrase, proxy);
  }
  first->stop();

  // Bring a replacement up on the same port (same repository) after a gap
  // longer than the first couple of backoff sleeps.
  std::unique_ptr<server::MyProxyServer> second;
  std::thread restarter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    second = make_server(port);
    second->start();
  });

  client::RetryPolicy retry;
  retry.max_attempts = 20;
  retry.initial_backoff = Millis(100);
  retry.max_backoff = Millis(200);
  const auto proxy = gsi::create_proxy(alice);
  MyProxyClient client(proxy, make_trust_store(), port, retry);
  EXPECT_EQ(client.get("alice", kPhrase).identity(), alice.identity());

  restarter.join();
  second->stop();
}

TEST(ClientRetry, GivesUpWithClearErrorAfterMaxAttempts) {
  // Grab an ephemeral port, then close the listener so nothing is bound.
  std::uint16_t dead_port;
  {
    net::TcpListener listener = net::TcpListener::bind(0);
    dead_port = listener.port();
    listener.close();
  }
  client::RetryPolicy retry;
  retry.max_attempts = 2;
  retry.initial_backoff = Millis(50);
  retry.max_backoff = Millis(100);
  const auto user = make_user("fi-giveup-user");
  const auto proxy = gsi::create_proxy(user);
  MyProxyClient client(proxy, make_trust_store(), dead_port, retry);
  try {
    (void)client.get("nobody", kPhrase);
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("2 attempt"), std::string::npos)
        << e.what();
  }
}

TEST(ClientRetry, MaxAttemptsBoundsConnectionsToAnEndpoint) {
  // A fake repository alternating the two failures the client retries:
  // odd connections are closed during the handshake (no request sent),
  // even ones are refused busy with a short hint. However they mix,
  // max_attempts bounds the connections to the endpoint.
  net::TcpListener listener = net::TcpListener::bind(0);
  const std::uint16_t port = listener.port();
  const auto context = tls::TlsContext::make(make_host("fi-busy-myproxy"));
  std::atomic<bool> done{false};
  int accepted = 0;
  std::thread fake([&] {
    for (;;) {
      net::Socket socket = listener.accept();
      if (done.load()) return;
      if (++accepted % 2 == 1) continue;  // closed mid-handshake
      try {
        auto channel =
            tls::TlsChannel::accept(context, std::move(socket), Millis(5000));
        (void)channel->receive();
        auto busy = protocol::Response::make_error("server busy");
        busy.fields["BUSY"] = "1";
        busy.fields["RETRY_AFTER_MS"] = "10";
        channel->send(busy.serialize());
      } catch (const Error&) {
      }
    }
  });

  client::RetryPolicy retry;
  retry.max_attempts = 4;
  retry.initial_backoff = Millis(10);
  retry.max_backoff = Millis(20);
  const auto user = make_user("fi-busy-user");
  const auto proxy = gsi::create_proxy(user);
  MyProxyClient client(proxy, make_trust_store(), port, retry);
  EXPECT_THROW((void)client.get("alice", kPhrase), client::ServerBusy);

  done = true;
  (void)net::tcp_connect(port);  // wake the fake repository's accept
  fake.join();
  EXPECT_LE(accepted, 4);
}

TEST(BackgroundSweeper, RemovesExpiredRecordsWhileServing) {
  repository::RepositoryPolicy policy;
  policy.kdf_iterations = 100;
  auto repo = std::make_shared<repository::Repository>(
      std::make_unique<repository::MemoryCredentialStore>(), policy);
  server::ServerConfig config;
  config.accepted_credentials.add("*");
  config.authorized_retrievers.add("*");
  config.sweep_interval = Seconds(1);  // fast sweeps for the test
  server::MyProxyServer server(make_host("fi-sweep-myproxy"),
                               make_trust_store(), repo, config);
  server.start();

  const auto alice = make_user("fi-sweep-alice");
  {
    const auto proxy = gsi::create_proxy(alice);
    MyProxyClient client(proxy, make_trust_store(), server.port());
    PutOptions options;
    options.stored_lifetime = Seconds(60);
    client.put("alice", kPhrase, proxy, options);
  }
  ASSERT_EQ(repo->size(), 1u);

  // Warp time past expiry; the background sweeper (real-time period) must
  // pick it up within a few periods.
  VirtualClock::instance().advance(Seconds(3600));
  bool swept = false;
  for (int i = 0; i < 100 && !swept; ++i) {
    swept = repo->size() == 0;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  VirtualClock::instance().reset();
  server.stop();
  EXPECT_TRUE(swept);
}

TEST(FileStorePersistence, CredentialsSurviveServerRestart) {
  // A repository restart (FileCredentialStore) must not lose pass-phrase-
  // sealed records — the at-rest format is self-contained.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("myproxy-restart-test-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  const auto alice = make_user("fi-restart-alice");
  const auto host = make_host("fi-restart-myproxy");

  const auto make_server = [&] {
    repository::RepositoryPolicy policy;
    policy.kdf_iterations = 100;
    auto repo = std::make_shared<repository::Repository>(
        std::make_unique<repository::FileCredentialStore>(dir), policy);
    server::ServerConfig config;
    config.accepted_credentials.add("*");
    config.authorized_retrievers.add("*");
    return std::make_unique<server::MyProxyServer>(host, make_trust_store(),
                                                   repo, config);
  };

  {
    auto server = make_server();
    server->start();
    const auto proxy = gsi::create_proxy(alice);
    MyProxyClient client(proxy, make_trust_store(), server->port());
    client.put("alice", kPhrase, proxy);
    server->stop();
  }
  {
    auto server = make_server();
    server->start();
    const auto portal = gsi::create_proxy(make_user("fi-restart-portal"));
    MyProxyClient client(portal, make_trust_store(), server->port());
    EXPECT_EQ(client.get("alice", kPhrase).identity(), alice.identity());
    EXPECT_THROW((void)client.get("alice", "wrong"), Error);
    server->stop();
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace myproxy
