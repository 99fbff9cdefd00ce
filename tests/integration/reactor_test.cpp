// Reactor integration tests: the epoll front end reaps by deadline,
// tolerates hostile bytes, resumes sessions and carries concurrent load,
// while idle connections cost state, not workers.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "client/myproxy_client.hpp"
#include "common/error.hpp"
#include "gsi/gsi_fixtures.hpp"
#include "gsi/proxy.hpp"
#include "net/channel.hpp"
#include "server/myproxy_server.hpp"

namespace myproxy {
namespace {

using client::MyProxyClient;
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

TEST(ReactorConfig, IoModelStringsRoundTrip) {
  EXPECT_EQ(server::io_model_from_string("reactor"),
            server::IoModel::kReactor);
  EXPECT_EQ(server::to_string(server::IoModel::kReactor), "reactor");
  // The thread-per-connection front end is gone; asking for it is a
  // configuration error that names the removal.
  try {
    (void)server::io_model_from_string("threaded");
    ADD_FAILURE() << "io_model=threaded was accepted";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("removed"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW((void)server::io_model_from_string("fibers"), ConfigError);
}

class ReactorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    repository::RepositoryPolicy policy;
    policy.kdf_iterations = 100;
    repo_ = std::make_shared<repository::Repository>(
        std::make_unique<repository::MemoryCredentialStore>(), policy);
    server::ServerConfig config;
    config.accepted_credentials.add("*");
    config.authorized_retrievers.add("*");
    config.reactor_threads = 2;
    // Few workers on purpose: the tests below park far more connections
    // than this in the handshake/read phases.
    config.worker_threads = 2;
    config.max_connections = 512;
    config.handshake_timeout = Millis(1000);
    config.request_timeout = Millis(1000);
    server_ = std::make_unique<server::MyProxyServer>(
        make_host("reactor-myproxy"), make_trust_store(), repo_, config);
    server_->start();
  }

  void TearDown() override { server_->stop(); }

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

TEST_F(ReactorTest, ServesPutAndGetEndToEnd) {
  const auto alice = make_user("re-basic-alice");
  store_alice(alice);
  expect_server_alive(alice);
  EXPECT_GE(server_->stats().connections.load(), 2u);
  EXPECT_EQ(server_->stats().gets.load(), 1u);
}

TEST_F(ReactorTest, IdleConnectionsDoNotPinWorkers) {
  // The reactor's reason to exist: with only two workers, sixteen silent
  // connections sit in the event loop's handshake phase while a healthy
  // client is served immediately — no waiting for a deadline to free a
  // pinned thread (a thread-per-connection server would stall here for the
  // full handshake_timeout).
  const auto alice = make_user("re-idle-alice");
  store_alice(alice);
  std::vector<net::Socket> idle;
  idle.reserve(16);
  for (int i = 0; i < 16; ++i) {
    idle.push_back(net::tcp_connect(server_->port()));
  }
  expect_server_alive(alice);
  for (auto& socket : idle) socket.close();
}

TEST_F(ReactorTest, SlowlorisConnectionsAreReapedByHandshakeTimer) {
  const auto alice = make_user("re-slow-alice");
  store_alice(alice);
  std::vector<net::Socket> attackers;
  attackers.reserve(8);
  for (int i = 0; i < 8; ++i) {
    attackers.push_back(net::tcp_connect(server_->port()));
  }
  bool reaped = false;
  for (int i = 0; i < 200 && !reaped; ++i) {
    reaped = server_->stats().timeouts.load() >= 8;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_TRUE(reaped) << "handshake timer reaped only "
                      << server_->stats().timeouts.load() << " of 8";
  for (auto& socket : attackers) socket.close();
  expect_server_alive(alice);
}

TEST_F(ReactorTest, SilentAfterHandshakeIsReapedByRequestTimer) {
  // Handshake completes on the event loop, then the client never sends a
  // request: the per-request timer (not a worker's SO_RCVTIMEO) must fire.
  const auto alice = make_user("re-noreq-alice");
  store_alice(alice);
  const auto timeouts_before = server_->stats().timeouts.load();
  const auto proxy = gsi::create_proxy(alice);
  const tls::TlsContext ctx = tls::TlsContext::make(proxy);
  auto channel =
      tls::TlsChannel::connect(ctx, net::tcp_connect(server_->port()));
  // Fully handshaken, now hold the line silently.
  bool reaped = false;
  for (int i = 0; i < 100 && !reaped; ++i) {
    reaped = server_->stats().timeouts.load() > timeouts_before;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_TRUE(reaped) << "request timer never fired";
  channel->close();
  expect_server_alive(alice);
}

TEST_F(ReactorTest, MidRequestStallIsReapedOnTheWorkerSide) {
  // Past the handoff the blocking path's deadlines take over: a client
  // that starts a PUT, receives the CSR, then goes silent must be reaped
  // and leave no record behind.
  const auto alice = make_user("re-stall-alice");
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
  (void)channel->receive();  // the CSR — now hang
  bool reaped = false;
  for (int i = 0; i < 100 && !reaped; ++i) {
    reaped = server_->stats().timeouts.load() > timeouts_before;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_TRUE(reaped) << "worker-side request deadline never fired";
  channel->close();
  EXPECT_EQ(repo_->size(), 0u);
  store_alice(alice);
  expect_server_alive(alice);
}

TEST_F(ReactorTest, GarbageBytesAreCountedAndSurvived) {
  const auto alice = make_user("re-garbage-alice");
  store_alice(alice);
  for (int i = 0; i < 5; ++i) {
    net::Socket socket = net::tcp_connect(server_->port());
    socket.write_all("GET / HTTP/1.0\r\n\r\n\x00\xff\x13garbage");
    socket.close();
  }
  // The TLS layer rejects the bytes on the event loop; the server stays up.
  expect_server_alive(alice);
}

TEST_F(ReactorTest, SessionResumptionRidesTheEventLoopHandshake) {
  // An abbreviated (ticket) handshake is still driven by handshake_step();
  // the sealed identity must come out the other side exactly as on the
  // blocking path.
  const auto alice = make_user("re-resume-alice");
  store_alice(alice);
  auto portal = MyProxyClient(
      gsi::create_proxy(make_user("re-resume-portal")), make_trust_store(),
      server_->port());
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(portal.get("alice", kPhrase).identity(), alice.identity());
  }
  EXPECT_EQ(portal.full_connections(), 1u);
  EXPECT_EQ(portal.resumed_connections(), 2u);
  EXPECT_GE(server_->stats().resumed_handshakes.load(), 2u);
}

TEST_F(ReactorTest, ConcurrentClientsAllSucceed) {
  const auto alice = make_user("re-conc-alice");
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

}  // namespace
}  // namespace myproxy
