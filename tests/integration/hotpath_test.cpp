// Hot-path optimizations end to end: keypair pre-generation pool, TLS
// session resumption, and the credential-store read cache — with the
// security properties that must survive them (per-request ACLs on resumed
// connections, no tickets for restricted identities, cache invalidation
// on pass-phrase change / OTP advance / destroy).
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include "client/myproxy_client.hpp"
#include "common/error.hpp"
#include "crypto/keypair_pool.hpp"
#include "crypto/random.hpp"
#include "gsi/gsi_fixtures.hpp"
#include "gsi/proxy.hpp"
#include "repository/cached_store.hpp"
#include "repository/otp.hpp"
#include "server/myproxy_server.hpp"

namespace myproxy {
namespace {

using client::GetOptions;
using client::MyProxyClient;
using client::PutOptions;
using gsi::testing::make_trust_store;
using gsi::testing::make_user;
using gsi::testing::test_ca;
using server::MyProxyServer;
using server::ServerConfig;

constexpr std::string_view kPhrase = "correct horse battery";

class HotPathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test process: ctest runs cases in parallel and a shared
    // directory would let one case wipe another's store mid-flight.
    storage_dir_ = std::filesystem::temp_directory_path() /
                   ("myproxy-hotpath-" + crypto::random_hex(8));
    std::filesystem::remove_all(storage_dir_);

    // The production stack under test: file store behind the read cache.
    auto cached = std::make_unique<repository::CachedCredentialStore>(
        std::make_unique<repository::FileCredentialStore>(storage_dir_),
        /*shards=*/4);
    cache_ = cached.get();

    repository::RepositoryPolicy policy;
    policy.kdf_iterations = 100;  // fast tests; cost swept in BM_AtRest_*
    repo_ = std::make_shared<repository::Repository>(std::move(cached),
                                                     policy);

    ServerConfig config;
    config.accepted_credentials.add("/C=US/O=Grid/OU=People/*");
    config.authorized_retrievers.add("/C=US/O=Grid/OU=People/*");
    config.authorized_retrievers.add("/C=US/O=Grid/OU=Portals/*");
    config.authorized_renewers.add("/C=US/O=Grid/OU=Services/*");
    config.worker_threads = 2;
    config.keygen_pool_size = 4;
    config.tls_session_resumption = true;

    server_host_ = std::make_unique<gsi::Credential>(make_service(
        "/C=US/O=Grid/OU=Services/CN=myproxy.hotpath.test"));
    server_ = std::make_unique<MyProxyServer>(*server_host_,
                                              make_trust_store(), repo_,
                                              std::move(config));
    server_->start();
  }

  void TearDown() override {
    server_->stop();
    std::filesystem::remove_all(storage_dir_);
  }

  static gsi::Credential make_service(const std::string& dn_text) {
    const auto dn = pki::DistinguishedName::parse(dn_text);
    auto key = crypto::KeyPair::generate(crypto::KeySpec::ec());
    auto cert = test_ca().issue(dn, key, Seconds(365L * 24 * 3600));
    return gsi::Credential(std::move(cert), std::move(key));
  }

  static gsi::Credential make_portal(const std::string& cn) {
    return make_service("/C=US/O=Grid/OU=Portals/CN=" + cn);
  }

  MyProxyClient client_for(const gsi::Credential& credential) {
    return MyProxyClient(credential, make_trust_store(), server_->port());
  }

  void put_credential(const gsi::Credential& user,
                      const std::string& username, PutOptions options = {}) {
    const auto proxy = gsi::create_proxy(user);
    auto client = client_for(proxy);
    options.stored_lifetime = Seconds(24 * 3600);
    client.put(username, kPhrase, proxy, options);
  }

  std::filesystem::path storage_dir_;
  repository::CachedCredentialStore* cache_ = nullptr;
  std::shared_ptr<repository::Repository> repo_;
  std::unique_ptr<gsi::Credential> server_host_;
  std::unique_ptr<MyProxyServer> server_;
};

// ---------------------------------------------------------------- resumption

TEST_F(HotPathTest, RepeatClientResumesSessions) {
  const auto alice = make_user("hp-res-alice");
  put_credential(alice, "alice");

  auto portal = client_for(make_portal("portal-res"));
  for (int i = 0; i < 3; ++i) {
    const auto delegated = portal.get("alice", kPhrase);
    EXPECT_EQ(delegated.identity(), alice.identity());
  }

  // First connection: full handshake; the next two ride the ticket.
  EXPECT_EQ(portal.full_connections(), 1u);
  EXPECT_EQ(portal.resumed_connections(), 2u);
  EXPECT_GE(server_->stats().resumed_handshakes.load(), 2u);
  EXPECT_EQ(server_->stats().gets.load(), 3u);
}

TEST_F(HotPathTest, ResumedConnectionStillVerifiesDelegations) {
  // The credential delegated over a resumed connection is a real,
  // verifiable proxy chain — resumption skips the handshake, not the
  // delegation protocol.
  const auto alice = make_user("hp-resver-alice");
  put_credential(alice, "alice");
  auto portal = client_for(make_portal("portal-resver"));
  (void)portal.get("alice", kPhrase);
  const auto delegated = portal.get("alice", kPhrase);
  ASSERT_GE(portal.resumed_connections(), 1u);

  const auto store = make_trust_store();
  const auto id = store.verify(delegated.full_chain());
  EXPECT_EQ(id.identity, alice.identity());
}

TEST_F(HotPathTest, ResumedConnectionStillEnforcesRetrieverAcl) {
  // A peer that authenticates fine but is not in authorized_retrievers is
  // refused on the full handshake AND on every resumed connection: the
  // ticket carries identity, never authorization.
  const auto alice = make_user("hp-acl-alice");
  put_credential(alice, "alice");

  const auto outsider =
      make_service("/C=US/O=Grid/OU=Outsiders/CN=not-a-portal");
  auto client = client_for(outsider);
  EXPECT_THROW((void)client.get("alice", kPhrase), Error);
  EXPECT_THROW((void)client.get("alice", kPhrase), Error);
  EXPECT_EQ(server_->stats().authz_failures.load(), 2u);
}

TEST_F(HotPathTest, ResumedConnectionStillChecksPassphrase) {
  const auto alice = make_user("hp-pp-alice");
  put_credential(alice, "alice");
  auto portal = client_for(make_portal("portal-pp"));
  (void)portal.get("alice", kPhrase);  // arms the ticket

  EXPECT_THROW((void)portal.get("alice", "wrong phrase"), Error);
  EXPECT_GE(portal.resumed_connections(), 1u);
  EXPECT_EQ(server_->stats().auth_failures.load(), 1u);
}

TEST_F(HotPathTest, RestrictedProxyNeverGetsTicket) {
  // §6.5 restriction policies are evaluated against the live chain at
  // full-handshake time; the server refuses to seal such an identity into
  // a ticket, so every connection from a restricted proxy re-verifies.
  const auto alice = make_user("hp-restr-alice");
  put_credential(alice, "alice");

  gsi::ProxyOptions options;
  options.restriction = pki::RestrictionPolicy::parse("rights=get-only");
  const auto restricted = gsi::create_proxy(alice, options);
  auto client = client_for(restricted);
  (void)client.info("alice");
  (void)client.info("alice");
  EXPECT_EQ(client.resumed_connections(), 0u);
  EXPECT_EQ(client.full_connections(), 2u);
  EXPECT_EQ(server_->stats().resumed_handshakes.load(), 0u);
}

TEST_F(HotPathTest, ResumptionCanBeDisabledClientSide) {
  const auto alice = make_user("hp-off-alice");
  put_credential(alice, "alice");
  auto portal = client_for(make_portal("portal-off"));
  portal.set_session_resumption(false);
  (void)portal.get("alice", kPhrase);
  (void)portal.get("alice", kPhrase);
  EXPECT_EQ(portal.resumed_connections(), 0u);
  EXPECT_EQ(portal.full_connections(), 2u);
}

// ------------------------------------------------------------- keypair pool

TEST_F(HotPathTest, ServerPutUsesKeyPool) {
  ASSERT_NE(server_->key_pool(), nullptr);
  // Wait for the background refill to make at least one key available so
  // the PUT below deterministically hits the pool.
  for (int i = 0; i < 500 && server_->key_pool()->available() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_GT(server_->key_pool()->available(), 0u);

  const auto alice = make_user("hp-pool-alice");
  put_credential(alice, "alice");
  EXPECT_EQ(server_->stats().keypool_hits.load(), 1u);
  EXPECT_EQ(server_->stats().keypool_misses.load(), 0u);
}

TEST_F(HotPathTest, ClientGetUsesSharedKeyPool) {
  const auto alice = make_user("hp-cpool-alice");
  put_credential(alice, "alice");

  auto pool = std::make_shared<crypto::KeyPairPool>(crypto::KeySpec::ec(),
                                                    /*target_size=*/2);
  pool->set_refill_enabled(false);
  pool->prefill(2);

  auto portal = client_for(make_portal("portal-cpool"));
  portal.set_key_pool(pool);
  const auto delegated = portal.get("alice", kPhrase);
  EXPECT_EQ(pool->stats().hits, 1u);

  // Pooled keys produce exactly as verifiable a proxy as synchronous ones.
  const auto store = make_trust_store();
  EXPECT_EQ(store.verify(delegated.full_chain()).identity, alice.identity());

  // A pool with the wrong spec is ignored, not misused.
  GetOptions rsa_get;
  rsa_get.key_spec = crypto::KeySpec::rsa(1024);
  const auto delegated_rsa = portal.get("alice", kPhrase, rsa_get);
  EXPECT_EQ(pool->stats().hits, 1u);  // unchanged
  EXPECT_EQ(store.verify(delegated_rsa.full_chain()).identity,
            alice.identity());
}

TEST_F(HotPathTest, DrainedClientPoolFallsBack) {
  const auto alice = make_user("hp-drain-alice");
  put_credential(alice, "alice");

  auto pool = std::make_shared<crypto::KeyPairPool>(crypto::KeySpec::ec(),
                                                    /*target_size=*/1);
  pool->set_refill_enabled(false);
  pool->prefill(1);
  auto portal = client_for(make_portal("portal-drain"));
  portal.set_key_pool(pool);

  (void)portal.get("alice", kPhrase);  // consumes the one pooled key
  const auto delegated = portal.get("alice", kPhrase);  // fallback path
  EXPECT_EQ(pool->stats().misses, 1u);
  const auto store = make_trust_store();
  EXPECT_EQ(store.verify(delegated.full_chain()).identity, alice.identity());
}

// --------------------------------------------------------------- read cache

TEST_F(HotPathTest, RepeatGetsHitTheCache) {
  const auto alice = make_user("hp-cache-alice");
  put_credential(alice, "alice");

  auto portal = client_for(make_portal("portal-cache"));
  const auto before = cache_->stats();
  for (int i = 0; i < 3; ++i) (void)portal.get("alice", kPhrase);
  const auto after = cache_->stats();
  EXPECT_GE(after.hits - before.hits, 3u);
}

TEST_F(HotPathTest, CacheInvalidatedByPassphraseChange) {
  const auto alice = make_user("hp-cpp-alice");
  put_credential(alice, "alice");

  auto portal = client_for(make_portal("portal-cpp"));
  (void)portal.get("alice", kPhrase);  // record now cached

  const auto proxy = gsi::create_proxy(alice);
  auto owner = client_for(proxy);
  owner.change_passphrase("alice", kPhrase, "brand new phrase");

  // The re-encrypted record must be what retrievals see.
  EXPECT_THROW((void)portal.get("alice", kPhrase), Error);
  EXPECT_NO_THROW((void)portal.get("alice", "brand new phrase"));
}

TEST_F(HotPathTest, CacheInvalidatedByOtpAdvance) {
  // §6.3: each successful OTP retrieval rewrites the record (the chain
  // advances). A stale cached record would accept the captured word again.
  const auto alice = make_user("hp-otp-alice");
  const auto proxy = gsi::create_proxy(alice);
  auto alice_client = client_for(proxy);
  PutOptions options;
  options.use_otp = true;
  options.stored_lifetime = Seconds(24 * 3600);
  alice_client.put("alice", "otp chain seed", proxy, options);

  auto portal = client_for(make_portal("portal-otp"));
  GetOptions get;
  get.otp = true;
  const std::string word = repository::otp_word("otp chain seed", 999);
  EXPECT_NO_THROW((void)portal.get("alice", word, get));
  EXPECT_THROW((void)portal.get("alice", word, get), Error);  // replay dead
  const std::string next = repository::otp_word("otp chain seed", 998);
  EXPECT_NO_THROW((void)portal.get("alice", next, get));
}

TEST_F(HotPathTest, CacheInvalidatedByDestroy) {
  const auto alice = make_user("hp-destroy-alice");
  put_credential(alice, "alice");
  auto portal = client_for(make_portal("portal-destroy"));
  (void)portal.get("alice", kPhrase);  // record now cached

  const auto proxy = gsi::create_proxy(alice);
  auto owner = client_for(proxy);
  owner.destroy("alice");
  EXPECT_THROW((void)portal.get("alice", kPhrase), Error);
  EXPECT_EQ(repo_->size(), 0u);
}

// -------------------------------------------------------------- concurrency

TEST_F(HotPathTest, ConcurrentGetsSameAndDifferentUsers) {
  const auto alice = make_user("hp-conc-alice");
  const auto bob = make_user("hp-conc-bob");
  put_credential(alice, "alice");
  put_credential(bob, "bob");

  constexpr int kThreads = 4;
  constexpr int kPerThread = 3;
  std::atomic<int> successes{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, t, &successes, &alice, &bob] {
      // One client per thread (a client is a single-connection actor);
      // half hammer alice, half bob.
      auto client = client_for(
          make_portal("portal-conc-" + std::to_string(t)));
      const bool use_alice = t % 2 == 0;
      const std::string username = use_alice ? "alice" : "bob";
      const auto& owner = use_alice ? alice : bob;
      for (int i = 0; i < kPerThread; ++i) {
        const auto delegated = client.get(username, kPhrase);
        if (delegated.identity() == owner.identity()) {
          successes.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(successes.load(), kThreads * kPerThread);
  EXPECT_EQ(server_->stats().gets.load(),
            static_cast<std::uint64_t>(kThreads * kPerThread));
  // Each client resumed after its first connection.
  EXPECT_GE(server_->stats().resumed_handshakes.load(),
            static_cast<std::uint64_t>(kThreads * (kPerThread - 1)));
  EXPECT_GT(cache_->stats().hits, 0u);
}

}  // namespace
}  // namespace myproxy
