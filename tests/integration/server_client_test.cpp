// End-to-end tests of the MyProxy system: real TCP, real TLS with mutual
// authentication, the full wire protocol, and the repository behind it.
// These exercise the exact flows of the paper's Figures 1 and 2 plus the
// §5/§6 security and extension behaviours.
#include <gtest/gtest.h>

#include <memory>

#include "client/myproxy_client.hpp"
#include "common/error.hpp"
#include "gsi/gsi_fixtures.hpp"
#include "gsi/proxy.hpp"
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

class MyProxyIntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    repository::RepositoryPolicy policy;
    policy.kdf_iterations = 100;  // fast tests; cost swept in BM_AtRest_*
    auto repo = std::make_shared<repository::Repository>(
        std::make_unique<repository::MemoryCredentialStore>(), policy);
    repo_ = repo;

    ServerConfig config;
    config.accepted_credentials.add("/C=US/O=Grid/OU=People/*");
    config.authorized_retrievers.add("/C=US/O=Grid/OU=People/*");
    config.authorized_retrievers.add("/C=US/O=Grid/OU=Portals/*");
    config.authorized_renewers.add("/C=US/O=Grid/OU=Services/*");
    config.worker_threads = 2;

    server_host_ = std::make_unique<gsi::Credential>(make_service(
        "/C=US/O=Grid/OU=Services/CN=myproxy.grid.test"));
    server_ = std::make_unique<MyProxyServer>(*server_host_,
                                              make_trust_store(), repo,
                                              std::move(config));
    server_->start();
  }

  void TearDown() override { server_->stop(); }

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

  /// myproxy-init as `user` under `username`.
  void put_credential(const gsi::Credential& user,
                      const std::string& username,
                      PutOptions options = {}) {
    const auto proxy = gsi::create_proxy(user);
    auto client = client_for(proxy);
    options.stored_lifetime = Seconds(24 * 3600);
    client.put(username, kPhrase, proxy, options);
  }

  std::shared_ptr<repository::Repository> repo_;
  std::unique_ptr<gsi::Credential> server_host_;
  std::unique_ptr<MyProxyServer> server_;
};

TEST_F(MyProxyIntegrationTest, Figure1And2_InitThenGetDelegation) {
  const auto alice = make_user("int-alice");
  put_credential(alice, "alice");
  EXPECT_EQ(repo_->size(), 1u);
  EXPECT_EQ(server_->stats().puts.load(), 1u);

  // A portal, holding only its own credentials plus the user's pass
  // phrase, retrieves a delegation (Figure 2 / Figure 3 step 2-3).
  const auto portal = make_portal("portal-1");
  auto portal_client = client_for(portal);
  const gsi::Credential delegated = portal_client.get("alice", kPhrase);

  EXPECT_TRUE(delegated.is_proxy());
  EXPECT_EQ(delegated.identity(), alice.identity());
  EXPECT_GE(delegated.delegation_depth(), 2u);  // user->repo->portal

  // The delegated credential verifies at any Grid resource.
  const auto store = make_trust_store();
  const auto id = store.verify(delegated.full_chain());
  EXPECT_EQ(id.identity, alice.identity());
  EXPECT_EQ(server_->stats().gets.load(), 1u);
}

TEST_F(MyProxyIntegrationTest, MutualAuthServerIdentityVisible) {
  const auto alice = make_user("int-mauth-alice");
  put_credential(alice, "alice");
  auto client = client_for(make_portal("portal-ma"));
  (void)client.get("alice", kPhrase);
  ASSERT_TRUE(client.server_identity().has_value());
  EXPECT_EQ(client.server_identity()->str(),
            "/C=US/O=Grid/OU=Services/CN=myproxy.grid.test");
}

TEST_F(MyProxyIntegrationTest, WrongPassphraseRefused) {
  const auto alice = make_user("int-wrongpp-alice");
  put_credential(alice, "alice");
  auto client = client_for(make_portal("portal-2"));
  EXPECT_THROW((void)client.get("alice", "not the phrase"), Error);
  EXPECT_EQ(server_->stats().auth_failures.load(), 1u);
}

TEST_F(MyProxyIntegrationTest, UnknownUserRefused) {
  auto client = client_for(make_portal("portal-3"));
  EXPECT_THROW((void)client.get("ghost", kPhrase), Error);
}

TEST_F(MyProxyIntegrationTest, UnauthorizedStorerRefused) {
  // §5.1 first ACL: only accepted_credentials may PUT. A service identity
  // (not under OU=People) must be refused.
  const auto rogue = make_service("/C=US/O=Grid/OU=Services/CN=rogue");
  auto client = client_for(rogue);
  const auto proxy = gsi::create_proxy(rogue);
  EXPECT_THROW(client.put("rogue", kPhrase, proxy), Error);
  EXPECT_GE(server_->stats().authz_failures.load(), 1u);
  EXPECT_EQ(repo_->size(), 0u);
}

TEST_F(MyProxyIntegrationTest, UnauthorizedRetrieverRefused) {
  // §5.1 second ACL: even with the correct pass phrase, a client outside
  // authorized_retrievers gets nothing.
  const auto alice = make_user("int-acl-alice");
  put_credential(alice, "alice");
  const auto outsider =
      make_service("/C=US/O=Grid/OU=Services/CN=outsider");
  auto client = client_for(outsider);
  EXPECT_THROW((void)client.get("alice", kPhrase), Error);
  EXPECT_GE(server_->stats().authz_failures.load(), 1u);
}

/// The refusal text `op` fails with.
template <typename Op>
std::string refusal_of(Op&& op) {
  try {
    op();
  } catch (const Error& e) {
    return e.what();
  }
  return "no refusal";
}

TEST_F(MyProxyIntegrationTest, OutsiderCannotProbeUsernamesWithGet) {
  // The retriever ACL is checked before the store is read: a client outside
  // it cannot tell a stored username from a missing one.
  const auto alice = make_user("int-probe-alice");
  put_credential(alice, "alice");
  auto outsider =
      client_for(make_service("/C=US/O=Grid/OU=Services/CN=prober"));
  const std::string present =
      refusal_of([&] { (void)outsider.get("alice", kPhrase); });
  const std::string missing =
      refusal_of([&] { (void)outsider.get("ghost", kPhrase); });
  EXPECT_EQ(present, missing);
  EXPECT_NE(present.find("not authorized"), std::string::npos) << present;
  EXPECT_EQ(server_->stats().authz_failures.load(), 2u);
}

TEST_F(MyProxyIntegrationTest, OutsiderCannotProbeUsernamesWithRetrieve) {
  const auto alice = make_user("int-probe-ret-alice");
  put_credential(alice, "alice");
  auto outsider =
      client_for(make_service("/C=US/O=Grid/OU=Services/CN=prober"));
  const std::string present =
      refusal_of([&] { (void)outsider.retrieve("alice", kPhrase); });
  const std::string missing =
      refusal_of([&] { (void)outsider.retrieve("ghost", kPhrase); });
  EXPECT_EQ(present, missing);
  EXPECT_NE(present.find("not authorized"), std::string::npos) << present;
  EXPECT_EQ(server_->stats().authz_failures.load(), 2u);
}

TEST_F(MyProxyIntegrationTest, PerCredentialRetrieverRestriction) {
  // §4.1: the user narrows retrieval to specific portals at store time.
  const auto alice = make_user("int-restrict-alice");
  PutOptions options;
  options.retriever_patterns = {"/C=US/O=Grid/OU=Portals/CN=portal-good"};
  put_credential(alice, "alice", options);

  auto good = client_for(make_portal("portal-good"));
  EXPECT_NO_THROW((void)good.get("alice", kPhrase));
  auto bad = client_for(make_portal("portal-evil"));
  EXPECT_THROW((void)bad.get("alice", kPhrase), Error);
}

TEST_F(MyProxyIntegrationTest, StolenIdentityCannotBeParked) {
  // A client cannot PUT a credential whose identity differs from the
  // connection's authenticated identity.
  const auto alice = make_user("int-park-alice");
  const auto mallory = make_user("int-park-mallory");
  const auto alice_proxy = gsi::create_proxy(alice);

  // Mallory connects as herself but tries to store Alice's proxy.
  auto client = client_for(gsi::create_proxy(mallory));
  EXPECT_THROW(client.put("mallory", kPhrase, alice_proxy), Error);
  EXPECT_EQ(repo_->size(), 0u);
}

TEST_F(MyProxyIntegrationTest, DelegatedLifetimeRespectsStoredRestriction) {
  const auto alice = make_user("int-life-alice");
  PutOptions options;
  options.max_delegation_lifetime = Seconds(1800);
  put_credential(alice, "alice", options);

  auto client = client_for(make_portal("portal-life"));
  GetOptions get;
  get.lifetime = Seconds(12 * 3600);  // ask for far more
  const auto delegated = client.get("alice", kPhrase, get);
  EXPECT_LE(delegated.remaining_lifetime(), Seconds(1800));
}

TEST_F(MyProxyIntegrationTest, DestroyRemovesAndRequiresOwnership) {
  const auto alice = make_user("int-destroy-alice");
  const auto bob = make_user("int-destroy-bob");
  put_credential(alice, "alice");

  // Bob (also in accepted_credentials) cannot destroy Alice's credential.
  auto bob_client = client_for(gsi::create_proxy(bob));
  EXPECT_THROW(bob_client.destroy("alice"), Error);
  EXPECT_EQ(repo_->size(), 1u);

  auto alice_client = client_for(gsi::create_proxy(alice));
  EXPECT_NO_THROW(alice_client.destroy("alice"));
  EXPECT_EQ(repo_->size(), 0u);
}

TEST_F(MyProxyIntegrationTest, InfoReportsMetadata) {
  const auto alice = make_user("int-info-alice");
  PutOptions options;
  options.max_delegation_lifetime = Seconds(7200);
  put_credential(alice, "alice", options);
  auto client = client_for(gsi::create_proxy(alice));
  const auto info = client.info("alice");
  EXPECT_EQ(info.owner_dn, alice.identity().str());
  EXPECT_EQ(info.max_delegation_lifetime, Seconds(7200));
  EXPECT_EQ(info.sealing, "passphrase");
}

TEST_F(MyProxyIntegrationTest, ChangePassphraseEndToEnd) {
  const auto alice = make_user("int-chp-alice");
  put_credential(alice, "alice");
  auto alice_client = client_for(gsi::create_proxy(alice));
  alice_client.change_passphrase("alice", std::string(kPhrase),
                                 "brand new phrase");

  auto portal_client = client_for(make_portal("portal-chp"));
  EXPECT_THROW((void)portal_client.get("alice", kPhrase), Error);
  EXPECT_NO_THROW((void)portal_client.get("alice", "brand new phrase"));
}

TEST_F(MyProxyIntegrationTest, OtpEndToEnd) {
  // §6.3: replace the persistent pass phrase with one-time passwords.
  const auto alice = make_user("int-otp-alice");
  const auto proxy = gsi::create_proxy(alice);
  auto alice_client = client_for(proxy);
  PutOptions options;
  options.use_otp = true;
  options.stored_lifetime = Seconds(24 * 3600);
  alice_client.put("alice", "otp chain seed", proxy, options);

  auto portal_client = client_for(make_portal("portal-otp"));
  GetOptions get;
  get.otp = true;

  // The next valid word is index remaining-1 = 999.
  const std::string word = repository::otp_word("otp chain seed", 999);
  EXPECT_NO_THROW((void)portal_client.get("alice", word, get));
  // Replay of the captured word fails — the §5.1 replay attack is dead.
  EXPECT_THROW((void)portal_client.get("alice", word, get), Error);
  // The following word succeeds.
  const std::string next = repository::otp_word("otp chain seed", 998);
  EXPECT_NO_THROW((void)portal_client.get("alice", next, get));
}

TEST_F(MyProxyIntegrationTest, RenewalEndToEnd) {
  // §6.6 Condor-G support: a job's service refreshes the user's proxy
  // without the pass phrase, authorized by the renewer ACL + ownership.
  const auto alice = make_user("int-renew-alice");
  PutOptions options;
  // The renewer pattern names the identity whose live proxy may refresh
  // this credential — the user's own identity in the Condor-G model, since
  // the renewal agent authenticates *with the job's proxy*.
  options.renewer_patterns = {"/C=US/O=Grid/OU=People/CN=int-renew-alice"};
  put_credential(alice, "alice", options);

  // The job holds an expiring proxy of Alice; it authenticates with it.
  gsi::ProxyOptions short_proxy;
  short_proxy.lifetime = Seconds(120);
  const auto job_proxy = gsi::create_proxy(alice, short_proxy);
  auto job_client = client_for(job_proxy);
  const auto refreshed = job_client.renew("alice");
  EXPECT_EQ(refreshed.identity(), alice.identity());
  EXPECT_GT(refreshed.remaining_lifetime(), Seconds(120));
  EXPECT_EQ(server_->stats().renewals.load(), 1u);
}

TEST_F(MyProxyIntegrationTest, RenewalRefusedForNonOwner) {
  const auto alice = make_user("int-renew2-alice");
  const auto bob = make_user("int-renew2-bob");
  PutOptions options;
  options.renewer_patterns = {"*"};
  put_credential(alice, "alice", options);

  auto bob_client = client_for(gsi::create_proxy(bob));
  EXPECT_THROW((void)bob_client.renew("alice"), Error);
}

TEST_F(MyProxyIntegrationTest, RenewalRefusedWhenNotArmed) {
  const auto alice = make_user("int-renew3-alice");
  put_credential(alice, "alice");  // no renewer patterns
  auto job_client = client_for(gsi::create_proxy(alice));
  EXPECT_THROW((void)job_client.renew("alice"), Error);
}

// --- RENEW unseal with and without the presenter's chain -------------------
//
// The server shares certificates of the verified peer chain that are
// byte-identical to stored ones, and parses the rest. Each case must give
// the same renewal.

/// Store `stored` for "alice" as renewable by its own identity.
void store_renewable(repository::Repository& repo,
                     const gsi::Credential& stored) {
  repository::StoreOptions options;
  options.renewer_patterns = {stored.identity().str()};
  repo.store("alice", kPhrase, stored.identity().str(), stored, options);
}

/// The renewed credential is a fresh proxy over exactly the stored chain.
void expect_renewal_of(const gsi::Credential& renewed,
                       const gsi::Credential& stored) {
  EXPECT_EQ(renewed.identity(), stored.identity());
  ASSERT_EQ(renewed.chain().size(), stored.full_chain().size());
  for (std::size_t i = 0; i < renewed.chain().size(); ++i) {
    EXPECT_EQ(renewed.chain()[i].der(), stored.full_chain()[i].der());
  }
  EXPECT_NO_THROW((void)make_trust_store().verify(renewed.full_chain()));
}

TEST_F(MyProxyIntegrationTest, RenewalWhenPresenterHoldsTheStoredChain) {
  const auto alice = make_user("int-renew-same-alice");
  const auto job_proxy = gsi::create_proxy(alice);
  store_renewable(*repo_, job_proxy);
  auto job_client = client_for(job_proxy);
  expect_renewal_of(job_client.renew("alice"), job_proxy);
  EXPECT_EQ(server_->stats().full_handshakes.load(), 1u);
}

TEST_F(MyProxyIntegrationTest, RenewalOverResumedSessionParsesStoredChain) {
  // A resumed session carries no certificate chain, so nothing is shared.
  const auto alice = make_user("int-renew-resume-alice");
  const auto job_proxy = gsi::create_proxy(alice);
  store_renewable(*repo_, job_proxy);
  auto job_client = client_for(job_proxy);
  expect_renewal_of(job_client.renew("alice"), job_proxy);
  expect_renewal_of(job_client.renew("alice"), job_proxy);
  EXPECT_EQ(server_->stats().resumed_handshakes.load(), 1u);
  EXPECT_EQ(server_->stats().renewals.load(), 2u);
}

TEST_F(MyProxyIntegrationTest, RenewalByPresenterWithOtherCertificates) {
  // Alice's certificate was re-issued (same DN, new key and serial): none
  // of the presenter's certificates is byte-identical to a stored one.
  const auto stored = gsi::create_proxy(make_user("int-renew-other-alice"));
  store_renewable(*repo_, stored);
  const auto reissued = make_user("int-renew-other-alice");
  ASSERT_NE(reissued.certificate().der(), stored.chain().front().der());
  auto job_client = client_for(gsi::create_proxy(reissued));
  expect_renewal_of(job_client.renew("alice"), stored);
}

TEST_F(MyProxyIntegrationTest, WalletListAndTaskSelection) {
  // §6.2 electronic wallet.
  const auto alice = make_user("int-wallet-alice");
  PutOptions dflt;
  PutOptions compute;
  compute.credential_name = "compute";
  compute.task_tags = "simulation";
  put_credential(alice, "alice", dflt);
  put_credential(alice, "alice", compute);

  auto client = client_for(gsi::create_proxy(alice));
  const auto names = client.list("alice");
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(client.select_for_task("alice", "simulation"), "compute");

  auto portal = client_for(make_portal("portal-wallet"));
  GetOptions get;
  get.credential_name = "compute";
  EXPECT_EQ(portal.get("alice", kPhrase, get).identity(), alice.identity());
}

TEST_F(MyProxyIntegrationTest, StoreRetrieveLongTermCredential) {
  // §6.1: manage the permanent credential in the repository.
  const auto alice = make_user("int-store-alice");
  auto alice_client = client_for(gsi::create_proxy(alice));
  PutOptions options;
  options.credential_name = "long-term";
  alice_client.store("alice", kPhrase, alice, options);

  const auto back = alice_client.retrieve("alice", kPhrase, "long-term");
  EXPECT_EQ(back.certificate(), alice.certificate());
  EXPECT_TRUE(back.key().same_public_key(alice.key()));

  // A portal (not the owner) cannot extract key material even with the
  // pass phrase.
  auto portal = client_for(make_portal("portal-steal"));
  EXPECT_THROW((void)portal.retrieve("alice", kPhrase, "long-term"), Error);
  // But it can GET a delegation from the stored long-term credential.
  GetOptions get;
  get.credential_name = "long-term";
  EXPECT_EQ(portal.get("alice", kPhrase, get).identity(), alice.identity());
}

TEST_F(MyProxyIntegrationTest, RestrictedDelegationCarriesPolicy) {
  // §6.5: the user stores with a restriction; every delegation carries it.
  const auto alice = make_user("int-res-alice");
  PutOptions options;
  options.restriction = "rights=file-read";
  put_credential(alice, "alice", options);

  auto portal = client_for(make_portal("portal-res"));
  const auto delegated = portal.get("alice", kPhrase);
  const auto store = make_trust_store();
  const auto id = store.verify(delegated.full_chain());
  ASSERT_TRUE(id.policy.has_value());
  EXPECT_TRUE(id.policy->allows("file-read"));
  EXPECT_FALSE(id.policy->allows("job-submit"));
}

TEST_F(MyProxyIntegrationTest, AlwaysLimitedDelegations) {
  const auto alice = make_user("int-lim-alice");
  PutOptions options;
  options.always_limited = true;
  put_credential(alice, "alice", options);

  auto portal = client_for(make_portal("portal-lim"));
  const auto delegated = portal.get("alice", kPhrase);
  const auto store = make_trust_store();
  EXPECT_TRUE(store.verify(delegated.full_chain()).limited);
}

TEST_F(MyProxyIntegrationTest, UntrustedClientFailsHandshakeAuth) {
  // A client with credentials from a foreign CA authenticates at TLS level
  // but fails GSI verification; the server must refuse service.
  auto foreign_ca = pki::CertificateAuthority::create(
      pki::DistinguishedName::parse("/O=Elsewhere/CN=Foreign CA"),
      crypto::KeySpec::ec());
  auto key = crypto::KeyPair::generate(crypto::KeySpec::ec());
  auto cert = foreign_ca.issue(
      pki::DistinguishedName::parse("/O=Elsewhere/CN=stranger"), key,
      Seconds(3600));
  const gsi::Credential stranger(std::move(cert), std::move(key));

  auto client = client_for(stranger);
  EXPECT_THROW((void)client.get("anyone", kPhrase), Error);
  EXPECT_GE(server_->stats().auth_failures.load(), 1u);
}

TEST_F(MyProxyIntegrationTest, RepeatedUseUntilDestroy) {
  // §4.3: "This process could then be repeated as many times as the user
  // desires until the credentials held by the repository expire".
  const auto alice = make_user("int-repeat-alice");
  put_credential(alice, "alice");
  auto portal = client_for(make_portal("portal-repeat"));
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(portal.get("alice", kPhrase).identity(), alice.identity());
  }
  EXPECT_EQ(server_->stats().gets.load(), 5u);
}

}  // namespace
}  // namespace myproxy
