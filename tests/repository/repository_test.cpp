#include "repository/repository.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "gsi/gsi_fixtures.hpp"
#include "gsi/proxy.hpp"

namespace myproxy::repository {
namespace {

using gsi::testing::make_user;

constexpr std::string_view kPhrase = "correct horse battery";

RepositoryPolicy fast_policy() {
  RepositoryPolicy policy;
  policy.kdf_iterations = 100;  // keep tests fast; strength swept in bench
  return policy;
}

Repository make_repository(RepositoryPolicy policy = fast_policy()) {
  return Repository(std::make_unique<MemoryCredentialStore>(),
                    std::move(policy));
}

/// Forwards to a memory store, counting reads. get() of `alias_user`
/// answers with alice's record, as if her record file had been moved there.
class ProbeStore final : public CredentialStore {
 public:
  void put(const CredentialRecord& record) override { inner_.put(record); }
  [[nodiscard]] std::optional<CredentialRecord> get(
      std::string_view username, std::string_view name) const override {
    ++gets;
    return inner_.get(username == alias_user ? "alice" : username, name);
  }
  bool remove(std::string_view username, std::string_view name) override {
    return inner_.remove(username, name);
  }
  std::size_t remove_all(std::string_view username) override {
    return inner_.remove_all(username);
  }
  [[nodiscard]] std::vector<CredentialRecord> list(
      std::string_view username) const override {
    return inner_.list(username);
  }
  [[nodiscard]] std::size_t size() const override { return inner_.size(); }
  std::size_t sweep_expired() override { return inner_.sweep_expired(); }
  [[nodiscard]] std::vector<std::string> usernames() const override {
    return inner_.usernames();
  }

  mutable int gets = 0;
  std::string alias_user;

 private:
  MemoryCredentialStore inner_;
};

/// A proxy suitable for storing (lifetime within the 7-day repo maximum).
gsi::Credential make_storable(const gsi::Credential& user,
                              Seconds lifetime = Seconds(24 * 3600)) {
  gsi::ProxyOptions options;
  options.lifetime = lifetime;
  return gsi::create_proxy(user, options);
}

TEST(Repository, StoreOpenRoundTrip) {
  auto repo = make_repository();
  const auto alice = make_user("repo-alice");
  repo.store("alice", kPhrase, alice.identity().str(), make_storable(alice));
  EXPECT_EQ(repo.size(), 1u);

  const gsi::Credential opened = repo.open("alice", kPhrase);
  EXPECT_EQ(opened.identity(), alice.identity());
  EXPECT_TRUE(opened.is_proxy());
}

TEST(Repository, WrongPassphraseRejected) {
  auto repo = make_repository();
  const auto alice = make_user("repo-wrong-alice");
  repo.store("alice", kPhrase, alice.identity().str(), make_storable(alice));
  EXPECT_THROW((void)repo.open("alice", "wrong phrase!"),
               AuthenticationError);
}

TEST(Repository, UnknownUserRejected) {
  auto repo = make_repository();
  EXPECT_THROW((void)repo.open("nobody", kPhrase), NotFoundError);
}

TEST(Repository, WeakPassphraseRefusedAtStore) {
  auto repo = make_repository();
  const auto alice = make_user("repo-weak-alice");
  EXPECT_THROW(repo.store("alice", "abc", alice.identity().str(),
                          make_storable(alice)),
               PolicyError);
  EXPECT_EQ(repo.size(), 0u);
}

TEST(Repository, OverlongStoredLifetimeRefused) {
  // §4.3: max lifetime of stored credentials defaults to one week.
  auto repo = make_repository();
  const auto alice = make_user("repo-long-alice", Seconds(30L * 24 * 3600));
  const auto proxy = make_storable(alice, Seconds(14L * 24 * 3600));
  EXPECT_THROW(
      repo.store("alice", kPhrase, alice.identity().str(), proxy),
      PolicyError);
}

TEST(Repository, ExpiredStoredCredentialRefusedAtOpen) {
  auto repo = make_repository();
  const auto alice = make_user("repo-exp-alice");
  repo.store("alice", kPhrase, alice.identity().str(),
             make_storable(alice, Seconds(3600)));
  const ScopedClockAdvance warp(Seconds(7200));
  EXPECT_THROW((void)repo.open("alice", kPhrase), ExpiredError);
}

TEST(Repository, SweepRemovesExpiredRecords) {
  auto repo = make_repository();
  const auto alice = make_user("repo-sweep-alice");
  repo.store("alice", kPhrase, alice.identity().str(),
             make_storable(alice, Seconds(60)));
  {
    const ScopedClockAdvance warp(Seconds(3600));
    EXPECT_EQ(repo.sweep_expired(), 1u);
  }
  EXPECT_EQ(repo.size(), 0u);
}

TEST(Repository, DestroyRemovesCredential) {
  auto repo = make_repository();
  const auto alice = make_user("repo-destroy-alice");
  repo.store("alice", kPhrase, alice.identity().str(), make_storable(alice));
  EXPECT_EQ(repo.destroy("alice"), 1u);
  EXPECT_THROW((void)repo.open("alice", kPhrase), NotFoundError);
  EXPECT_EQ(repo.destroy("alice"), 0u);  // idempotent
}

TEST(Repository, DestroyAllClearsWallet) {
  auto repo = make_repository();
  const auto alice = make_user("repo-destroyall-alice");
  StoreOptions a, b;
  a.name = "compute";
  b.name = "transfer";
  repo.store("alice", kPhrase, alice.identity().str(), make_storable(alice), a);
  repo.store("alice", kPhrase, alice.identity().str(), make_storable(alice), b);
  EXPECT_EQ(repo.destroy("alice", "", /*all=*/true), 2u);
  EXPECT_EQ(repo.size(), 0u);
}

TEST(Repository, ChangePassphraseReEncrypts) {
  auto repo = make_repository();
  const auto alice = make_user("repo-chpass-alice");
  repo.store("alice", kPhrase, alice.identity().str(), make_storable(alice));
  repo.change_passphrase("alice", kPhrase, "new phrase here");
  EXPECT_THROW((void)repo.open("alice", kPhrase), AuthenticationError);
  EXPECT_EQ(repo.open("alice", "new phrase here").identity(),
            alice.identity());
}

TEST(Repository, ChangePassphraseRequiresOldPhrase) {
  auto repo = make_repository();
  const auto alice = make_user("repo-chpass2-alice");
  repo.store("alice", kPhrase, alice.identity().str(), make_storable(alice));
  EXPECT_THROW(
      repo.change_passphrase("alice", "wrong old", "new phrase here"),
      AuthenticationError);
}

TEST(Repository, ChangePassphraseChecksNewPhrasePolicy) {
  auto repo = make_repository();
  const auto alice = make_user("repo-chpass3-alice");
  repo.store("alice", kPhrase, alice.identity().str(), make_storable(alice));
  EXPECT_THROW(repo.change_passphrase("alice", kPhrase, "abc"), PolicyError);
}

TEST(Repository, InfoAndListExposeMetadataOnly) {
  auto repo = make_repository();
  const auto alice = make_user("repo-info-alice");
  StoreOptions options;
  options.name = "compute";
  options.max_delegation_lifetime = Seconds(7200);
  options.always_limited = true;
  options.restriction = "rights=job-submit";
  options.task_tags = "compute";
  repo.store("alice", kPhrase, alice.identity().str(), make_storable(alice),
             options);

  const auto record = repo.record("alice", "compute");
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->owner_dn, alice.identity().str());
  EXPECT_EQ(record->max_delegation_lifetime, Seconds(7200));
  EXPECT_TRUE(record->always_limited);
  EXPECT_EQ(record->restriction, "rights=job-submit");
  EXPECT_FALSE(repo.record("alice", "missing").has_value());
  EXPECT_EQ(repo.list("alice").size(), 1u);
}

TEST(Repository, MaxDelegationLifetimeClampedByServerPolicy) {
  RepositoryPolicy policy = fast_policy();
  policy.max_delegation_lifetime = Seconds(1800);
  auto repo = make_repository(std::move(policy));
  const auto alice = make_user("repo-clamp-alice");
  StoreOptions options;
  options.max_delegation_lifetime = Seconds(86400);
  repo.store("alice", kPhrase, alice.identity().str(), make_storable(alice),
             options);
  EXPECT_EQ(repo.record("alice")->max_delegation_lifetime, Seconds(1800));
}

TEST(Repository, OtpStoreAndOpen) {
  auto repo = make_repository();
  const auto alice = make_user("repo-otp-alice");
  StoreOptions options;
  options.otp_words = 4;
  repo.store("alice", "otp seed phrase", alice.identity().str(),
             make_storable(alice), options);

  // Pass-phrase retrieval must be refused outright.
  EXPECT_THROW((void)repo.open("alice", "otp seed phrase"),
               AuthenticationError);

  // OTP words authenticate, each exactly once, in order.
  const std::string w3 = otp_word("otp seed phrase", 3);
  EXPECT_EQ(repo.open("alice", w3, "", /*otp=*/true).identity(),
            alice.identity());
  EXPECT_THROW((void)repo.open("alice", w3, "", true), AuthenticationError);
  const std::string w2 = otp_word("otp seed phrase", 2);
  EXPECT_NO_THROW((void)repo.open("alice", w2, "", true));
  EXPECT_EQ(repo.record("alice")->otp->remaining, 2u);
}

TEST(Repository, RenewableCredentialOpensWithoutPassphrase) {
  auto repo = make_repository();
  const auto alice = make_user("repo-renew-alice");
  StoreOptions options;
  options.renewer_patterns = {"/O=Grid/CN=condor"};
  repo.store("alice", kPhrase, alice.identity().str(), make_storable(alice),
             options);

  EXPECT_EQ(repo.open_for_renewal("alice").identity(), alice.identity());
  // Pass-phrase retrieval still works against the digest.
  EXPECT_EQ(repo.open("alice", kPhrase).identity(), alice.identity());
  EXPECT_THROW((void)repo.open("alice", "wrong"), AuthenticationError);
}

TEST(Repository, NonRenewableCredentialRefusesRenewal) {
  auto repo = make_repository();
  const auto alice = make_user("repo-norenew-alice");
  repo.store("alice", kPhrase, alice.identity().str(), make_storable(alice));
  EXPECT_THROW((void)repo.open_for_renewal("alice"), AuthorizationError);
}

TEST(Repository, EncryptAtRestAblationStillAuthenticates) {
  RepositoryPolicy policy = fast_policy();
  policy.encrypt_at_rest = false;
  auto repo = make_repository(std::move(policy));
  const auto alice = make_user("repo-plain-alice");
  repo.store("alice", kPhrase, alice.identity().str(), make_storable(alice));

  EXPECT_EQ(repo.record("alice")->sealing, Sealing::kPlain);
  EXPECT_EQ(repo.open("alice", kPhrase).identity(), alice.identity());
  EXPECT_THROW((void)repo.open("alice", "wrong phrase!"),
               AuthenticationError);
}

TEST(Repository, WalletSelectionByTask) {
  auto repo = make_repository();
  const auto alice = make_user("repo-wallet-alice");
  StoreOptions dflt;
  StoreOptions compute;
  compute.name = "compute-slot";
  compute.task_tags = "compute,simulation";
  StoreOptions transfer;
  transfer.name = "transfer-slot";
  transfer.task_tags = "transfer";
  repo.store("alice", kPhrase, alice.identity().str(), make_storable(alice),
             dflt);
  repo.store("alice", kPhrase, alice.identity().str(), make_storable(alice),
             compute);
  repo.store("alice", kPhrase, alice.identity().str(), make_storable(alice),
             transfer);

  EXPECT_EQ(repo.select_for_task("alice", "compute")->name, "compute-slot");
  EXPECT_EQ(repo.select_for_task("alice", "simulation")->name,
            "compute-slot");
  EXPECT_EQ(repo.select_for_task("alice", "transfer")->name, "transfer-slot");
  // Unknown task falls back to the default slot.
  EXPECT_EQ(repo.select_for_task("alice", "archive")->name, "");
  EXPECT_FALSE(repo.select_for_task("bob", "compute").has_value());
}

TEST(Repository, RecordsBoundToUserCannotBeSwapped) {
  // Two users; swapping their blobs on "disk" must break decryption (AAD
  // binding, §5.1).
  auto store_ptr = std::make_unique<MemoryCredentialStore>();
  MemoryCredentialStore* store = store_ptr.get();
  Repository repo(std::move(store_ptr), fast_policy());
  const auto alice = make_user("repo-swap-alice");
  const auto bob = make_user("repo-swap-bob");
  repo.store("alice", kPhrase, alice.identity().str(), make_storable(alice));
  repo.store("bob", kPhrase, bob.identity().str(), make_storable(bob));

  auto a = *store->get("alice", "");
  auto b = *store->get("bob", "");
  std::swap(a.blob, b.blob);
  store->put(a);
  store->put(b);

  EXPECT_THROW((void)repo.open("alice", kPhrase), AuthenticationError);
  EXPECT_THROW((void)repo.open("bob", kPhrase), AuthenticationError);
}

TEST(Repository, OpeningAReadRecordReadsTheStoreOnce) {
  // GET and RENEW check the record they read against the ACLs, then unseal
  // that same record: one store read per request.
  auto store_ptr = std::make_unique<ProbeStore>();
  ProbeStore* store = store_ptr.get();
  Repository repo(std::move(store_ptr), fast_policy());
  const auto alice = make_user("repo-once-alice");
  repo.store("alice", kPhrase, alice.identity().str(), make_storable(alice));
  StoreOptions renewable;
  renewable.name = "job";
  renewable.renewer_patterns = {"*"};
  repo.store("alice", kPhrase, alice.identity().str(), make_storable(alice),
             renewable);

  store->gets = 0;
  const auto record = repo.record("alice");
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(repo.open(*record, kPhrase).identity(), alice.identity());
  EXPECT_EQ(store->gets, 1);

  store->gets = 0;
  const auto job = repo.record("alice", "job");
  ASSERT_TRUE(job.has_value());
  EXPECT_EQ(repo.open_for_renewal(*job).identity(), alice.identity());
  EXPECT_EQ(store->gets, 1);
}

TEST(Repository, OpeningAReadRecordUnsealsThatRecord) {
  // The record that passed the caller's checks is the one unsealed, even if
  // the stored copy has since been re-sealed under another pass phrase.
  auto repo = make_repository();
  const auto alice = make_user("repo-same-alice");
  repo.store("alice", kPhrase, alice.identity().str(), make_storable(alice));
  const auto record = repo.record("alice");
  ASSERT_TRUE(record.has_value());
  repo.change_passphrase("alice", kPhrase, "another long phrase");
  EXPECT_EQ(repo.open(*record, kPhrase).identity(), alice.identity());
  EXPECT_THROW((void)repo.open("alice", kPhrase), AuthenticationError);
}

TEST(Repository, RecordReadUnderAnotherNameIsRefused) {
  // A record file moved to another user's key names its real owner; it must
  // not be served (or unsealed under its own AAD) as that user's record.
  auto store_ptr = std::make_unique<ProbeStore>();
  ProbeStore* store = store_ptr.get();
  Repository repo(std::move(store_ptr), fast_policy());
  const auto alice = make_user("repo-moved-alice");
  repo.store("alice", kPhrase, alice.identity().str(), make_storable(alice));
  store->alias_user = "mallory";
  EXPECT_THROW((void)repo.record("mallory"), IoError);
  EXPECT_THROW((void)repo.open("mallory", kPhrase), IoError);
  EXPECT_EQ(repo.open("alice", kPhrase).identity(), alice.identity());
}

Config kdf_config(std::string_view iterations) {
  Config config;
  config.set("kdf_iterations", std::string(iterations));
  return config;
}

TEST(KdfIterationsConfig, DefaultsWhenAbsent) {
  EXPECT_EQ(kdf_iterations_from_config(Config{}),
            crypto::kDefaultKdfIterations);
}

TEST(KdfIterationsConfig, AcceptsOneThroughTheBound) {
  EXPECT_EQ(kdf_iterations_from_config(kdf_config("1")), 1u);
  EXPECT_EQ(kdf_iterations_from_config(kdf_config("100000000")),
            crypto::kMaxKdfIterations);
}

TEST(KdfIterationsConfig, RejectsZeroNegativeAndAboveTheBound) {
  EXPECT_THROW((void)kdf_iterations_from_config(kdf_config("0")),
               ConfigError);
  // -1 used to wrap to 4294967295 and 4294967297 to 1.
  EXPECT_THROW((void)kdf_iterations_from_config(kdf_config("-1")),
               ConfigError);
  EXPECT_THROW((void)kdf_iterations_from_config(kdf_config("100000001")),
               ConfigError);
  EXPECT_THROW((void)kdf_iterations_from_config(kdf_config("4294967297")),
               ConfigError);
}

}  // namespace
}  // namespace myproxy::repository
