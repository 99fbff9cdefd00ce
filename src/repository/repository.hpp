// Repository domain logic: the server-side behaviour of MyProxy (§4, §5.1)
// independent of any transport. The network server (server/) maps protocol
// messages onto these operations after authenticating the caller.
//
// Responsibilities:
//  * store delegated proxies encrypted at rest under the user's pass phrase
//    (§5.1: "the repository encrypts the credentials that it holds with the
//    pass phrase provided by the user");
//  * authenticate retrievals by pass phrase (decryption success) or OTP
//    (§6.3), and enforce the per-credential retrieval restrictions (§4.1);
//  * manage the credential wallet (§6.2) and long-term credentials (§6.1);
//  * expire and destroy credentials (§4.1 myproxy-destroy).
#pragma once

#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/config.hpp"
#include "common/secure_buffer.hpp"
#include "crypto/kdf.hpp"
#include "gsi/credential.hpp"
#include "repository/credential_store.hpp"
#include "repository/passphrase_policy.hpp"

namespace myproxy::repository {

struct RepositoryPolicy {
  /// Longest lifetime a stored credential may carry (§4.3: "The maximum
  /// lifetime of credentials delegated to the repository is set by policy
  /// on the repository server, but defaults to one week").
  Seconds max_stored_lifetime = kDefaultRepositoryLifetime;

  /// Hard cap on delegations from the repository regardless of what a
  /// credential's own max_delegation_lifetime says.
  Seconds max_delegation_lifetime{24L * 3600};

  /// Used when a GET request does not name a lifetime (§4.3: "a few hours").
  Seconds default_delegation_lifetime = kDefaultDelegatedLifetime;

  /// PBKDF2 cost for the at-rest envelope (swept by the BM_AtRest_* series).
  unsigned kdf_iterations = crypto::kDefaultKdfIterations;

  /// Ablation switch: disable at-rest encryption to measure its cost and
  /// demonstrate the §5.1 design choice. Production deployments keep this
  /// on.
  bool encrypt_at_rest = true;

  PassphrasePolicy passphrase_policy;
};

/// What a PUT/STORE attaches to the stored credential.
struct StoreOptions {
  std::string name;  ///< wallet slot (empty = default)
  Seconds max_delegation_lifetime{0};  ///< 0 = server default
  std::vector<std::string> retriever_patterns;
  std::vector<std::string> renewer_patterns;
  bool always_limited = false;
  std::optional<std::string> restriction;
  std::string task_tags;
  /// Number of OTP words to arm instead of pass-phrase auth; 0 = pass
  /// phrase. The pass phrase argument is then the OTP chain *seed*.
  std::uint32_t otp_words = 0;

  /// §6.1 long-term credential: exempt from max_stored_lifetime (which
  /// bounds *delegated proxies*); the record expires with the credential.
  bool long_term = false;
};

/// Metadata view of a stored credential (INFO/LIST responses). Never
/// includes key material.
struct CredentialInfo {
  std::string username;
  std::string name;
  std::string owner_dn;
  TimePoint created_at;
  TimePoint not_after;
  Seconds max_delegation_lifetime{0};
  bool always_limited = false;
  Sealing sealing = Sealing::kPassphrase;
  bool otp_enabled = false;
  std::uint32_t otp_remaining = 0;
  std::optional<std::string> restriction;
  std::string task_tags;
  std::vector<std::string> retriever_patterns;
  std::vector<std::string> renewer_patterns;
};

/// `kdf_iterations` from a server config (kDefaultKdfIterations when
/// absent). Throws ConfigError unless crypto::valid_kdf_iterations holds, so
/// a bad count is refused at startup rather than on the first PUT.
[[nodiscard]] unsigned kdf_iterations_from_config(const Config& config);

class Repository {
 public:
  Repository(std::unique_ptr<CredentialStore> store, RepositoryPolicy policy);

  /// PUT: persist `credential` for (`username`), authenticated at retrieval
  /// time by `pass_phrase` (or OTP seeded from it, per options.otp_words).
  /// `owner_dn` is the authenticated Grid identity performing the store.
  /// Throws PolicyError if the pass phrase fails policy or the credential
  /// outlives max_stored_lifetime.
  void store(std::string_view username, std::string_view pass_phrase,
             std::string_view owner_dn, const gsi::Credential& credential,
             const StoreOptions& options = {});

  /// GET/RENEW path: authenticate and decrypt the stored credential.
  /// `otp` selects OTP verification instead of pass-phrase decryption.
  /// Throws AuthenticationError on a bad pass phrase / OTP word,
  /// NotFoundError if absent, ExpiredError if the stored credential
  /// lapsed.
  [[nodiscard]] gsi::Credential open(std::string_view username,
                                     std::string_view secret,
                                     std::string_view name = {},
                                     bool otp = false);

  /// As above, for a `record` the caller has already read (and checked
  /// against its ACLs): the record that passed the check is the one that
  /// gets unsealed, with no second store read. The OTP path still re-reads
  /// under its lock, since verifying a word advances the stored chain.
  [[nodiscard]] gsi::Credential open(const CredentialRecord& record,
                                     std::string_view secret,
                                     bool otp = false);

  /// RENEW path (§6.6): open a *renewable* credential without the user's
  /// pass phrase. The caller (server layer) is responsible for having
  /// authorized the renewer against the record's renewer ACL and identity.
  /// Throws AuthorizationError for records not stored as renewable.
  [[nodiscard]] gsi::Credential open_for_renewal(std::string_view username,
                                                 std::string_view name = {});

  /// As above, for a `record` the caller has already read. Stored
  /// certificates byte-identical to one in `known` (the renewer's verified
  /// chain) are shared, not decoded.
  [[nodiscard]] gsi::Credential open_for_renewal(
      const CredentialRecord& record,
      std::span<const pki::Certificate> known = {}) const;

  [[nodiscard]] std::vector<CredentialInfo> list(
      std::string_view username) const;

  /// Wallet selection (§6.2): the user's credential whose task tags contain
  /// `task`; falls back to the default credential when no tag matches.
  [[nodiscard]] std::optional<CredentialInfo> select_for_task(
      std::string_view username, std::string_view task) const;

  /// DESTROY: remove one slot (empty name) or every credential when
  /// `all` is set. Returns number of records removed.
  std::size_t destroy(std::string_view username, std::string_view name = {},
                      bool all = false);

  /// CHANGE_PASSPHRASE: re-encrypt under the new pass phrase after
  /// authenticating with the old one.
  void change_passphrase(std::string_view username,
                         std::string_view old_phrase,
                         std::string_view new_phrase,
                         std::string_view name = {});

  /// Raw record access for the server layer (ACL evaluation, OTP state).
  [[nodiscard]] std::optional<CredentialRecord> record(
      std::string_view username, std::string_view name = {}) const;

  /// Sweep expired records (run periodically by the server).
  std::size_t sweep_expired() { return store_->sweep_expired(); }

  [[nodiscard]] const RepositoryPolicy& policy() const { return policy_; }
  [[nodiscard]] std::size_t size() const { return store_->size(); }

  /// The backing store (stats sampling, admin tooling).
  [[nodiscard]] const CredentialStore& store() const { return *store_; }

  /// Mutable store access for replication (a replica applies journal
  /// entries and snapshot records directly, below the repository's
  /// authentication layer — the records arrive already sealed).
  [[nodiscard]] CredentialStore& store_mutable() { return *store_; }

 private:
  [[nodiscard]] std::string aad_for(std::string_view username,
                                    std::string_view name) const;
  [[nodiscard]] static std::string passphrase_digest_for(
      std::string_view aad, std::string_view phrase);
  /// The stored record for (username, name); throws NotFoundError.
  [[nodiscard]] CredentialRecord stored(std::string_view username,
                                        std::string_view name) const;
  [[nodiscard]] gsi::Credential unseal(
      const CredentialRecord& record, std::string_view aad,
      std::span<const pki::Certificate> known) const;

  std::unique_ptr<CredentialStore> store_;
  RepositoryPolicy policy_;
  /// Serializes OTP fetch-verify-advance-store sequences (replay safety
  /// under concurrent retrievals).
  std::mutex otp_mutex_;
  /// Seals OTP-mode records at rest (pass-phrase sealing is unavailable
  /// because OTP words rotate). Fresh per process: a repository restart
  /// invalidates OTP records, which is the conservative failure mode.
  SecureBuffer master_key_;
};

}  // namespace myproxy::repository
