// Trust store and GSI-aware certificate-chain verification.
//
// This is the Grid resource's view of authentication (paper §2.1–2.4): a
// peer presents a chain [leaf, ..., EEC, (intermediates)] where the leaf may
// be a (chained) proxy certificate. Verification walks proxy links under the
// legacy GSI rules — each proxy subject must be its issuer's DN plus one
// CN=proxy / CN=limited proxy component and must be signed by the issuer's
// key — then validates the end-entity certificate against the trusted CA
// roots, honoring revocation. The authenticated Grid identity is the EEC's
// DN, no matter how deep the delegation chain (§2.4: delegation can be
// chained).
#pragma once

#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "common/clock.hpp"
#include "pki/certificate.hpp"
#include "pki/certificate_authority.hpp"
#include "pki/proxy_policy.hpp"

namespace myproxy::pki {

struct VerifyOptions {
  /// Require each proxy's notAfter to nest inside its issuer's notAfter.
  /// The paper's lifetime containment argument (§2.3, §4.3) depends on this.
  bool enforce_lifetime_nesting = true;

  /// Check every CA-issued certificate against installed CRLs.
  bool check_revocation = true;

  /// Upper bound on delegation-chain depth (0 = unlimited). Guards against
  /// maliciously deep chains.
  std::size_t max_proxy_depth = 32;
};

/// Result of a successful chain verification.
struct VerifiedIdentity {
  /// The Grid identity: DN of the end-entity certificate.
  DistinguishedName identity;

  /// End-entity certificate itself (for gridmap lookups, renewal, audit).
  Certificate end_entity;

  /// The verified chain, leaf first; empty for an identity unsealed from a
  /// resumption ticket. Receivers pass it to chain_from_pem so that the
  /// peer's own certificates, sent back to it or stored for it, are not
  /// decoded a second time.
  std::vector<Certificate> chain;

  /// Number of proxy links between the leaf and the EEC (0 = EEC itself).
  std::size_t proxy_depth = 0;

  /// True if any link was a limited proxy — job submission must be refused
  /// (GSI limited-proxy semantics).
  bool limited = false;

  /// Effective restriction policy (intersection along the chain);
  /// nullopt = unrestricted (paper §6.5).
  EffectivePolicy policy;

  /// Earliest notAfter along the proxy links — when this identity stops
  /// being usable.
  TimePoint expires_at;
};

class TrustStore {
 public:
  TrustStore() : state_(std::make_shared<State>()) {}

  /// Install a trusted CA root certificate.
  void add_root(Certificate root);

  /// Install a signed CRL. The signature is checked against the installed
  /// root with the matching subject DN; throws VerificationError on a bad
  /// signature and NotFoundError if no matching root exists. A newer CRL
  /// from the same issuer replaces the older one.
  void add_crl(const SignedRevocationList& crl);

  [[nodiscard]] std::size_t root_count() const;

  /// Verify `chain` (leaf first) and return the authenticated identity.
  /// Throws VerificationError / ExpiredError / AuthorizationError with a
  /// reason on failure.
  [[nodiscard]] VerifiedIdentity verify(std::span<const Certificate> chain,
                                        const VerifyOptions& options = {}) const;

 private:
  [[nodiscard]] std::optional<Certificate> find_root_by_dn(
      const DistinguishedName& dn) const;
  [[nodiscard]] bool is_trusted_root(const Certificate& cert) const;
  [[nodiscard]] bool is_revoked_locked(const DistinguishedName& issuer,
                                       const std::string& serial) const;

  // Shared state so TrustStore copies are cheap views of one root set
  // (server threads each hold a handle).
  struct State {
    mutable std::mutex mutex;
    std::vector<Certificate> roots;
    // issuer DN string -> latest CRL from that issuer
    std::map<std::string, RevocationList> crls;
  };
  std::shared_ptr<State> state_;
};

}  // namespace myproxy::pki
