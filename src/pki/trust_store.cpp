#include "pki/trust_store.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/format.hpp"

namespace myproxy::pki {

namespace {

void check_validity_window(const Certificate& cert, std::string_view role) {
  const TimePoint t = now();
  if (t < cert.not_before()) {
    throw VerificationError(
        fmt::format("{} certificate {} is not yet valid", role,
                    cert.subject().str()));
  }
  if (t > cert.not_after()) {
    throw ExpiredError(fmt::format("{} certificate {} has expired", role,
                                   cert.subject().str()));
  }
}

}  // namespace

void TrustStore::add_root(Certificate root) {
  if (!root.is_ca()) {
    throw PolicyError(
        fmt::format("refusing non-CA certificate {} as a trust root",
                    root.subject().str()));
  }
  const std::scoped_lock lock(state_->mutex);
  auto& roots = state_->roots;
  if (std::find(roots.begin(), roots.end(), root) == roots.end()) {
    roots.push_back(std::move(root));
  }
}

void TrustStore::add_crl(const SignedRevocationList& crl) {
  const std::optional<Certificate> root = find_root_by_dn(crl.list.issuer);
  if (!root.has_value()) {
    throw NotFoundError(
        fmt::format("no trusted root matches CRL issuer {}",
                    crl.list.issuer.str()));
  }
  if (!crl.verify(*root)) {
    throw VerificationError("CRL signature verification failed");
  }
  const std::scoped_lock lock(state_->mutex);
  auto [it, inserted] =
      state_->crls.try_emplace(crl.list.issuer.str(), crl.list);
  if (!inserted && it->second.issued_at <= crl.list.issued_at) {
    it->second = crl.list;
  }
}

std::size_t TrustStore::root_count() const {
  const std::scoped_lock lock(state_->mutex);
  return state_->roots.size();
}

std::optional<Certificate> TrustStore::find_root_by_dn(
    const DistinguishedName& dn) const {
  const std::scoped_lock lock(state_->mutex);
  for (const auto& root : state_->roots) {
    if (root.subject() == dn) return root;
  }
  return std::nullopt;
}

bool TrustStore::is_trusted_root(const Certificate& cert) const {
  const std::scoped_lock lock(state_->mutex);
  return std::find(state_->roots.begin(), state_->roots.end(), cert) !=
         state_->roots.end();
}

bool TrustStore::is_revoked_locked(const DistinguishedName& issuer,
                                   const std::string& serial) const {
  const std::scoped_lock lock(state_->mutex);
  const auto it = state_->crls.find(issuer.str());
  return it != state_->crls.end() && it->second.contains(serial);
}

VerifiedIdentity TrustStore::verify(std::span<const Certificate> chain,
                                    const VerifyOptions& options) const {
  if (chain.empty()) {
    throw VerificationError("empty certificate chain");
  }

  VerifiedIdentity out;
  out.expires_at = chain.front().not_after();

  // --- Phase 1: walk proxy links from the leaf. ---------------------------
  std::size_t i = 0;
  while (i < chain.size() && chain[i].is_proxy()) {
    const Certificate& proxy = chain[i];
    check_validity_window(proxy, "proxy");
    if (i + 1 >= chain.size()) {
      throw VerificationError(
          "chain ends at a proxy certificate with no issuer");
    }
    const Certificate& issuer = chain[i + 1];
    if (!(proxy.issuer() == issuer.subject())) {
      throw VerificationError(fmt::format(
          "proxy issuer DN '{}' does not match next certificate subject '{}'",
          proxy.issuer().str(), issuer.subject().str()));
    }
    if (issuer.is_ca()) {
      // A CA key must never sign proxies; that would let a CA impersonate
      // users silently.
      throw VerificationError("proxy certificate issued by a CA certificate");
    }
    if (!proxy.signed_by(issuer)) {
      throw VerificationError(fmt::format(
          "proxy certificate '{}' signature verification failed",
          proxy.subject().str()));
    }
    if (options.enforce_lifetime_nesting &&
        proxy.not_after() > issuer.not_after()) {
      throw VerificationError(fmt::format(
          "proxy '{}' outlives its issuer (lifetime nesting violated)",
          proxy.subject().str()));
    }
    if (proxy.proxy_type() == ProxyType::kLimited) out.limited = true;
    if (const auto policy_text = proxy.restriction_policy()) {
      out.policy = compose(out.policy, RestrictionPolicy::parse(*policy_text));
    }
    out.expires_at = std::min(out.expires_at, proxy.not_after());
    ++out.proxy_depth;
    if (options.max_proxy_depth != 0 &&
        out.proxy_depth > options.max_proxy_depth) {
      throw VerificationError(
          fmt::format("delegation chain deeper than {} links",
                      options.max_proxy_depth));
    }
    ++i;
  }

  if (i >= chain.size()) {
    throw VerificationError("certificate chain has no end-entity certificate");
  }

  // --- Phase 2: end-entity certificate. -----------------------------------
  const Certificate& eec = chain[i];
  check_validity_window(eec, "end-entity");
  if (eec.is_ca()) {
    throw VerificationError(
        "end-entity position holds a CA certificate; identities must be "
        "end-entity certificates");
  }
  out.identity = eec.subject();
  out.end_entity = eec;
  out.chain.assign(chain.begin(), chain.end());

  // A restriction policy on the EEC itself also applies (a site may issue
  // restricted service certs).
  if (const auto policy_text = eec.restriction_policy()) {
    out.policy = compose(out.policy, RestrictionPolicy::parse(*policy_text));
  }

  // --- Phase 3: CA path from the EEC to a trusted root. -------------------
  const Certificate* current = &eec;
  std::size_t j = i;
  while (true) {
    if (options.check_revocation &&
        is_revoked_locked(current->issuer(), current->serial_hex())) {
      throw AuthorizationError(
          fmt::format("certificate {} (serial {}) has been revoked",
                      current->subject().str(), current->serial_hex()));
    }

    // Find the issuer: next element of the chain, or an installed root.
    const Certificate* issuer = nullptr;
    std::optional<Certificate> root_holder;
    if (j + 1 < chain.size()) {
      issuer = &chain[j + 1];
    } else {
      root_holder = find_root_by_dn(current->issuer());
      if (!root_holder.has_value()) {
        throw VerificationError(fmt::format(
            "no trusted root for issuer '{}'", current->issuer().str()));
      }
      issuer = &*root_holder;
    }

    if (!issuer->is_ca()) {
      throw VerificationError(fmt::format(
          "issuer certificate '{}' is not a CA", issuer->subject().str()));
    }
    if (!(current->issuer() == issuer->subject())) {
      throw VerificationError(fmt::format(
          "issuer DN '{}' does not match certificate subject '{}'",
          current->issuer().str(), issuer->subject().str()));
    }
    if (!current->signed_by(*issuer)) {
      throw VerificationError(
          fmt::format("certificate '{}' signature verification failed",
                      current->subject().str()));
    }
    check_validity_window(*issuer, "CA");

    if (is_trusted_root(*issuer)) break;  // anchored

    // Intermediate CA supplied in the chain: keep walking upward.
    if (j + 1 >= chain.size()) {
      // Issuer came from the store but is not a trusted root — impossible
      // (the store only holds roots); defensive guard.
      throw VerificationError("verification did not reach a trusted root");
    }
    ++j;
    current = &chain[j];
  }

  return out;
}

}  // namespace myproxy::pki
