#include "gsi/proxy.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/format.hpp"
#include "common/logging.hpp"
#include "pki/certificate_builder.hpp"

namespace myproxy::gsi {

namespace {

constexpr std::string_view kLogComponent = "gsi.proxy";

/// Subject DN of the CSR sent during delegation. Deliberately constant: the
/// sender never honors the requested subject.
const pki::DistinguishedName& delegation_placeholder_dn() {
  static const pki::DistinguishedName dn =
      pki::DistinguishedName::parse("/CN=delegation request");
  return dn;
}

/// A builder for a proxy of `issuer`, complete but for the subject key.
pki::CertificateBuilder proxy_builder(const Credential& issuer,
                                      const ProxyOptions& options) {
  if (options.lifetime <= Seconds(0)) {
    throw PolicyError("proxy lifetime must be positive");
  }
  if (issuer.expired()) {
    throw ExpiredError(
        fmt::format("issuing credential for {} has expired",
                    issuer.identity().str()));
  }
  const std::string_view cn =
      options.limited ? pki::kLimitedProxyCn : pki::kProxyCn;

  // Clamp so the proxy cannot outlive the credential that signs it; relying
  // parties enforce this nesting, so issuing looser proxies would only
  // manufacture unverifiable credentials.
  const TimePoint not_before = now() - pki::kValiditySkew;
  const TimePoint requested_end = now() + options.lifetime;
  const TimePoint not_after = std::min(requested_end, issuer.not_after());

  pki::CertificateBuilder builder;
  builder.subject(issuer.subject().with_cn(cn))
      .issuer(issuer.subject())
      .validity(not_before, not_after)
      .ca(false);
  if (options.restriction.has_value()) {
    builder.restriction(*options.restriction);
  }
  return builder;
}

}  // namespace

Credential create_proxy(const Credential& issuer,
                        const ProxyOptions& options) {
  crypto::KeyPair proxy_key = crypto::KeyPair::generate(options.key_spec);
  pki::Certificate proxy_cert = proxy_builder(issuer, options)
                                    .public_key(proxy_key)
                                    .sign(issuer.key());

  std::vector<pki::Certificate> chain;
  chain.reserve(issuer.chain().size() + 1);
  chain.push_back(issuer.certificate());
  chain.insert(chain.end(), issuer.chain().begin(), issuer.chain().end());

  log::debug(kLogComponent, "created {} for {} (lifetime {})",
             to_string(proxy_cert.proxy_type()), issuer.identity().str(),
             format_duration(std::chrono::duration_cast<Seconds>(
                 proxy_cert.not_after() - now())));
  return Credential(std::move(proxy_cert), std::move(proxy_key),
                    std::move(chain));
}

DelegationRequest begin_delegation(const crypto::KeySpec& key_spec) {
  return begin_delegation(crypto::KeyPair::generate(key_spec));
}

DelegationRequest begin_delegation(crypto::KeyPair key) {
  if (!key.valid() || !key.has_private()) {
    throw PolicyError("delegation requires a fresh private key");
  }
  DelegationRequest request;
  request.key = std::move(key);
  request.csr_pem =
      pki::CertificateRequest::create(delegation_placeholder_dn(),
                                      request.key)
          .to_pem();
  return request;
}

std::string delegate_credential(const Credential& issuer,
                                std::string_view csr_pem,
                                const ProxyOptions& options) {
  const auto csr = pki::CertificateRequest::from_pem(csr_pem);
  if (!csr.verify()) {
    throw VerificationError(
        "delegation CSR proof-of-possession signature is invalid");
  }
  // The proof of possession passed, so the new certificate carries the
  // CSR's SubjectPublicKeyInfo bytes as they arrived.
  std::string out = proxy_builder(issuer, options)
                        .public_key_of(csr)
                        .sign_pem(issuer.key());
  out += issuer.certificate_chain_pem();
  return out;
}

Credential complete_delegation(crypto::KeyPair key,
                               std::string_view chain_pem,
                               std::span<const pki::Certificate> known) {
  auto certs = pki::Certificate::chain_from_pem(chain_pem, known);
  pki::Certificate leaf = std::move(certs.front());
  certs.erase(certs.begin());

  if (!leaf.public_key().same_public_key(key)) {
    throw VerificationError(
        "delegated certificate does not match the locally generated key");
  }
  if (!leaf.is_proxy()) {
    throw VerificationError("delegated certificate is not a proxy");
  }
  if (certs.empty()) {
    throw VerificationError("delegated chain is missing issuer certificates");
  }
  if (!leaf.signed_by(certs.front())) {
    throw VerificationError(
        "delegated proxy is not signed by the adjacent chain certificate");
  }
  return Credential(std::move(leaf), std::move(key), std::move(certs));
}

}  // namespace myproxy::gsi
