// Fluent X.509 certificate builder used by the CA (issuing EECs) and by the
// GSI proxy factory (signing proxy certificates). Centralizing construction
// keeps the invariants — UTC validity, serial uniqueness, extension
// encoding — in one place.
#pragma once

#include <optional>
#include <string>

#include "common/clock.hpp"
#include "crypto/key_pair.hpp"
#include "pki/certificate.hpp"
#include "pki/certificate_request.hpp"
#include "pki/distinguished_name.hpp"
#include "pki/proxy_policy.hpp"

namespace myproxy::pki {

class CertificateBuilder {
 public:
  CertificateBuilder();

  CertificateBuilder& subject(DistinguishedName dn);
  CertificateBuilder& issuer(DistinguishedName dn);
  CertificateBuilder& public_key(const crypto::KeyPair& key);

  /// Take the subject key from `csr` by copying its SubjectPublicKeyInfo
  /// bytes, never decoding or re-encoding the key. The caller must have
  /// checked csr.verify() (proof of possession) first. A certificate built
  /// this way holds no decoded key, so only sign_pem() issues it.
  CertificateBuilder& public_key_of(const CertificateRequest& csr);

  /// Validity window. `not_before` defaults to now() minus a 5-minute skew
  /// allowance; `lifetime` is measured from now().
  CertificateBuilder& lifetime(Seconds lifetime);
  CertificateBuilder& validity(TimePoint not_before, TimePoint not_after);

  /// Explicit serial (hex); a fresh 64-bit random serial is used otherwise.
  CertificateBuilder& serial_hex(std::string hex);

  /// Mark as a CA certificate (basicConstraints CA:TRUE, critical).
  CertificateBuilder& ca(bool is_ca);

  /// Attach a restricted-proxy policy extension (paper §6.5).
  CertificateBuilder& restriction(RestrictionPolicy policy);

  /// Sign with `issuer_key` and return the certificate.
  /// Throws if subject, issuer or public key are unset, or if the key was
  /// set with public_key_of().
  [[nodiscard]] Certificate sign(const crypto::KeyPair& issuer_key) const;

  /// Sign with `issuer_key` and return the certificate as PEM, for the wire.
  [[nodiscard]] std::string sign_pem(const crypto::KeyPair& issuer_key) const;

 private:
  void sign_into(X509* x, const crypto::KeyPair& issuer_key) const;

  std::optional<DistinguishedName> subject_;
  std::optional<DistinguishedName> issuer_;
  crypto::KeyPair public_key_;
  CertificateRequest public_key_csr_;
  TimePoint not_before_;
  TimePoint not_after_;
  std::optional<std::string> serial_hex_;
  bool is_ca_ = false;
  std::optional<RestrictionPolicy> restriction_;
};

/// Allowed clock skew between hosts: certificates are backdated by this much.
inline constexpr Seconds kValiditySkew{300};

}  // namespace myproxy::pki
