// Shared, lazily-built PKI objects for tests. EC keys keep key generation
// cheap; RSA-specific behaviour is covered in key_pair_test.cpp.
#pragma once

#include <openssl/x509.h>

#include <vector>

#include "common/clock.hpp"
#include "crypto/key_pair.hpp"
#include "pki/certificate.hpp"
#include "pki/certificate_authority.hpp"
#include "pki/certificate_builder.hpp"
#include "pki/certificate_request.hpp"
#include "pki/distinguished_name.hpp"

namespace myproxy::pki::testing {

inline const DistinguishedName& ca_dn() {
  static const DistinguishedName dn =
      DistinguishedName::parse("/C=US/O=Grid/CN=Test CA");
  return dn;
}

inline CertificateAuthority& test_ca() {
  static CertificateAuthority ca =
      CertificateAuthority::create(ca_dn(), crypto::KeySpec::ec());
  return ca;
}

struct TestIdentity {
  DistinguishedName dn;
  crypto::KeyPair key;
  Certificate cert;
};

/// CA-issued end-entity identity with a fresh EC key.
inline TestIdentity make_identity(const std::string& cn,
                                  Seconds lifetime = Seconds(3600 * 24)) {
  TestIdentity id;
  id.dn = DistinguishedName::parse("/C=US/O=Grid/OU=People/CN=" + cn);
  id.key = crypto::KeyPair::generate(crypto::KeySpec::ec());
  id.cert = test_ca().issue(id.dn, id.key, lifetime);
  return id;
}

/// Manually-built proxy certificate (bypasses gsi:: so pki tests stand
/// alone). Signs `subject_key`'s public half with `issuer`'s key.
inline Certificate make_proxy_cert(
    const TestIdentity& issuer, const crypto::KeyPair& subject_key,
    std::string_view cn = kProxyCn, Seconds lifetime = Seconds(3600),
    std::optional<RestrictionPolicy> policy = std::nullopt) {
  CertificateBuilder builder;
  builder.subject(issuer.dn.with_cn(cn))
      .issuer(issuer.dn)
      .public_key(subject_key)
      .lifetime(lifetime)
      .ca(false);
  if (policy.has_value()) builder.restriction(*policy);
  return builder.sign(issuer.key);
}

/// DER SubjectPublicKeyInfo bytes, as encoded (never re-derived from a
/// decoded key).
inline std::vector<unsigned char> spki_der(const X509_PUBKEY* spki) {
  unsigned char* der = nullptr;
  const int len = i2d_X509_PUBKEY(spki, &der);
  std::vector<unsigned char> out;
  if (len > 0) out.assign(der, der + len);
  OPENSSL_free(der);
  return out;
}

inline std::vector<unsigned char> spki_der(const Certificate& cert) {
  return spki_der(X509_get_X509_PUBKEY(cert.native()));
}

inline std::vector<unsigned char> spki_der(const CertificateRequest& csr) {
  return spki_der(X509_REQ_get_X509_PUBKEY(csr.native()));
}

/// i2d_PUBKEY of `key`: what OpenSSL's encoder writes for it.
inline std::vector<unsigned char> encoded_public_key(
    const crypto::KeyPair& key) {
  unsigned char* der = nullptr;
  const int len = i2d_PUBKEY(key.native(), &der);
  std::vector<unsigned char> out;
  if (len > 0) out.assign(der, der + len);
  OPENSSL_free(der);
  return out;
}

}  // namespace myproxy::pki::testing
