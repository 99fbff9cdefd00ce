// Shared, lazily-built PKI objects for tests. EC keys keep key generation
// cheap; RSA-specific behaviour is covered in key_pair_test.cpp.
#pragma once

#include <openssl/pem.h>
#include <openssl/rsa.h>
#include <openssl/x509.h>

#include <string>
#include <vector>

#include "common/clock.hpp"
#include "crypto/key_pair.hpp"
#include "crypto/openssl_util.hpp"
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
  const std::string_view der = csr.spki_der();
  return {der.begin(), der.end()};
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

/// A CSR for /CN=foreign that OpenSSL builds and signs itself, as another
/// client's toolkit would: `md` null for Ed25519/Ed448, `pss` for
/// RSASSA-PSS padding with a digest-sized salt.
inline std::string openssl_signed_csr_pem(EVP_PKEY* key, const EVP_MD* md,
                                          bool pss = false) {
  crypto::X509ReqPtr req(crypto::check_ptr(X509_REQ_new(), "X509_REQ_new"));
  crypto::check(
      X509_NAME_add_entry_by_txt(
          X509_REQ_get_subject_name(req.get()), "CN", MBSTRING_ASC,
          reinterpret_cast<const unsigned char*>("foreign"), -1, -1, 0),
      "X509_NAME_add_entry_by_txt");
  crypto::check(X509_REQ_set_pubkey(req.get(), key), "X509_REQ_set_pubkey");
  crypto::EvpMdCtxPtr ctx(crypto::check_ptr(EVP_MD_CTX_new(), "EVP_MD_CTX"));
  EVP_PKEY_CTX* pctx = nullptr;
  crypto::check(EVP_DigestSignInit(ctx.get(), &pctx, md, nullptr, key),
                "EVP_DigestSignInit");
  if (pss) {
    crypto::check(EVP_PKEY_CTX_set_rsa_padding(pctx, RSA_PKCS1_PSS_PADDING),
                  "set_rsa_padding");
    crypto::check(EVP_PKEY_CTX_set_rsa_pss_saltlen(pctx, RSA_PSS_SALTLEN_DIGEST),
                  "set_rsa_pss_saltlen");
  }
  if (X509_REQ_sign_ctx(req.get(), ctx.get()) <= 0) {
    crypto::throw_openssl("X509_REQ_sign_ctx");
  }
  crypto::BioPtr bio = crypto::memory_bio();
  crypto::check(PEM_write_bio_X509_REQ(bio.get(), req.get()),
                "PEM_write_bio_X509_REQ");
  return crypto::bio_to_string(bio.get());
}

}  // namespace myproxy::pki::testing
