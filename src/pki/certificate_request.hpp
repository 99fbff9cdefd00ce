// PKCS#10 certificate signing requests. Delegation (paper §2.4) works by
// the *receiver* generating a fresh key pair and sending a CSR; the sender
// signs it with the credential being delegated. The private key never
// crosses the wire.
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "crypto/key_pair.hpp"
#include "pki/distinguished_name.hpp"

using X509_REQ = struct X509_req_st;

namespace myproxy::pki {

class CertificateRequest {
 public:
  CertificateRequest() = default;

  /// Build a CSR for `subject`, self-signed with `key` (proof of possession).
  /// An EC key's SubjectPublicKeyInfo is written from its encoded point
  /// without an encoder round trip; the request keeps `key` so that
  /// public_key() and verify() work without decoding it back.
  static CertificateRequest create(const DistinguishedName& subject,
                                   const crypto::KeyPair& key);

  static CertificateRequest from_pem(std::string_view pem);

  [[nodiscard]] std::string to_pem() const;

  [[nodiscard]] DistinguishedName subject() const;

  /// Public key the requester proved possession of (public half only).
  [[nodiscard]] crypto::KeyPair public_key() const;

  /// Verify the CSR's self-signature (proof of possession of the key).
  [[nodiscard]] bool verify() const;

  [[nodiscard]] bool valid() const noexcept { return req_ != nullptr; }

  [[nodiscard]] X509_REQ* native() const noexcept { return req_.get(); }

 private:
  /// The requester's public key, borrowed from key_ or the parsed request.
  [[nodiscard]] EVP_PKEY* key() const;

  std::shared_ptr<X509_REQ> req_;
  /// Set by create(): the requester's own key. A parsed request has none
  /// and uses the key OpenSSL decoded from its SubjectPublicKeyInfo.
  crypto::KeyPair key_;
};

}  // namespace myproxy::pki
