// PKCS#10 certificate signing requests. Delegation (paper §2.4) works by
// the *receiver* generating a fresh key pair and sending a CSR; the sender
// signs it with the credential being delegated. The private key never
// crosses the wire.
//
// A request is held as its DER bytes plus the positions of the parts the
// sender needs. One reader walks those bytes, for created and received
// requests alike; only the SubjectPublicKeyInfo is decoded (with the
// calling thread's reused decoder), and the subject name only on demand.
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "crypto/key_pair.hpp"
#include "pki/distinguished_name.hpp"

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

  /// The first CERTIFICATE REQUEST block of `pem`. Throws ParseError if
  /// there is none or its DER is malformed, CryptoError if its public key
  /// does not decode.
  static CertificateRequest from_pem(std::string_view pem);

  [[nodiscard]] std::string to_pem() const;

  /// Parsed from the request's Name on each call. Throws ParseError.
  [[nodiscard]] DistinguishedName subject() const;

  /// Public key the requester proved possession of (public half only).
  [[nodiscard]] crypto::KeyPair public_key() const;

  /// Verify the CSR's self-signature (proof of possession of the key) over
  /// the CertificationRequestInfo bytes as they arrived.
  [[nodiscard]] bool verify() const;

  /// The SubjectPublicKeyInfo bytes as encoded in the request.
  [[nodiscard]] std::string_view spki_der() const;

  [[nodiscard]] bool valid() const noexcept { return encoding_ != nullptr; }

 private:
  struct Encoding;

  /// Walk a CertificationRequest (RFC 2986 §4) and record where its parts
  /// are. Throws ParseError.
  static std::shared_ptr<const Encoding> read(std::string encoded);
  [[nodiscard]] const Encoding& encoding() const;

  std::shared_ptr<const Encoding> encoding_;
  /// The requester's key: its own for a created request, else the one
  /// decoded from the SubjectPublicKeyInfo.
  crypto::KeyPair key_;
};

}  // namespace myproxy::pki
