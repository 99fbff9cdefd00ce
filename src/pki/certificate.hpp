// X.509 certificates with the GSI-specific views MyProxy needs: proxy
// classification by subject CN (legacy GSI proxies, paper §2.3) and the
// restricted-proxy policy extension (paper §6.5,
// draft-ietf-pkix-impersonation).
//
// Reading a certificate decodes its names, validity, serial and extensions
// but leaves the subject key as bytes: OpenSSL 3's d2i_X509 decodes that key
// with a decoder it builds per call under a process-wide lock. Only three
// operations go further, each on first use and at most once per
// certificate: public_key() decodes the SubjectPublicKeyInfo with the
// thread's reused decoder, signed_by() needs the issuer's key, and native()
// builds an OpenSSL X509. A certificate adopted from an X509 (the TLS
// handshake chain, a freshly signed certificate) reads the same views from
// that X509 and reuses its key.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.hpp"
#include "crypto/key_pair.hpp"
#include "pki/distinguished_name.hpp"

using X509 = struct x509_st;

namespace myproxy::pki {

/// How a certificate participates in a GSI identity chain.
enum class ProxyType {
  kEndEntity,  ///< long-term credential (or CA) — not a proxy
  kFull,       ///< "CN=proxy": full impersonation rights
  kLimited,    ///< "CN=limited proxy": job submission must be refused
};

[[nodiscard]] std::string_view to_string(ProxyType type) noexcept;

class Certificate {
 public:
  Certificate() = default;

  /// First certificate in a PEM blob. Throws ParseError/CryptoError.
  static Certificate from_pem(std::string_view pem);

  /// Every certificate in a PEM blob, in order of appearance. Each block
  /// must hold exactly one certificate's DER encoding. A block whose bytes
  /// equal the DER of a certificate in `known` (one the caller already
  /// holds, such as the peer's verified chain) shares that certificate
  /// instead of being read again; every other block is parsed.
  /// Other PEM blocks are skipped and wiped. Throws ParseError.
  static std::vector<Certificate> chain_from_pem(
      std::string_view pem, std::span<const Certificate> known = {});

  /// Concatenate `certs` into one PEM blob.
  static std::string chain_to_pem(const std::vector<Certificate>& certs);

  [[nodiscard]] bool valid() const noexcept { return parsed_ != nullptr; }

  [[nodiscard]] std::string to_pem() const;

  [[nodiscard]] DistinguishedName subject() const;
  [[nodiscard]] DistinguishedName issuer() const;

  [[nodiscard]] TimePoint not_before() const;
  [[nodiscard]] TimePoint not_after() const;

  /// Remaining lifetime relative to the library clock; <= 0 when expired.
  [[nodiscard]] Seconds remaining_lifetime() const;
  [[nodiscard]] bool expired() const { return remaining_lifetime() <= Seconds(0); }

  /// Serial number as lower-case hex.
  [[nodiscard]] std::string serial_hex() const;

  /// Public half of the subject key (never contains a private key).
  /// Decoded on first use; throws CryptoError if it does not decode.
  [[nodiscard]] crypto::KeyPair public_key() const;

  /// True if this certificate's signature over its TBSCertificate bytes
  /// verifies under `issuer`'s key, and the signature algorithm named inside
  /// those bytes is the one it is checked under (as X509_verify). Checks
  /// only the signature — not validity windows or DN chaining.
  [[nodiscard]] bool signed_by(const Certificate& issuer) const;

  /// DER encoding.
  [[nodiscard]] const std::string& der() const;

  /// SHA-256 over the DER encoding, hex. Stable identity for audit logs.
  [[nodiscard]] std::string fingerprint() const;

  /// Proxy classification from the subject's final CN component relative to
  /// the issuer DN (legacy GSI rule). kEndEntity when the subject does not
  /// extend the issuer by CN=proxy / CN=limited proxy.
  [[nodiscard]] ProxyType proxy_type() const;
  [[nodiscard]] bool is_proxy() const {
    return proxy_type() != ProxyType::kEndEntity;
  }

  /// Restriction policy text carried in the proxy-policy extension (§6.5),
  /// if present.
  [[nodiscard]] std::optional<std::string> restriction_policy() const;

  /// True if basicConstraints marks this certificate as a CA.
  [[nodiscard]] bool is_ca() const;

  /// This certificate as an OpenSSL X509, for the APIs that take one (a TLS
  /// context). Built with d2i_X509 on first use; the certificate keeps it.
  [[nodiscard]] X509* native() const;

  /// Adopt an X509 (takes one reference). Throws ParseError unless its
  /// DER encoding can be walked.
  static Certificate adopt(X509* x509);

  /// Same DER bytes?
  friend bool operator==(const Certificate& a, const Certificate& b);

 private:
  struct Parsed;

  /// Read one certificate's DER; `n` numbers it in error messages.
  static Certificate read(std::string der, std::size_t n);

  [[nodiscard]] const Parsed& parsed() const;

  std::shared_ptr<const Parsed> parsed_;
};

}  // namespace myproxy::pki
