// GSI credentials: a certificate, its private key, and the chain of issuing
// certificates (proxies and the end-entity certificate) needed for a relying
// party to verify it back to a CA root (paper §2.1, §2.3).
//
// Serialized form follows the Globus proxy-file layout: leaf certificate
// PEM, then the private key PEM, then the remaining chain PEMs, all
// concatenated.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.hpp"
#include "common/secure_buffer.hpp"
#include "crypto/key_pair.hpp"
#include "pki/certificate.hpp"
#include "pki/distinguished_name.hpp"

namespace myproxy::gsi {

class Credential {
 public:
  Credential() = default;

  /// `chain` holds the issuing certificates above `cert`, leaf-adjacent
  /// first (for a proxy: [issuing proxy..., EEC]); empty for a long-term
  /// credential.
  Credential(pki::Certificate cert, crypto::KeyPair key,
             std::vector<pki::Certificate> chain = {});

  [[nodiscard]] bool valid() const noexcept { return cert_.valid(); }

  [[nodiscard]] const pki::Certificate& certificate() const { return cert_; }
  [[nodiscard]] const crypto::KeyPair& key() const { return key_; }
  [[nodiscard]] const std::vector<pki::Certificate>& chain() const {
    return chain_;
  }

  /// Leaf certificate plus chain — what gets sent to a relying party.
  [[nodiscard]] std::vector<pki::Certificate> full_chain() const;

  /// The end-entity certificate: the leaf itself for a long-term
  /// credential, else the first non-proxy certificate in the chain.
  [[nodiscard]] const pki::Certificate& end_entity() const;

  /// Grid identity: subject DN of the end-entity certificate (§2.4 — the
  /// identity survives any depth of delegation).
  [[nodiscard]] pki::DistinguishedName identity() const;

  /// Subject DN of the leaf certificate itself.
  [[nodiscard]] pki::DistinguishedName subject() const;

  [[nodiscard]] bool is_proxy() const { return cert_.is_proxy(); }

  /// Proxy links between leaf and EEC (0 for a long-term credential).
  [[nodiscard]] std::size_t delegation_depth() const;

  /// Tightest notAfter across the leaf and its proxy links.
  [[nodiscard]] TimePoint not_after() const;
  [[nodiscard]] Seconds remaining_lifetime() const;
  [[nodiscard]] bool expired() const {
    return remaining_lifetime() <= Seconds(0);
  }

  /// Serialize: leaf cert PEM + unencrypted private key PEM + chain PEMs.
  /// Wrapped in a SecureBuffer because it embeds the key (§2.3: proxies are
  /// stored unencrypted, guarded by file permissions only).
  [[nodiscard]] SecureBuffer to_pem() const;

  /// Serialize with the private key encrypted under `pass_phrase` (the
  /// long-term credential storage format, §2.1).
  [[nodiscard]] std::string to_pem_encrypted(
      std::string_view pass_phrase) const;

  /// Leaf + chain certificates only (no key) as PEM.
  [[nodiscard]] std::string certificate_chain_pem() const;

  /// Parse a credential file (accepts both encrypted and plain keys; the
  /// pass phrase is ignored for plain keys). Throws on key/cert mismatch.
  /// Certificates byte-identical to one in `known` are shared, not decoded
  /// (Certificate::chain_from_pem).
  static Credential from_pem(std::string_view pem,
                             std::string_view pass_phrase = {},
                             std::span<const pki::Certificate> known = {});

 private:
  pki::Certificate cert_;
  crypto::KeyPair key_;
  std::vector<pki::Certificate> chain_;
};

}  // namespace myproxy::gsi
