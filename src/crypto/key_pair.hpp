// Asymmetric key pairs (RSA and EC) over EVP_PKEY. Long-term Grid
// credentials in 2001 were RSA; we additionally support EC P-256 so the
// benchmarks can ablate proxy-keypair generation cost (the dominant term in
// myproxy-get-delegation latency).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/secure_buffer.hpp"

// Forward-declare so users of this header need no OpenSSL includes.
using EVP_PKEY = struct evp_pkey_st;

namespace myproxy::crypto {

enum class KeyType { kRsa, kEc };

struct KeySpec {
  KeyType type = KeyType::kRsa;
  /// RSA modulus bits; ignored for EC (always P-256).
  unsigned rsa_bits = 2048;

  static KeySpec rsa(unsigned bits) { return {KeyType::kRsa, bits}; }
  static KeySpec ec() { return {KeyType::kEc, 0}; }
};

/// Value-semantic key pair (internally reference counts the EVP_PKEY).
class KeyPair {
 public:
  /// Empty; most operations on an empty key throw.
  KeyPair() = default;

  /// Generate a fresh key pair.
  static KeyPair generate(const KeySpec& spec);

  /// Import a private key from PEM (PKCS#8 or traditional). If the PEM is
  /// encrypted, `pass_phrase` must be supplied.
  static KeyPair from_private_pem(std::string_view pem,
                                  std::string_view pass_phrase = {});

  /// Import only a public key (verification-only KeyPair).
  static KeyPair from_public_pem(std::string_view pem);

  /// Import a DER SubjectPublicKeyInfo with the calling thread's reused
  /// decoder. Throws CryptoError if it does not decode.
  static KeyPair from_public_der(std::string_view spki);

  [[nodiscard]] bool valid() const noexcept { return pkey_ != nullptr; }
  [[nodiscard]] bool has_private() const noexcept { return has_private_; }

  /// Unencrypted PKCS#8 PEM of the private key (SecureBuffer: wiped copy).
  [[nodiscard]] SecureBuffer private_pem() const;

  /// AES-256-CBC pass-phrase-encrypted PKCS#8 PEM of the private key.
  [[nodiscard]] std::string private_pem_encrypted(
      std::string_view pass_phrase) const;

  [[nodiscard]] std::string public_pem() const;

  [[nodiscard]] KeyType type() const;

  /// Key size in bits (RSA modulus size / EC field size).
  [[nodiscard]] unsigned bits() const;

  /// True if both keys wrap the same public key material.
  [[nodiscard]] bool same_public_key(const KeyPair& other) const;

  /// Borrow the underlying EVP_PKEY (used by pki/tls internals).
  [[nodiscard]] EVP_PKEY* native() const noexcept { return pkey_.get(); }

  /// Adopt an EVP_PKEY (takes one reference).
  static KeyPair adopt(EVP_PKEY* pkey, bool has_private);

 private:
  struct PkeyDeleter {
    void operator()(EVP_PKEY* p) const noexcept;
  };
  std::shared_ptr<EVP_PKEY> pkey_;
  bool has_private_ = false;
};

/// Sign `data` with the private half of `key` using SHA-256 (RSA PKCS#1 v1.5
/// or ECDSA, by key type).
[[nodiscard]] std::vector<std::uint8_t> sign(const KeyPair& key,
                                             std::string_view data);

/// Verify a signature made by `sign`; returns false on mismatch, throws only
/// on operational failure.
[[nodiscard]] bool verify(const KeyPair& key, std::string_view data,
                          std::span<const std::uint8_t> signature);

}  // namespace myproxy::crypto
