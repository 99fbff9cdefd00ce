// Authenticated symmetric encryption (AES-256-GCM) plus a pass-phrase
// envelope (PBKDF2 -> AES-GCM) used for the repository's encryption at rest.
//
// Envelope wire/disk format (all fields fixed size except ciphertext):
//   magic "MPE1" | iterations (4B big-endian) | salt (16B) | nonce (12B) |
//   tag (16B) | ciphertext
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/secure_buffer.hpp"

namespace myproxy::crypto {

inline constexpr std::size_t kAesKeySize = 32;
inline constexpr std::size_t kGcmNonceSize = 12;
inline constexpr std::size_t kGcmTagSize = 16;
inline constexpr std::size_t kEnvelopeSaltSize = 16;

/// AES-256-GCM seal: returns nonce||tag||ciphertext. `aad` is authenticated
/// but not encrypted (we bind ciphertexts to their owner's username so a
/// record cannot be transplanted between users on disk).
[[nodiscard]] std::vector<std::uint8_t> aead_seal(
    std::span<const std::uint8_t> key, std::string_view plaintext,
    std::string_view aad);

/// Inverse of aead_seal; throws VerificationError on tag mismatch.
[[nodiscard]] SecureBuffer aead_open(std::span<const std::uint8_t> key,
                                     std::span<const std::uint8_t> sealed,
                                     std::string_view aad);

/// Pass-phrase envelope: PBKDF2(pass_phrase, fresh salt) -> AES-256-GCM.
/// Throws CryptoError unless valid_kdf_iterations(iterations), so every
/// envelope it produces is one passphrase_open accepts.
[[nodiscard]] std::vector<std::uint8_t> passphrase_seal(
    std::string_view pass_phrase, std::string_view plaintext,
    std::string_view aad, unsigned iterations);

/// Opens a passphrase_seal envelope; throws VerificationError if the pass
/// phrase is wrong (tag mismatch) and ParseError on a malformed envelope,
/// including one whose iteration count fails valid_kdf_iterations.
[[nodiscard]] SecureBuffer passphrase_open(std::string_view pass_phrase,
                                           std::span<const std::uint8_t> data,
                                           std::string_view aad);

/// True if `data` begins with the pass-phrase envelope magic.
[[nodiscard]] bool is_envelope(std::span<const std::uint8_t> data) noexcept;

}  // namespace myproxy::crypto
