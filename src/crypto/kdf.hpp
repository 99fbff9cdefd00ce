// Pass-phrase key derivation (PBKDF2-HMAC-SHA-256). The repository encrypts
// every stored credential under a key derived from the user's chosen pass
// phrase (paper §5.1), so the iteration count is the attacker's per-guess
// work factor after a repository-host compromise.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

#include "common/secure_buffer.hpp"

namespace myproxy::crypto {

/// Default PBKDF2 iteration count. The BM_AtRest_* series sweep it to show
/// the security/latency tradeoff (bench_crypto --benchmark_filter=BM_AtRest_).
inline constexpr unsigned kDefaultKdfIterations = 10'000;

/// Largest iteration count an envelope may be sealed or opened under. The
/// same bound applies on both sides so every record that seals can open.
inline constexpr unsigned kMaxKdfIterations = 100'000'000;

/// True if envelopes may be sealed and opened under `iterations`.
[[nodiscard]] constexpr bool valid_kdf_iterations(
    std::int64_t iterations) noexcept {
  return iterations >= 1 && iterations <= kMaxKdfIterations;
}

/// Derive `key_len` bytes from `pass_phrase` with PBKDF2-HMAC-SHA-256
/// (RFC 8018 §5.2). Throws CryptoError on zero iterations or key length.
[[nodiscard]] SecureBuffer pbkdf2(std::string_view pass_phrase,
                                  std::span<const std::uint8_t> salt,
                                  unsigned iterations, std::size_t key_len);

}  // namespace myproxy::crypto
