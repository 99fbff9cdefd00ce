// PBKDF2-HMAC-SHA-256 with the HMAC keyed once per derivation.
//
// PKCS5_PBKDF2_HMAC re-initialises its HMAC context through the provider
// layer on every iteration, which costs more than the two SHA-256
// compressions the iteration exists to perform. Here the pass phrase is
// absorbed into an inner (key^ipad) and an outer (key^opad) SHA256_CTX once;
// each iteration then copies those states by value and hashes only the
// 32-byte U. The derived bytes are those of RFC 8018 §5.2, so the work
// factor an attacker pays per guess is unchanged.
//
// The low-level SHA256_* API is deprecated in OpenSSL 3 but still shipped;
// the deprecation warning is suppressed in this translation unit only.
#define OPENSSL_SUPPRESS_DEPRECATED

#include "crypto/kdf.hpp"

#include <openssl/crypto.h>
#include <openssl/sha.h>

#include <algorithm>
#include <cstring>

#include "common/error.hpp"

namespace myproxy::crypto {

namespace {

constexpr std::size_t kBlockSize = SHA256_CBLOCK;
constexpr std::size_t kHashSize = SHA256_DIGEST_LENGTH;

/// Every intermediate derived from the pass phrase, wiped on every exit.
struct Pbkdf2State {
  std::uint8_t key[kBlockSize] = {};  // HMAC key, zero-padded to a block
  std::uint8_t pad[kBlockSize] = {};
  SHA256_CTX inner{};  // state after absorbing key ^ ipad
  SHA256_CTX outer{};  // state after absorbing key ^ opad
  SHA256_CTX work{};
  std::uint8_t u[kHashSize] = {};
  std::uint8_t t[kHashSize] = {};

  Pbkdf2State() = default;
  Pbkdf2State(const Pbkdf2State&) = delete;
  Pbkdf2State& operator=(const Pbkdf2State&) = delete;
  ~Pbkdf2State() { OPENSSL_cleanse(this, sizeof(*this)); }
};

void absorb_pad(SHA256_CTX& ctx, Pbkdf2State& s, std::uint8_t fill) {
  for (std::size_t i = 0; i < kBlockSize; ++i) s.pad[i] = s.key[i] ^ fill;
  if (SHA256_Init(&ctx) != 1 || SHA256_Update(&ctx, s.pad, kBlockSize) != 1) {
    throw CryptoError("pbkdf2: SHA-256 initialisation failed");
  }
}

/// Completes an HMAC whose message `s.work` (a copy of `s.inner`) has
/// absorbed: U := H(key ^ opad || H(key ^ ipad || message)).
void finish_hmac(Pbkdf2State& s) {
  SHA256_Final(s.u, &s.work);
  s.work = s.outer;
  SHA256_Update(&s.work, s.u, kHashSize);
  SHA256_Final(s.u, &s.work);
}

}  // namespace

SecureBuffer pbkdf2(std::string_view pass_phrase,
                    std::span<const std::uint8_t> salt, unsigned iterations,
                    std::size_t key_len) {
  if (iterations == 0) throw CryptoError("pbkdf2: zero iterations");
  if (key_len == 0) throw CryptoError("pbkdf2: zero key length");

  Pbkdf2State s;
  // RFC 2104: a key longer than the block is replaced by its hash.
  const auto* phrase =
      reinterpret_cast<const unsigned char*>(pass_phrase.data());
  if (pass_phrase.size() > kBlockSize) {
    SHA256(phrase, pass_phrase.size(), s.key);
  } else if (!pass_phrase.empty()) {
    std::memcpy(s.key, phrase, pass_phrase.size());
  }
  absorb_pad(s.inner, s, 0x36);
  absorb_pad(s.outer, s, 0x5c);

  SecureBuffer out(key_len);
  std::uint32_t block = 1;
  for (std::size_t offset = 0; offset < key_len;
       offset += kHashSize, ++block) {
    // U_1 = HMAC(P, S || INT_32_BE(block)).
    const std::uint8_t index[4] = {
        static_cast<std::uint8_t>(block >> 24),
        static_cast<std::uint8_t>(block >> 16),
        static_cast<std::uint8_t>(block >> 8),
        static_cast<std::uint8_t>(block)};
    s.work = s.inner;
    SHA256_Update(&s.work, salt.data(), salt.size());
    SHA256_Update(&s.work, index, sizeof(index));
    finish_hmac(s);
    std::memcpy(s.t, s.u, kHashSize);

    // U_i = HMAC(P, U_{i-1}); T = U_1 ^ U_2 ^ ... ^ U_c.
    for (unsigned i = 1; i < iterations; ++i) {
      s.work = s.inner;
      SHA256_Update(&s.work, s.u, kHashSize);
      finish_hmac(s);
      for (std::size_t j = 0; j < kHashSize; ++j) s.t[j] ^= s.u[j];
    }
    std::memcpy(out.data() + offset, s.t,
                std::min(kHashSize, key_len - offset));
  }
  return out;
}

}  // namespace myproxy::crypto
