#include "crypto/symmetric.hpp"

#include <openssl/evp.h>

#include <cstring>

#include "common/format.hpp"
#include "crypto/kdf.hpp"
#include "crypto/openssl_util.hpp"
#include "crypto/random.hpp"

namespace myproxy::crypto {

namespace {

constexpr char kMagic[4] = {'M', 'P', 'E', '1'};
constexpr std::size_t kHeaderSize = 4 + 4;  // magic + iteration count

std::uint32_t read_u32(const std::uint8_t* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) |
         static_cast<std::uint32_t>(p[3]);
}

void write_u32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

}  // namespace

std::vector<std::uint8_t> aead_seal(std::span<const std::uint8_t> key,
                                    std::string_view plaintext,
                                    std::string_view aad) {
  if (key.size() != kAesKeySize) {
    throw CryptoError("aead_seal: key must be 32 bytes");
  }
  const auto nonce = random_bytes(kGcmNonceSize);

  EvpCipherCtxPtr ctx(check_ptr(EVP_CIPHER_CTX_new(), "EVP_CIPHER_CTX_new"));
  check(EVP_EncryptInit_ex(ctx.get(), EVP_aes_256_gcm(), nullptr, key.data(),
                           nonce.data()),
        "EVP_EncryptInit_ex(gcm)");

  int out_len = 0;
  if (!aad.empty()) {
    check(EVP_EncryptUpdate(ctx.get(), nullptr, &out_len,
                            reinterpret_cast<const unsigned char*>(aad.data()),
                            static_cast<int>(aad.size())),
          "EVP_EncryptUpdate(aad)");
  }

  std::vector<std::uint8_t> out(kGcmNonceSize + kGcmTagSize +
                                plaintext.size());
  std::memcpy(out.data(), nonce.data(), kGcmNonceSize);
  std::uint8_t* cipher_out = out.data() + kGcmNonceSize + kGcmTagSize;

  if (!plaintext.empty()) {
    check(EVP_EncryptUpdate(
              ctx.get(), cipher_out, &out_len,
              reinterpret_cast<const unsigned char*>(plaintext.data()),
              static_cast<int>(plaintext.size())),
          "EVP_EncryptUpdate");
  }
  int final_len = 0;
  check(EVP_EncryptFinal_ex(ctx.get(), cipher_out + out_len, &final_len),
        "EVP_EncryptFinal_ex");
  check(EVP_CIPHER_CTX_ctrl(ctx.get(), EVP_CTRL_GCM_GET_TAG, kGcmTagSize,
                            out.data() + kGcmNonceSize),
        "EVP_CTRL_GCM_GET_TAG");
  return out;
}

SecureBuffer aead_open(std::span<const std::uint8_t> key,
                       std::span<const std::uint8_t> sealed,
                       std::string_view aad) {
  if (key.size() != kAesKeySize) {
    throw CryptoError("aead_open: key must be 32 bytes");
  }
  if (sealed.size() < kGcmNonceSize + kGcmTagSize) {
    throw ParseError("aead_open: sealed blob too short");
  }
  const std::uint8_t* nonce = sealed.data();
  const std::uint8_t* tag = sealed.data() + kGcmNonceSize;
  const std::uint8_t* cipher = sealed.data() + kGcmNonceSize + kGcmTagSize;
  const std::size_t cipher_len = sealed.size() - kGcmNonceSize - kGcmTagSize;

  EvpCipherCtxPtr ctx(check_ptr(EVP_CIPHER_CTX_new(), "EVP_CIPHER_CTX_new"));
  check(EVP_DecryptInit_ex(ctx.get(), EVP_aes_256_gcm(), nullptr, key.data(),
                           nonce),
        "EVP_DecryptInit_ex(gcm)");

  int out_len = 0;
  if (!aad.empty()) {
    check(EVP_DecryptUpdate(ctx.get(), nullptr, &out_len,
                            reinterpret_cast<const unsigned char*>(aad.data()),
                            static_cast<int>(aad.size())),
          "EVP_DecryptUpdate(aad)");
  }

  SecureBuffer plain(cipher_len);
  if (cipher_len != 0) {
    check(EVP_DecryptUpdate(ctx.get(), plain.data(), &out_len, cipher,
                            static_cast<int>(cipher_len)),
          "EVP_DecryptUpdate");
  }
  // Tag check happens in DecryptFinal; failure means wrong key or tampering.
  check(EVP_CIPHER_CTX_ctrl(ctx.get(), EVP_CTRL_GCM_SET_TAG, kGcmTagSize,
                            const_cast<std::uint8_t*>(tag)),
        "EVP_CTRL_GCM_SET_TAG");
  int final_len = 0;
  if (EVP_DecryptFinal_ex(ctx.get(), plain.data() + out_len, &final_len) !=
      1) {
    (void)drain_error_queue();
    throw VerificationError(
        "authenticated decryption failed (wrong pass phrase or corrupted "
        "record)");
  }
  return plain;
}

std::vector<std::uint8_t> passphrase_seal(std::string_view pass_phrase,
                                          std::string_view plaintext,
                                          std::string_view aad,
                                          unsigned iterations) {
  if (!valid_kdf_iterations(iterations)) {
    throw CryptoError(fmt::format(
        "passphrase_seal: iteration count {} outside 1..{}", iterations,
        kMaxKdfIterations));
  }
  const auto salt = random_bytes(kEnvelopeSaltSize);
  const SecureBuffer key = pbkdf2(pass_phrase, salt, iterations, kAesKeySize);
  const auto sealed = aead_seal(key.bytes(), plaintext, aad);

  std::vector<std::uint8_t> out(kHeaderSize + kEnvelopeSaltSize +
                                sealed.size());
  std::memcpy(out.data(), kMagic, sizeof(kMagic));
  write_u32(out.data() + 4, iterations);
  std::memcpy(out.data() + kHeaderSize, salt.data(), kEnvelopeSaltSize);
  std::memcpy(out.data() + kHeaderSize + kEnvelopeSaltSize, sealed.data(),
              sealed.size());
  return out;
}

SecureBuffer passphrase_open(std::string_view pass_phrase,
                             std::span<const std::uint8_t> data,
                             std::string_view aad) {
  if (!is_envelope(data)) {
    throw ParseError("passphrase_open: not a MyProxy envelope");
  }
  if (data.size() < kHeaderSize + kEnvelopeSaltSize + kGcmNonceSize +
                        kGcmTagSize) {
    throw ParseError("passphrase_open: envelope truncated");
  }
  const std::uint32_t iterations = read_u32(data.data() + 4);
  if (!valid_kdf_iterations(iterations)) {
    throw ParseError("passphrase_open: implausible iteration count");
  }
  const std::span<const std::uint8_t> salt =
      data.subspan(kHeaderSize, kEnvelopeSaltSize);
  const std::span<const std::uint8_t> sealed =
      data.subspan(kHeaderSize + kEnvelopeSaltSize);
  const SecureBuffer key = pbkdf2(pass_phrase, salt, iterations, kAesKeySize);
  return aead_open(key.bytes(), sealed, aad);
}

bool is_envelope(std::span<const std::uint8_t> data) noexcept {
  return data.size() >= sizeof(kMagic) &&
         std::memcmp(data.data(), kMagic, sizeof(kMagic)) == 0;
}

}  // namespace myproxy::crypto
