#include "crypto/symmetric.hpp"

#include <gtest/gtest.h>
#include <openssl/evp.h>

#include <string>

#include "common/encoding.hpp"
#include "common/error.hpp"
#include "crypto/kdf.hpp"
#include "crypto/random.hpp"

namespace myproxy::crypto {
namespace {

TEST(Aead, SealOpenRoundTrip) {
  const auto key = random_bytes(kAesKeySize);
  const auto sealed = aead_seal(key, "plaintext payload", "user:alice");
  const SecureBuffer opened = aead_open(key, sealed, "user:alice");
  EXPECT_EQ(opened.view(), "plaintext payload");
}

TEST(Aead, EmptyPlaintext) {
  const auto key = random_bytes(kAesKeySize);
  const auto sealed = aead_seal(key, "", "aad");
  EXPECT_EQ(aead_open(key, sealed, "aad").size(), 0u);
}

TEST(Aead, WrongKeyRejected) {
  const auto key = random_bytes(kAesKeySize);
  const auto other = random_bytes(kAesKeySize);
  const auto sealed = aead_seal(key, "payload", "");
  EXPECT_THROW((void)aead_open(other, sealed, ""), VerificationError);
}

TEST(Aead, WrongAadRejected) {
  // The AAD binds a stored credential to its owner; a record copied between
  // users must fail to open (paper §5.1 at-rest protection).
  const auto key = random_bytes(kAesKeySize);
  const auto sealed = aead_seal(key, "payload", "user:alice");
  EXPECT_THROW((void)aead_open(key, sealed, "user:mallory"),
               VerificationError);
}

TEST(Aead, TamperedCiphertextRejected) {
  const auto key = random_bytes(kAesKeySize);
  auto sealed = aead_seal(key, "payload", "");
  sealed.back() ^= 0x01;
  EXPECT_THROW((void)aead_open(key, sealed, ""), VerificationError);
}

TEST(Aead, TamperedTagRejected) {
  const auto key = random_bytes(kAesKeySize);
  auto sealed = aead_seal(key, "payload", "");
  sealed[kGcmNonceSize] ^= 0x01;  // first tag byte
  EXPECT_THROW((void)aead_open(key, sealed, ""), VerificationError);
}

TEST(Aead, TruncatedBlobRejected) {
  const auto key = random_bytes(kAesKeySize);
  EXPECT_THROW((void)aead_open(key, std::vector<std::uint8_t>(5), ""),
               ParseError);
}

TEST(Aead, NonceIsFreshPerSeal) {
  const auto key = random_bytes(kAesKeySize);
  const auto a = aead_seal(key, "same", "");
  const auto b = aead_seal(key, "same", "");
  EXPECT_NE(a, b);  // distinct nonce -> distinct ciphertext
}

TEST(Pbkdf2, DeterministicForSameInputs) {
  const auto salt = random_bytes(kEnvelopeSaltSize);
  const auto k1 = pbkdf2("phrase", salt, 1000, kAesKeySize);
  const auto k2 = pbkdf2("phrase", salt, 1000, kAesKeySize);
  EXPECT_EQ(k1, k2);
}

TEST(Pbkdf2, SaltAndIterationsChangeKey) {
  const auto salt1 = random_bytes(kEnvelopeSaltSize);
  const auto salt2 = random_bytes(kEnvelopeSaltSize);
  EXPECT_FALSE(pbkdf2("phrase", salt1, 1000, kAesKeySize) ==
               pbkdf2("phrase", salt2, 1000, kAesKeySize));
  EXPECT_FALSE(pbkdf2("phrase", salt1, 1000, kAesKeySize) ==
               pbkdf2("phrase", salt1, 1001, kAesKeySize));
}

TEST(Pbkdf2, RejectsDegenerateParameters) {
  const auto salt = random_bytes(kEnvelopeSaltSize);
  EXPECT_THROW((void)pbkdf2("p", salt, 0, 32), CryptoError);
  EXPECT_THROW((void)pbkdf2("p", salt, 100, 0), CryptoError);
}

/// The PBKDF2 of OpenSSL's provider layer: the oracle the KDF must match.
std::vector<std::uint8_t> openssl_pbkdf2(std::string_view phrase,
                                         std::span<const std::uint8_t> salt,
                                         unsigned iterations,
                                         std::size_t key_len) {
  std::vector<std::uint8_t> key(key_len);
  EXPECT_EQ(PKCS5_PBKDF2_HMAC(phrase.data(), static_cast<int>(phrase.size()),
                              salt.data(), static_cast<int>(salt.size()),
                              static_cast<int>(iterations), EVP_sha256(),
                              static_cast<int>(key_len), key.data()),
            1);
  return key;
}

std::string hex(const SecureBuffer& key) {
  return encoding::hex_encode(key.bytes());
}

std::span<const std::uint8_t> bytes_of(std::string_view text) {
  return {reinterpret_cast<const std::uint8_t*>(text.data()), text.size()};
}

TEST(Pbkdf2, MatchesRfc7914KnownAnswers) {
  // RFC 7914 §11, PBKDF2-HMAC-SHA256 test vectors.
  EXPECT_EQ(hex(pbkdf2("passwd", bytes_of("salt"), 1, 64)),
            "55ac046e56e3089fec1691c22544b605f94185216dde0465e68b9d57c20dacbc"
            "49ca9cccf179b645991664b39d77ef317c71b845b1e30bd509112041d3a19783");
  EXPECT_EQ(hex(pbkdf2("Password", bytes_of("NaCl"), 80000, 64)),
            "4ddcd8f60b98be21830cee5ef22701f9641a4418d04c0414aeff08876b34ab56"
            "a1d425a1225833549adb841b51c9b3176a272bdebba1d078478f62b397f33c8d");
}

TEST(Pbkdf2, MatchesOpenSslByteForByte) {
  // Pass phrases straddle the 64-byte HMAC block (longer keys are hashed
  // first); salts straddle SHA-256's 55/56-byte padding split and one
  // block; key lengths of 33 and 97 need a partial second/fourth block.
  std::string long_phrase;
  for (int i = 0; i < 200; ++i) {
    long_phrase.push_back(static_cast<char>(0x20 + (i * 7) % 0xdf));
  }
  std::vector<std::uint8_t> long_salt(100);
  for (std::size_t i = 0; i < long_salt.size(); ++i) {
    long_salt[i] = static_cast<std::uint8_t>(i * 31 + 7);
  }
  int compared = 0;
  for (const std::size_t phrase_len : {0, 1, 63, 64, 65, 200}) {
    const std::string_view phrase(long_phrase.data(), phrase_len);
    for (const std::size_t salt_len : {0, 1, 16, 55, 56, 63, 64, 65, 100}) {
      const std::span<const std::uint8_t> salt(long_salt.data(), salt_len);
      for (const unsigned iterations : {1u, 2u, 3u, 1000u}) {
        for (const std::size_t key_len : {1, 32, 33, 64, 97}) {
          const auto ours = pbkdf2(phrase, salt, iterations, key_len);
          ASSERT_EQ(hex(ours),
                    encoding::hex_encode(
                        openssl_pbkdf2(phrase, salt, iterations, key_len)))
              << "phrase " << phrase_len << "B, salt " << salt_len << "B, "
              << iterations << " iterations, " << key_len << "B key";
          ++compared;
        }
      }
    }
  }
  EXPECT_EQ(compared, 6 * 9 * 4 * 5);
}

TEST(Pbkdf2, IterationBoundIsOneThroughOneHundredMillion) {
  EXPECT_FALSE(valid_kdf_iterations(0));
  EXPECT_FALSE(valid_kdf_iterations(-1));
  EXPECT_TRUE(valid_kdf_iterations(1));
  EXPECT_TRUE(valid_kdf_iterations(kMaxKdfIterations));
  EXPECT_FALSE(valid_kdf_iterations(std::int64_t{kMaxKdfIterations} + 1));
  EXPECT_EQ(kMaxKdfIterations, 100'000'000u);
}

TEST(Envelope, SealRefusesCountsOpenWouldRefuse) {
  // A record sealed outside the bound could never be opened again.
  EXPECT_THROW((void)passphrase_seal("p", "data", "", 0), CryptoError);
  EXPECT_THROW((void)passphrase_seal("p", "data", "", kMaxKdfIterations + 1),
               CryptoError);
  // -1 as it arrives after an unchecked narrowing to unsigned.
  EXPECT_THROW((void)passphrase_seal("p", "data", "", static_cast<unsigned>(-1)),
               CryptoError);
}

TEST(Envelope, OpenRefusesCountsOutsideTheBound) {
  auto sealed = passphrase_seal("p", "data", "", 1);
  for (const std::uint32_t count : {0u, kMaxKdfIterations + 1, 0xffffffffu}) {
    sealed[4] = static_cast<std::uint8_t>(count >> 24);
    sealed[5] = static_cast<std::uint8_t>(count >> 16);
    sealed[6] = static_cast<std::uint8_t>(count >> 8);
    sealed[7] = static_cast<std::uint8_t>(count);
    EXPECT_THROW((void)passphrase_open("p", sealed, ""), ParseError) << count;
  }
}

TEST(Envelope, OpensEnvelopeSealedWithOpenSslPbkdf2) {
  // Records already on disk were sealed with PKCS5_PBKDF2_HMAC. Build one
  // by hand in the MPE1 layout (magic | iterations BE | salt | AES-GCM) and
  // check that it still opens.
  const unsigned iterations = 10'000;
  const auto salt = random_bytes(kEnvelopeSaltSize);
  const auto key = openssl_pbkdf2("stored phrase", salt, iterations,
                                  kAesKeySize);
  const auto body = aead_seal(key, "-----BEGIN OLD-----", "myproxy:alice:");
  std::vector<std::uint8_t> envelope = {'M', 'P', 'E', '1',
                                        0x00, 0x00, 0x27, 0x10};
  envelope.insert(envelope.end(), salt.begin(), salt.end());
  envelope.insert(envelope.end(), body.begin(), body.end());

  EXPECT_EQ(passphrase_open("stored phrase", envelope, "myproxy:alice:").view(),
            "-----BEGIN OLD-----");
  EXPECT_THROW((void)passphrase_open("other phrase", envelope,
                                     "myproxy:alice:"),
               VerificationError);
}

TEST(Envelope, RoundTrip) {
  const auto sealed =
      passphrase_seal("correct horse", "-----BEGIN...-----", "alice", 1000);
  EXPECT_TRUE(is_envelope(sealed));
  const SecureBuffer opened = passphrase_open("correct horse", sealed, "alice");
  EXPECT_EQ(opened.view(), "-----BEGIN...-----");
}

TEST(Envelope, WrongPassphraseRejected) {
  const auto sealed = passphrase_seal("right", "data", "alice", 1000);
  EXPECT_THROW((void)passphrase_open("wrong", sealed, "alice"),
               VerificationError);
}

TEST(Envelope, WrongUserAadRejected) {
  const auto sealed = passphrase_seal("phrase", "data", "alice", 1000);
  EXPECT_THROW((void)passphrase_open("phrase", sealed, "bob"),
               VerificationError);
}

TEST(Envelope, MalformedInputsRejected) {
  std::vector<std::uint8_t> junk{'n', 'o', 'p', 'e'};
  EXPECT_THROW((void)passphrase_open("p", junk, ""), ParseError);
  auto sealed = passphrase_seal("p", "data", "", 1000);
  sealed.resize(10);  // truncate below header size
  EXPECT_THROW((void)passphrase_open("p", sealed, ""), ParseError);
}

TEST(Envelope, IterationCountPreserved) {
  // Opening must honor the iteration count recorded in the envelope, so a
  // server can raise the default without breaking old records.
  const auto sealed = passphrase_seal("p", "data", "", 12345);
  EXPECT_EQ(passphrase_open("p", sealed, "").view(), "data");
}

}  // namespace
}  // namespace myproxy::crypto
