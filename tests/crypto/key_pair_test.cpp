#include "crypto/key_pair.hpp"

#include <gtest/gtest.h>
#include <openssl/err.h>
#include <openssl/evp.h>
#include <openssl/pem.h>

#include <memory>

#include "common/error.hpp"
#include "common/mutation.hpp"
#include "crypto/random.hpp"

namespace myproxy::crypto {
namespace {

// Key generation is slow (RSA); share one pair across tests in this suite.
const KeyPair& test_rsa_key() {
  static const KeyPair key = KeyPair::generate(KeySpec::rsa(1024));
  return key;
}

const KeyPair& test_ec_key() {
  static const KeyPair key = KeyPair::generate(KeySpec::ec());
  return key;
}

TEST(KeyPair, GenerateRsa) {
  const KeyPair& key = test_rsa_key();
  EXPECT_TRUE(key.valid());
  EXPECT_TRUE(key.has_private());
  EXPECT_EQ(key.type(), KeyType::kRsa);
  EXPECT_EQ(key.bits(), 1024u);
}

TEST(KeyPair, GenerateEc) {
  const KeyPair& key = test_ec_key();
  EXPECT_TRUE(key.valid());
  EXPECT_EQ(key.type(), KeyType::kEc);
  EXPECT_EQ(key.bits(), 256u);
}

TEST(KeyPair, RejectsAbsurdRsaSizes) {
  EXPECT_THROW((void)KeyPair::generate(KeySpec::rsa(128)), CryptoError);
  EXPECT_THROW((void)KeyPair::generate(KeySpec::rsa(1 << 20)), CryptoError);
}

TEST(KeyPair, PrivatePemRoundTrip) {
  const KeyPair& key = test_rsa_key();
  const SecureBuffer pem = key.private_pem();
  EXPECT_NE(pem.view().find("BEGIN PRIVATE KEY"), std::string_view::npos);
  const KeyPair restored = KeyPair::from_private_pem(pem.view());
  EXPECT_TRUE(restored.same_public_key(key));
  EXPECT_TRUE(restored.has_private());
}

TEST(KeyPair, EncryptedPrivatePemRoundTrip) {
  const KeyPair& key = test_ec_key();
  const std::string pem = key.private_pem_encrypted("pass phrase");
  EXPECT_NE(pem.find("BEGIN ENCRYPTED PRIVATE KEY"), std::string::npos);
  const KeyPair restored = KeyPair::from_private_pem(pem, "pass phrase");
  EXPECT_TRUE(restored.same_public_key(key));
}

TEST(KeyPair, EncryptedPemWrongPassphraseFails) {
  const std::string pem = test_ec_key().private_pem_encrypted("right");
  EXPECT_THROW((void)KeyPair::from_private_pem(pem, "wrong"), CryptoError);
}

TEST(KeyPair, RefusesEmptyEncryptionPassphrase) {
  EXPECT_THROW((void)test_ec_key().private_pem_encrypted(""), CryptoError);
}

TEST(KeyPair, PublicPemRoundTrip) {
  const KeyPair& key = test_rsa_key();
  const KeyPair pub = KeyPair::from_public_pem(key.public_pem());
  EXPECT_TRUE(pub.valid());
  EXPECT_FALSE(pub.has_private());
  EXPECT_TRUE(pub.same_public_key(key));
  EXPECT_THROW((void)pub.private_pem(), CryptoError);
}

TEST(KeyPair, FromGarbagePemFails) {
  EXPECT_THROW((void)KeyPair::from_private_pem("not a pem"), CryptoError);
  EXPECT_THROW((void)KeyPair::from_public_pem("not a pem"), CryptoError);
}

TEST(KeyPair, DistinctKeysDiffer) {
  const KeyPair other = KeyPair::generate(KeySpec::ec());
  EXPECT_FALSE(other.same_public_key(test_ec_key()));
}

TEST(SignVerify, RsaRoundTrip) {
  const KeyPair& key = test_rsa_key();
  const auto sig = sign(key, "message");
  EXPECT_TRUE(verify(key, "message", sig));
  EXPECT_FALSE(verify(key, "Message", sig));
}

TEST(SignVerify, EcRoundTrip) {
  const KeyPair& key = test_ec_key();
  const auto sig = sign(key, "message");
  EXPECT_TRUE(verify(key, "message", sig));
}

TEST(SignVerify, VerifyWithPublicHalfOnly) {
  const KeyPair& key = test_rsa_key();
  const auto sig = sign(key, "payload");
  const KeyPair pub = KeyPair::from_public_pem(key.public_pem());
  EXPECT_TRUE(verify(pub, "payload", sig));
}

TEST(SignVerify, WrongKeyRejected) {
  const auto sig = sign(test_rsa_key(), "payload");
  const KeyPair other = KeyPair::generate(KeySpec::rsa(1024));
  EXPECT_FALSE(verify(other, "payload", sig));
}

TEST(SignVerify, CorruptedSignatureRejected) {
  auto sig = sign(test_rsa_key(), "payload");
  sig[sig.size() / 2] ^= 0x01;
  EXPECT_FALSE(verify(test_rsa_key(), "payload", sig));
}

TEST(SignVerify, SigningWithoutPrivateKeyThrows) {
  const KeyPair pub = KeyPair::from_public_pem(test_rsa_key().public_pem());
  EXPECT_THROW((void)sign(pub, "payload"), CryptoError);
}

TEST(KeyPair, EmptyKeyOperationsThrow) {
  const KeyPair empty;
  EXPECT_FALSE(empty.valid());
  EXPECT_THROW((void)empty.public_pem(), CryptoError);
  EXPECT_THROW((void)empty.bits(), CryptoError);
}

// --- Import differential ----------------------------------------------------
// KeyPair::from_private_pem decodes with a per-thread decoder; OpenSSL's
// generic PEM_read_bio_PrivateKey is the reference it must agree with.

using PkeyPtr = std::unique_ptr<EVP_PKEY, decltype(&EVP_PKEY_free)>;

std::string bio_string(BIO* bio) {
  char* data = nullptr;
  const long size = BIO_get_mem_data(bio, &data);  // NOLINT(google-runtime-int)
  return {data, static_cast<std::size_t>(size)};
}

/// Traditional ("EC PRIVATE KEY" / "RSA PRIVATE KEY") PEM, optionally with
/// a legacy Proc-Type/DEK-Info encryption header.
std::string traditional_pem(const KeyPair& key, std::string_view pass = {}) {
  std::unique_ptr<BIO, decltype(&BIO_free)> bio(BIO_new(BIO_s_mem()),
                                                &BIO_free);
  auto* pass_bytes = reinterpret_cast<unsigned char*>(
      const_cast<char*>(pass.data()));
  EXPECT_EQ(PEM_write_bio_PrivateKey_traditional(
                bio.get(), key.native(),
                pass.empty() ? nullptr : EVP_aes_128_cbc(), pass_bytes,
                static_cast<int>(pass.size()), nullptr, nullptr),
            1);
  return bio_string(bio.get());
}

PkeyPtr reference_import(std::string_view pem, std::string_view pass = {}) {
  std::unique_ptr<BIO, decltype(&BIO_free)> bio(
      BIO_new_mem_buf(pem.data(), static_cast<int>(pem.size())), &BIO_free);
  std::string phrase(pass);
  PkeyPtr key(PEM_read_bio_PrivateKey(bio.get(), nullptr, nullptr,
                                      phrase.empty() ? nullptr : phrase.data()),
              &EVP_PKEY_free);
  ERR_clear_error();
  return key;
}

struct ImportCase {
  const char* name;
  std::string pem;
  std::string pass;
  const char* marker;
};

std::vector<ImportCase> import_cases(const KeyPair& key) {
  return {
      {"pkcs8", key.private_pem().str(), "", "BEGIN PRIVATE KEY"},
      {"traditional", traditional_pem(key), "", " PRIVATE KEY"},
      {"encrypted pkcs8", key.private_pem_encrypted("import phrase"),
       "import phrase", "BEGIN ENCRYPTED PRIVATE KEY"},
      {"legacy encrypted", traditional_pem(key, "legacy phrase"),
       "legacy phrase", "Proc-Type: 4,ENCRYPTED"},
  };
}

void expect_matches_reference(const KeyPair& key) {
  for (const auto& c : import_cases(key)) {
    SCOPED_TRACE(c.name);
    EXPECT_NE(c.pem.find(c.marker), std::string::npos);
    const KeyPair imported = KeyPair::from_private_pem(c.pem, c.pass);
    EXPECT_EQ(ERR_peek_error(), 0UL) << "import left errors queued";
    const PkeyPtr reference = reference_import(c.pem, c.pass);
    ASSERT_NE(reference, nullptr);
    EXPECT_TRUE(imported.has_private());
    EXPECT_EQ(EVP_PKEY_eq(imported.native(), reference.get()), 1);
    EXPECT_EQ(EVP_PKEY_eq(imported.native(), key.native()), 1);
    const auto sig = sign(imported, "differential");
    EXPECT_TRUE(verify(key, "differential", sig));
  }
}

TEST(KeyPairImport, EcMatchesReferenceInEveryForm) {
  expect_matches_reference(test_ec_key());
}

TEST(KeyPairImport, RsaMatchesReferenceInEveryForm) {
  expect_matches_reference(test_rsa_key());
}

TEST(KeyPairImport, WrongPassPhraseThrowsCryptoError) {
  for (const KeyPair* key : {&test_ec_key(), &test_rsa_key()}) {
    for (const auto& c : import_cases(*key)) {
      if (c.pass.empty()) continue;
      SCOPED_TRACE(c.name);
      EXPECT_THROW((void)KeyPair::from_private_pem(c.pem, "not the phrase"),
                   CryptoError);
      EXPECT_THROW((void)KeyPair::from_private_pem(c.pem), CryptoError);
    }
  }
}

TEST(KeyPairImport, FindsKeyBlockAfterOtherBlocks) {
  // A credential file puts its key between certificate blocks; blocks of
  // other types and stray text before the key are skipped.
  const std::string pem = "note: not a PEM line\n" +
                          mutation::pem_wrap("CERTIFICATE", {0x30, 0x00}) +
                          test_ec_key().private_pem().str() +
                          mutation::pem_wrap("CERTIFICATE", {0x30, 0x00});
  EXPECT_TRUE(KeyPair::from_private_pem(pem).same_public_key(test_ec_key()));
  EXPECT_THROW((void)KeyPair::from_private_pem(
                   mutation::pem_wrap("CERTIFICATE", {0x30, 0x00})),
               CryptoError);
}

TEST(KeyPairImport, EmptyBlockAndPublicKeyBlockRejected) {
  EXPECT_THROW(
      (void)KeyPair::from_private_pem(mutation::pem_wrap("PRIVATE KEY", {})),
      CryptoError);
  // A public key is not a key pair, whatever its label claims.
  const auto pub = mutation::pem_body(test_ec_key().public_pem());
  EXPECT_THROW(
      (void)KeyPair::from_private_pem(mutation::pem_wrap("PRIVATE KEY", pub)),
      CryptoError);
}

// --- Hostile input ------------------------------------------------------------

TEST(KeyPairImport, MutatedPkcs8EitherRoundTripsOrThrowsTypedError) {
  const auto ec_der = mutation::pem_body(test_ec_key().private_pem().view());
  const auto rsa_der =
      mutation::pem_body(test_rsa_key().private_pem().view());
  int decoded = 0;
  int refused = 0;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    const bool ec = (i % 2) == 0;
    const auto& input = ec ? ec_der : rsa_der;
    const auto& donor = ec ? rsa_der : ec_der;
    const std::string pem =
        mutation::pem_wrap("PRIVATE KEY", mutation::mutate(input, donor, i));
    try {
      const KeyPair key = KeyPair::from_private_pem(pem);
      ASSERT_TRUE(key.has_private()) << "case " << i;
      // Whatever decoded must survive its own export and import.
      const KeyPair again = KeyPair::from_private_pem(key.private_pem().view());
      EXPECT_TRUE(again.same_public_key(key)) << "case " << i;
      ++decoded;
    } catch (const Error&) {
      ++refused;
    }
    // The thread's decoder must be intact after every case.
    const KeyPair& reference = ec ? test_ec_key() : test_rsa_key();
    const auto good = ec ? test_ec_key().private_pem() :
                           test_rsa_key().private_pem();
    ASSERT_TRUE(KeyPair::from_private_pem(good.view())
                    .same_public_key(reference))
        << "valid import failed after case " << i;
  }
  EXPECT_EQ(decoded + refused, 1000);
  EXPECT_GT(refused, 500);
}

}  // namespace
}  // namespace myproxy::crypto
