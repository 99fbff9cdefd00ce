#include "crypto/key_pair.hpp"

#include <openssl/decoder.h>
#include <openssl/ec.h>
#include <openssl/evp.h>
#include <openssl/pem.h>
#include <openssl/pkcs12.h>
#include <openssl/rsa.h>
#include <openssl/x509.h>

#include <algorithm>
#include <cstring>
#include <utility>

#include "crypto/openssl_util.hpp"

namespace myproxy::crypto {

namespace {

EVP_PKEY* require(const std::shared_ptr<EVP_PKEY>& pkey) {
  if (pkey == nullptr) throw CryptoError("operation on empty KeyPair");
  return pkey.get();
}

std::shared_ptr<EVP_PKEY> wrap(EVP_PKEY* pkey) {
  return std::shared_ptr<EVP_PKEY>(pkey,
                                   [](EVP_PKEY* p) { EVP_PKEY_free(p); });
}

// OpenSSL's pem_password_cb; `u` carries the pass phrase string_view.
int pass_phrase_cb(char* buf, int size, int /*rwflag*/, void* u) {
  const auto* pass = static_cast<const std::string_view*>(u);
  if (pass == nullptr || pass->empty()) return -1;
  const int n = std::min(size, static_cast<int>(pass->size()));
  std::memcpy(buf, pass->data(), static_cast<std::size_t>(n));
  return n;
}

struct X509SigDeleter {
  void operator()(X509_SIG* p) const noexcept { X509_SIG_free(p); }
};
struct Pkcs8Deleter {
  void operator()(PKCS8_PRIV_KEY_INFO* p) const noexcept {
    PKCS8_PRIV_KEY_INFO_free(p);
  }
};
using X509SigPtr = std::unique_ptr<X509_SIG, X509SigDeleter>;
using Pkcs8Ptr = std::unique_ptr<PKCS8_PRIV_KEY_INFO, Pkcs8Deleter>;

/// "PRIVATE KEY", "ENCRYPTED PRIVATE KEY" and the traditional
/// "<TYPE> PRIVATE KEY" names; never "ANY PRIVATE KEY" or a certificate.
bool is_private_key_block(const char* name) {
  constexpr std::string_view kSuffix = "PRIVATE KEY";
  const std::string_view n(name);
  return n.ends_with(kSuffix) && n != "ANY PRIVATE KEY";
}

/// A calling thread's key decoder for one input structure. OpenSSL 3 builds
/// a decoder context by searching every provider under a process-wide lock
/// (~1 ms); decoding with a built one costs tens of microseconds. The
/// context writes its result into `pkey_`, which decode() takes and nulls,
/// so no key outlives the call that decoded it.
class KeyDecoder {
 public:
  /// `structure` is OpenSSL's input structure name (nullptr: any).
  KeyDecoder(const char* structure, int selection)
      : structure_(structure), selection_(selection) {}
  KeyDecoder(const KeyDecoder&) = delete;
  KeyDecoder& operator=(const KeyDecoder&) = delete;
  ~KeyDecoder() { reset(); }

  /// Decode one DER key; throws CryptoError naming `what` on failure.
  EVP_PKEY* decode(const unsigned char* der, std::size_t len,
                   std::string_view what) {
    if (ctx_ == nullptr) {
      ctx_ = OSSL_DECODER_CTX_new_for_pkey(&pkey_, "DER", structure_,
                                           nullptr, selection_, nullptr,
                                           nullptr);
      check_ptr(ctx_, "OSSL_DECODER_CTX_new_for_pkey");
    }
    const unsigned char* p = der;
    std::size_t remaining = len;
    const int ok = OSSL_DECODER_from_data(ctx_, &p, &remaining);
    EVP_PKEY* pkey = std::exchange(pkey_, nullptr);
    if (ok != 1 || pkey == nullptr) {
      EVP_PKEY_free(pkey);
      // A failed decode may leave the context mid-chain; start clean.
      reset();
      throw_openssl(what);
    }
    return pkey;
  }

 private:
  void reset() noexcept {
    OSSL_DECODER_CTX_free(ctx_);
    ctx_ = nullptr;
    EVP_PKEY_free(pkey_);
    pkey_ = nullptr;
  }

  const char* structure_;
  int selection_;
  OSSL_DECODER_CTX* ctx_ = nullptr;
  EVP_PKEY* pkey_ = nullptr;
};

/// Unencrypted private keys: PKCS#8 or traditional, any key type.
thread_local KeyDecoder t_private_decoder(nullptr, EVP_PKEY_KEYPAIR);
/// Public keys as certificates and requests carry them.
thread_local KeyDecoder t_public_decoder("SubjectPublicKeyInfo",
                                         EVP_PKEY_PUBLIC_KEY);

}  // namespace

void KeyPair::PkeyDeleter::operator()(EVP_PKEY* p) const noexcept {
  EVP_PKEY_free(p);
}

KeyPair KeyPair::generate(const KeySpec& spec) {
  EVP_PKEY* raw = nullptr;
  if (spec.type == KeyType::kRsa) {
    if (spec.rsa_bits < 512 || spec.rsa_bits > 16384) {
      throw CryptoError("RSA key size out of range");
    }
    EvpPkeyCtxPtr ctx(check_ptr(EVP_PKEY_CTX_new_id(EVP_PKEY_RSA, nullptr),
                                "EVP_PKEY_CTX_new_id(RSA)"));
    check(EVP_PKEY_keygen_init(ctx.get()), "EVP_PKEY_keygen_init");
    check(EVP_PKEY_CTX_set_rsa_keygen_bits(ctx.get(),
                                           static_cast<int>(spec.rsa_bits)),
          "set_rsa_keygen_bits");
    check(EVP_PKEY_keygen(ctx.get(), &raw), "EVP_PKEY_keygen(RSA)");
  } else {
    EvpPkeyCtxPtr ctx(check_ptr(EVP_PKEY_CTX_new_id(EVP_PKEY_EC, nullptr),
                                "EVP_PKEY_CTX_new_id(EC)"));
    check(EVP_PKEY_keygen_init(ctx.get()), "EVP_PKEY_keygen_init");
    check(EVP_PKEY_CTX_set_ec_paramgen_curve_nid(ctx.get(),
                                                 NID_X9_62_prime256v1),
          "set_ec_paramgen_curve_nid");
    check(EVP_PKEY_keygen(ctx.get(), &raw), "EVP_PKEY_keygen(EC)");
  }
  KeyPair out;
  out.pkey_ = wrap(raw);
  out.has_private_ = true;
  return out;
}

KeyPair KeyPair::from_private_pem(std::string_view pem,
                                  std::string_view pass_phrase) {
  BioPtr bio = memory_bio(pem);
  PemBlock block;
  // Skip certificate blocks: a credential file holds its key between them.
  while (true) {
    if (!block.read(bio.get())) {
      throw_openssl("no private key block in PEM input");
    }
    if (is_private_key_block(block.name)) break;
    block.clear();
  }

  EVP_CIPHER_INFO cipher{};
  check(PEM_get_EVP_CIPHER_INFO(block.header, &cipher),
        "PEM_get_EVP_CIPHER_INFO");
  // A legacy Proc-Type block is decrypted in place; others pass through.
  check(PEM_do_header(&cipher, block.der, &block.len, pass_phrase_cb,
                      const_cast<void*>(
                          static_cast<const void*>(&pass_phrase))),
        "PEM_do_header");

  if (std::strcmp(block.name, PEM_STRING_PKCS8) == 0) {
    if (pass_phrase.empty()) {
      throw CryptoError("encrypted private key requires a pass phrase");
    }
    const unsigned char* p = block.der;
    X509SigPtr sealed(
        check_ptr(d2i_X509_SIG(nullptr, &p, block.len), "d2i_X509_SIG"));
    Pkcs8Ptr info(check_ptr(
        PKCS8_decrypt(sealed.get(), pass_phrase.data(),
                      static_cast<int>(pass_phrase.size())),
        "PKCS8_decrypt"));
    unsigned char* plain = nullptr;
    const int plain_len = i2d_PKCS8_PRIV_KEY_INFO(info.get(), &plain);
    if (plain_len <= 0) throw_openssl("i2d_PKCS8_PRIV_KEY_INFO");
    block.replace_der(plain, plain_len);
  }

  KeyPair out;
  out.pkey_ = wrap(t_private_decoder.decode(
      block.der, static_cast<std::size_t>(block.len), "private key decode"));
  out.has_private_ = true;
  return out;
}

KeyPair KeyPair::from_public_pem(std::string_view pem) {
  BioPtr bio = memory_bio(pem);
  PemBlock block;
  while (true) {
    if (!block.read(bio.get())) {
      throw_openssl("no public key block in PEM input");
    }
    if (std::strcmp(block.name, PEM_STRING_PUBLIC) == 0) break;
    block.clear();
  }
  return from_public_der(block.der_view());
}

KeyPair KeyPair::from_public_der(std::string_view spki) {
  KeyPair out;
  out.pkey_ = wrap(t_public_decoder.decode(
      reinterpret_cast<const unsigned char*>(spki.data()), spki.size(),
      "public key decode"));
  out.has_private_ = false;
  return out;
}

SecureBuffer KeyPair::private_pem() const {
  if (!has_private_) throw CryptoError("KeyPair holds no private key");
  BioPtr bio = memory_bio();
  check(PEM_write_bio_PKCS8PrivateKey(bio.get(), require(pkey_), nullptr,
                                      nullptr, 0, nullptr, nullptr),
        "PEM_write_bio_PKCS8PrivateKey");
  const std::string pem = bio_to_string(bio.get());
  return SecureBuffer(std::string_view(pem));
}

std::string KeyPair::private_pem_encrypted(std::string_view pass_phrase) const {
  if (!has_private_) throw CryptoError("KeyPair holds no private key");
  if (pass_phrase.empty()) {
    throw CryptoError("refusing to encrypt a key with an empty pass phrase");
  }
  BioPtr bio = memory_bio();
  check(PEM_write_bio_PKCS8PrivateKey(
            bio.get(), require(pkey_), EVP_aes_256_cbc(),
            pass_phrase.data(), static_cast<int>(pass_phrase.size()), nullptr,
            nullptr),
        "PEM_write_bio_PKCS8PrivateKey(encrypted)");
  return bio_to_string(bio.get());
}

std::string KeyPair::public_pem() const {
  BioPtr bio = memory_bio();
  check(PEM_write_bio_PUBKEY(bio.get(), require(pkey_)),
        "PEM_write_bio_PUBKEY");
  return bio_to_string(bio.get());
}

KeyType KeyPair::type() const {
  const int id = EVP_PKEY_base_id(require(pkey_));
  if (id == EVP_PKEY_RSA) return KeyType::kRsa;
  if (id == EVP_PKEY_EC) return KeyType::kEc;
  throw CryptoError("unsupported key type");
}

unsigned KeyPair::bits() const {
  return static_cast<unsigned>(EVP_PKEY_bits(require(pkey_)));
}

bool KeyPair::same_public_key(const KeyPair& other) const {
  if (pkey_ == nullptr || other.pkey_ == nullptr) return false;
#if OPENSSL_VERSION_NUMBER >= 0x30000000L
  return EVP_PKEY_eq(pkey_.get(), other.pkey_.get()) == 1;
#else
  return EVP_PKEY_cmp(pkey_.get(), other.pkey_.get()) == 1;
#endif
}

KeyPair KeyPair::adopt(EVP_PKEY* pkey, bool has_private) {
  KeyPair out;
  out.pkey_ = wrap(check_ptr(pkey, "KeyPair::adopt(null)"));
  out.has_private_ = has_private;
  return out;
}

std::vector<std::uint8_t> sign(const KeyPair& key, std::string_view data) {
  if (!key.has_private()) throw CryptoError("sign: no private key");
  EvpMdCtxPtr ctx(check_ptr(EVP_MD_CTX_new(), "EVP_MD_CTX_new"));
  check(EVP_DigestSignInit(ctx.get(), nullptr, EVP_sha256(), nullptr,
                           key.native()),
        "EVP_DigestSignInit");
  std::size_t sig_len = 0;
  check(EVP_DigestSign(ctx.get(), nullptr, &sig_len,
                       reinterpret_cast<const unsigned char*>(data.data()),
                       data.size()),
        "EVP_DigestSign(size)");
  std::vector<std::uint8_t> sig(sig_len);
  check(EVP_DigestSign(ctx.get(), sig.data(), &sig_len,
                       reinterpret_cast<const unsigned char*>(data.data()),
                       data.size()),
        "EVP_DigestSign");
  sig.resize(sig_len);
  return sig;
}

bool verify(const KeyPair& key, std::string_view data,
            std::span<const std::uint8_t> signature) {
  if (!key.valid()) throw CryptoError("verify: empty key");
  EvpMdCtxPtr ctx(check_ptr(EVP_MD_CTX_new(), "EVP_MD_CTX_new"));
  check(EVP_DigestVerifyInit(ctx.get(), nullptr, EVP_sha256(), nullptr,
                             key.native()),
        "EVP_DigestVerifyInit");
  const int rc = EVP_DigestVerify(
      ctx.get(), signature.data(), signature.size(),
      reinterpret_cast<const unsigned char*>(data.data()), data.size());
  if (rc == 1) return true;
  // rc == 0 means signature mismatch; anything else is an operational error.
  (void)drain_error_queue();
  if (rc == 0 || rc == -1) return false;
  throw CryptoError("EVP_DigestVerify failed");
}

}  // namespace myproxy::crypto
