// Shared OpenSSL plumbing: RAII deleters for libcrypto types and helpers to
// turn the OpenSSL error queue into exceptions. Nothing outside src/crypto,
// src/pki and src/tls should need to include OpenSSL headers directly.
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include <openssl/bio.h>
#include <openssl/evp.h>
#include <openssl/x509.h>

#include "common/error.hpp"

namespace myproxy::crypto {

struct EvpPkeyDeleter {
  void operator()(EVP_PKEY* p) const noexcept { EVP_PKEY_free(p); }
};
struct EvpPkeyCtxDeleter {
  void operator()(EVP_PKEY_CTX* p) const noexcept { EVP_PKEY_CTX_free(p); }
};
struct EvpMdCtxDeleter {
  void operator()(EVP_MD_CTX* p) const noexcept { EVP_MD_CTX_free(p); }
};
struct EvpCipherCtxDeleter {
  void operator()(EVP_CIPHER_CTX* p) const noexcept {
    EVP_CIPHER_CTX_free(p);
  }
};
struct BioDeleter {
  void operator()(BIO* p) const noexcept { BIO_free_all(p); }
};
struct X509Deleter {
  void operator()(X509* p) const noexcept { X509_free(p); }
};
struct X509ReqDeleter {
  void operator()(X509_REQ* p) const noexcept { X509_REQ_free(p); }
};
struct X509CrlDeleter {
  void operator()(X509_CRL* p) const noexcept { X509_CRL_free(p); }
};
struct X509NameDeleter {
  void operator()(X509_NAME* p) const noexcept { X509_NAME_free(p); }
};
struct X509AlgorDeleter {
  void operator()(X509_ALGOR* p) const noexcept { X509_ALGOR_free(p); }
};
struct Asn1TypeDeleter {
  void operator()(ASN1_TYPE* p) const noexcept { ASN1_TYPE_free(p); }
};
struct Asn1BitStringDeleter {
  void operator()(ASN1_BIT_STRING* p) const noexcept {
    ASN1_BIT_STRING_free(p);
  }
};

using EvpPkeyPtr = std::unique_ptr<EVP_PKEY, EvpPkeyDeleter>;
using EvpPkeyCtxPtr = std::unique_ptr<EVP_PKEY_CTX, EvpPkeyCtxDeleter>;
using EvpMdCtxPtr = std::unique_ptr<EVP_MD_CTX, EvpMdCtxDeleter>;
using EvpCipherCtxPtr = std::unique_ptr<EVP_CIPHER_CTX, EvpCipherCtxDeleter>;
using BioPtr = std::unique_ptr<BIO, BioDeleter>;
using X509Ptr = std::unique_ptr<X509, X509Deleter>;
using X509ReqPtr = std::unique_ptr<X509_REQ, X509ReqDeleter>;
using X509CrlPtr = std::unique_ptr<X509_CRL, X509CrlDeleter>;
using X509NamePtr = std::unique_ptr<X509_NAME, X509NameDeleter>;
using X509AlgorPtr = std::unique_ptr<X509_ALGOR, X509AlgorDeleter>;
using Asn1TypePtr = std::unique_ptr<ASN1_TYPE, Asn1TypeDeleter>;
using Asn1BitStringPtr = std::unique_ptr<ASN1_BIT_STRING, Asn1BitStringDeleter>;

/// One PEM block as PEM_read_bio returns it. The DER body may hold private
/// key material, so it is wiped when freed or replaced.
struct PemBlock {
  char* name = nullptr;
  char* header = nullptr;
  unsigned char* der = nullptr;
  long len = 0;  // NOLINT(google-runtime-int) OpenSSL API type

  PemBlock() = default;
  PemBlock(const PemBlock&) = delete;
  PemBlock& operator=(const PemBlock&) = delete;
  ~PemBlock() { clear(); }

  /// Read the next block of `bio` into this one (which must be clear).
  /// False at the end of input or on a malformed block; the OpenSSL error
  /// queue says which.
  [[nodiscard]] bool read(BIO* bio);

  /// Wipe and free the block.
  void clear() noexcept;

  /// Take ownership of `body` (allocated by OpenSSL) as the new DER.
  void replace_der(unsigned char* body, int body_len);

  [[nodiscard]] std::string_view der_view() const noexcept {
    return {reinterpret_cast<const char*>(der), static_cast<std::size_t>(len)};
  }
};

/// Drain the OpenSSL error queue into one "lib:reason; lib:reason" string.
[[nodiscard]] std::string drain_error_queue();

/// Throw CryptoError("<what>: <queued OpenSSL errors>").
[[noreturn]] void throw_openssl(std::string_view what);

/// Throws unless `ok` is 1 (the OpenSSL success convention).
inline void check(int ok, std::string_view what) {
  if (ok != 1) throw_openssl(what);
}

/// Throws if `p` is null.
template <typename T>
T* check_ptr(T* p, std::string_view what) {
  if (p == nullptr) throw_openssl(what);
  return p;
}

/// True if `signature` under `algorithm` verifies `signed_der`, a DER
/// element checked as the bytes it arrived as (a TBSCertificate or a
/// CertificationRequestInfo). As X509_verify: the algorithm must match the
/// key's type, and it picks the digest (none for Ed25519/Ed448) or the
/// RSASSA-PSS parameters.
[[nodiscard]] bool verify_signed_bytes(std::string_view signed_der,
                                       const X509_ALGOR* algorithm,
                                       const ASN1_BIT_STRING* signature,
                                       EVP_PKEY* key);

/// Create a read-only memory BIO over `data`.
[[nodiscard]] BioPtr memory_bio(std::string_view data);

/// Create a writable memory BIO.
[[nodiscard]] BioPtr memory_bio();

/// Copy out the full contents of a memory BIO.
[[nodiscard]] std::string bio_to_string(BIO* bio);

}  // namespace myproxy::crypto
