#include "crypto/openssl_util.hpp"

#include <openssl/err.h>
#include <openssl/pem.h>

#include "common/format.hpp"

namespace myproxy::crypto {

std::string drain_error_queue() {
  std::string out;
  unsigned long code = 0;  // NOLINT(google-runtime-int) OpenSSL API type
  while ((code = ERR_get_error()) != 0) {
    char buf[256];
    ERR_error_string_n(code, buf, sizeof(buf));
    if (!out.empty()) out += "; ";
    out += buf;
  }
  if (out.empty()) out = "(no OpenSSL error queued)";
  return out;
}

void throw_openssl(std::string_view what) {
  throw CryptoError(fmt::format("{}: {}", what, drain_error_queue()));
}

bool verify_signed_bytes(std::string_view signed_der,
                         const X509_ALGOR* algorithm,
                         const ASN1_BIT_STRING* signature, EVP_PKEY* key) {
  // An ANY of type SEQUENCE holds its whole encoding and writes it back
  // verbatim, so ASN1_item_verify checks the bytes as they arrived, exactly
  // as X509_verify does for a decoded certificate.
  Asn1TypePtr signed_any(ASN1_TYPE_new());
  ASN1_STRING* copy = ASN1_STRING_type_new(V_ASN1_SEQUENCE);
  if (signed_any == nullptr || copy == nullptr ||
      ASN1_STRING_set(copy, signed_der.data(),
                      static_cast<int>(signed_der.size())) != 1) {
    ASN1_STRING_free(copy);
    throw_openssl("signed bytes copy");
  }
  ASN1_TYPE_set(signed_any.get(), V_ASN1_SEQUENCE, copy);
  const int rc =
      algorithm == nullptr || signature == nullptr
          ? 0
          : ASN1_item_verify(ASN1_ITEM_rptr(ASN1_ANY), algorithm, signature,
                             signed_any.get(), key);
  if (rc != 1) (void)drain_error_queue();
  return rc == 1;
}

bool PemBlock::read(BIO* bio) {
  return PEM_read_bio(bio, &name, &header, &der, &len) == 1;
}

void PemBlock::clear() noexcept {
  OPENSSL_free(name);
  OPENSSL_free(header);
  OPENSSL_clear_free(der, static_cast<std::size_t>(len));
  name = header = nullptr;
  der = nullptr;
  len = 0;
}

void PemBlock::replace_der(unsigned char* body, int body_len) {
  OPENSSL_clear_free(der, static_cast<std::size_t>(len));
  der = body;
  len = body_len;
}

BioPtr memory_bio(std::string_view data) {
  BIO* bio = BIO_new_mem_buf(data.data(), static_cast<int>(data.size()));
  return BioPtr(check_ptr(bio, "BIO_new_mem_buf"));
}

BioPtr memory_bio() {
  BIO* bio = BIO_new(BIO_s_mem());
  return BioPtr(check_ptr(bio, "BIO_new(mem)"));
}

std::string bio_to_string(BIO* bio) {
  char* data = nullptr;
  const long size = BIO_get_mem_data(bio, &data);  // NOLINT
  if (size <= 0 || data == nullptr) return {};
  return std::string(data, static_cast<std::size_t>(size));
}

}  // namespace myproxy::crypto
