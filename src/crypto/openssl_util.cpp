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
