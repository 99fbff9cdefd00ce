#include "pki/certificate.hpp"

#include <openssl/asn1.h>
#include <openssl/bn.h>
#include <openssl/err.h>
#include <openssl/evp.h>
#include <openssl/pem.h>
#include <openssl/x509.h>
#include <openssl/x509v3.h>

#include <algorithm>
#include <cctype>
#include <cstring>
#include <ctime>

#include "common/encoding.hpp"
#include "common/error.hpp"
#include "common/format.hpp"
#include "crypto/digest.hpp"
#include "crypto/openssl_util.hpp"
#include "pki/proxy_policy.hpp"

namespace myproxy::pki {

namespace {

std::shared_ptr<X509> wrap(X509* x) {
  return std::shared_ptr<X509>(x, [](X509* p) { X509_free(p); });
}

X509* require(const std::shared_ptr<X509>& x) {
  if (x == nullptr) throw Error(ErrorCode::kInternal, "empty Certificate");
  return x.get();
}

TimePoint asn1_time_to_timepoint(const ASN1_TIME* t) {
  std::tm tm{};
  crypto::check(ASN1_TIME_to_tm(t, &tm), "ASN1_TIME_to_tm");
  const std::time_t secs = timegm(&tm);
  return from_unix(static_cast<std::int64_t>(secs));
}

std::string der_encode(X509* x) {
  unsigned char* der = nullptr;
  const int len = i2d_X509(x, &der);
  if (len < 0) crypto::throw_openssl("i2d_X509");
  std::string out(reinterpret_cast<char*>(der),
                  static_cast<std::size_t>(len));
  OPENSSL_free(der);
  return out;
}

}  // namespace

std::string_view to_string(ProxyType type) noexcept {
  switch (type) {
    case ProxyType::kEndEntity:
      return "end-entity";
    case ProxyType::kFull:
      return "proxy";
    case ProxyType::kLimited:
      return "limited proxy";
  }
  return "?";
}

Certificate Certificate::from_pem(std::string_view pem) {
  crypto::BioPtr bio = crypto::memory_bio(pem);
  X509* x = PEM_read_bio_X509(bio.get(), nullptr, nullptr, nullptr);
  if (x == nullptr) {
    (void)crypto::drain_error_queue();
    throw ParseError("no certificate found in PEM input");
  }
  Certificate out;
  out.x509_ = wrap(x);
  return out;
}

std::vector<Certificate> Certificate::chain_from_pem(
    std::string_view pem, std::span<const Certificate> known) {
  std::vector<std::string> known_der;
  known_der.reserve(known.size());
  for (const auto& cert : known) known_der.push_back(cert.der());

  crypto::BioPtr bio = crypto::memory_bio(pem);
  std::vector<Certificate> chain;
  crypto::PemBlock block;
  ERR_clear_error();
  while (true) {
    block.clear();
    if (!block.read(bio.get())) {
      // Only "no further BEGIN line" ends the chain cleanly; a corrupt or
      // truncated block must not silently shorten it.
      const auto last = ERR_peek_last_error();
      const bool clean_end = ERR_GET_LIB(last) == ERR_LIB_PEM &&
                             ERR_GET_REASON(last) == PEM_R_NO_START_LINE;
      const std::string detail = crypto::drain_error_queue();
      if (!clean_end) {
        throw ParseError(fmt::format(
            "unreadable certificate block after {} certificate(s): {}",
            chain.size(), detail));
      }
      break;
    }
    if (std::strcmp(block.name, PEM_STRING_X509) != 0 &&
        std::strcmp(block.name, PEM_STRING_X509_OLD) != 0) {
      continue;  // a key block, wiped by clear()
    }
    const std::string_view der = block.der_view();
    const auto same = std::find(known_der.begin(), known_der.end(), der);
    if (same != known_der.end()) {
      chain.push_back(known[static_cast<std::size_t>(same -
                                                     known_der.begin())]);
      continue;
    }
    const auto* p = reinterpret_cast<const unsigned char*>(der.data());
    X509* x = d2i_X509(nullptr, &p, block.len);
    if (x == nullptr) {
      throw ParseError(fmt::format("unreadable certificate {}: {}",
                                   chain.size() + 1,
                                   crypto::drain_error_queue()));
    }
    Certificate cert;
    cert.x509_ = wrap(x);
    // Trailing bytes or a non-canonical encoding would make the returned
    // certificate differ from the bytes it was read from.
    if (cert.der() != der) {
      throw ParseError(fmt::format(
          "certificate {} is not in canonical DER", chain.size() + 1));
    }
    chain.push_back(std::move(cert));
  }
  if (chain.empty()) {
    throw ParseError("no certificates found in PEM input");
  }
  return chain;
}

std::string Certificate::chain_to_pem(const std::vector<Certificate>& certs) {
  std::string out;
  for (const auto& cert : certs) out += cert.to_pem();
  return out;
}

std::string Certificate::to_pem() const {
  crypto::BioPtr bio = crypto::memory_bio();
  crypto::check(PEM_write_bio_X509(bio.get(), require(x509_)),
                "PEM_write_bio_X509");
  return crypto::bio_to_string(bio.get());
}

DistinguishedName Certificate::subject() const {
  return DistinguishedName::from_x509_name(
      X509_get_subject_name(require(x509_)));
}

DistinguishedName Certificate::issuer() const {
  return DistinguishedName::from_x509_name(
      X509_get_issuer_name(require(x509_)));
}

TimePoint Certificate::not_before() const {
  return asn1_time_to_timepoint(X509_get0_notBefore(require(x509_)));
}

TimePoint Certificate::not_after() const {
  return asn1_time_to_timepoint(X509_get0_notAfter(require(x509_)));
}

Seconds Certificate::remaining_lifetime() const {
  return std::chrono::duration_cast<Seconds>(not_after() - now());
}

std::string Certificate::serial_hex() const {
  const ASN1_INTEGER* serial = X509_get0_serialNumber(require(x509_));
  BIGNUM* bn = ASN1_INTEGER_to_BN(serial, nullptr);
  crypto::check_ptr(bn, "ASN1_INTEGER_to_BN");
  char* hex = BN_bn2hex(bn);
  BN_free(bn);
  crypto::check_ptr(hex, "BN_bn2hex");
  std::string out(hex);
  OPENSSL_free(hex);
  for (auto& c : out) c = static_cast<char>(std::tolower(c));
  return out;
}

crypto::KeyPair Certificate::public_key() const {
  EVP_PKEY* key = X509_get_pubkey(require(x509_));  // +1 reference
  crypto::check_ptr(key, "X509_get_pubkey");
  return crypto::KeyPair::adopt(key, /*has_private=*/false);
}

bool Certificate::signed_by(const Certificate& issuer) const {
  EVP_PKEY* key = X509_get_pubkey(require(issuer.x509_));
  crypto::check_ptr(key, "X509_get_pubkey");
  const int rc = X509_verify(require(x509_), key);
  EVP_PKEY_free(key);
  if (rc < 0) (void)crypto::drain_error_queue();
  return rc == 1;
}

std::string Certificate::der() const { return der_encode(require(x509_)); }

std::string Certificate::fingerprint() const {
  return crypto::digest_hex(crypto::HashAlgorithm::kSha256, der());
}

ProxyType Certificate::proxy_type() const {
  const DistinguishedName subject_dn = subject();
  const DistinguishedName issuer_dn = issuer();
  std::string cn;
  if (!subject_dn.extends_by_one_cn(issuer_dn, &cn)) {
    return ProxyType::kEndEntity;
  }
  if (cn == kProxyCn) return ProxyType::kFull;
  if (cn == kLimitedProxyCn) return ProxyType::kLimited;
  return ProxyType::kEndEntity;
}

std::optional<std::string> Certificate::restriction_policy() const {
  X509* x = require(x509_);
  const int index = X509_get_ext_by_NID(x, proxy_policy_nid(), -1);
  if (index < 0) return std::nullopt;
  X509_EXTENSION* ext = X509_get_ext(x, index);
  const ASN1_OCTET_STRING* data = X509_EXTENSION_get_data(ext);
  return std::string(reinterpret_cast<const char*>(data->data),
                     static_cast<std::size_t>(data->length));
}

bool Certificate::is_ca() const {
  return X509_check_ca(require(x509_)) == 1;
}

Certificate Certificate::adopt(X509* x509) {
  Certificate out;
  out.x509_ = wrap(crypto::check_ptr(x509, "Certificate::adopt(null)"));
  return out;
}

bool operator==(const Certificate& a, const Certificate& b) {
  if (a.x509_ == nullptr || b.x509_ == nullptr) {
    return a.x509_ == b.x509_;
  }
  return X509_cmp(a.x509_.get(), b.x509_.get()) == 0;
}

}  // namespace myproxy::pki
