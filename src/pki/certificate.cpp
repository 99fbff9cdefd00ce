#include "pki/certificate.hpp"

#include <openssl/asn1.h>
#include <openssl/asn1t.h>
#include <openssl/bn.h>
#include <openssl/err.h>
#include <openssl/evp.h>
#include <openssl/pem.h>
#include <openssl/x509.h>
#include <openssl/x509v3.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstring>
#include <ctime>
#include <mutex>

#include "common/error.hpp"
#include "common/format.hpp"
#include "crypto/digest.hpp"
#include "crypto/openssl_util.hpp"
#include "pki/der.hpp"
#include "pki/proxy_policy.hpp"

namespace myproxy::pki {

namespace {

// An X.509 certificate as OpenSSL's X509 template reads it (RFC 5280 §4.1),
// except that the SubjectPublicKeyInfo is read as its two fields and never
// turned into an EVP_PKEY. The field types are X509's, so every field
// decodes as d2i_X509 decodes it. Unlike X509, the TBSCertificate keeps no
// copy of the bytes it came from, so re-encoding checks it too.

struct CERT_KEY {
  X509_ALGOR* algorithm;
  ASN1_BIT_STRING* key;
};

struct CERT_TBS {
  ASN1_INTEGER* version;
  ASN1_INTEGER* serial;
  X509_ALGOR* signature;
  X509_NAME* issuer;
  X509_VAL* validity;
  X509_NAME* subject;
  CERT_KEY* key;
  ASN1_BIT_STRING* issuer_uid;
  ASN1_BIT_STRING* subject_uid;
  STACK_OF(X509_EXTENSION) * extensions;
};

struct CERT {
  CERT_TBS* tbs;
  X509_ALGOR* algorithm;
  ASN1_BIT_STRING* signature;
};

ASN1_SEQUENCE(CERT_KEY) = {
    ASN1_SIMPLE(CERT_KEY, algorithm, X509_ALGOR),
    ASN1_SIMPLE(CERT_KEY, key, ASN1_BIT_STRING),
} static_ASN1_SEQUENCE_END(CERT_KEY)

ASN1_SEQUENCE(CERT_TBS) = {
    ASN1_EXP_OPT(CERT_TBS, version, ASN1_INTEGER, 0),
    ASN1_SIMPLE(CERT_TBS, serial, ASN1_INTEGER),
    ASN1_SIMPLE(CERT_TBS, signature, X509_ALGOR),
    ASN1_SIMPLE(CERT_TBS, issuer, X509_NAME),
    ASN1_SIMPLE(CERT_TBS, validity, X509_VAL),
    ASN1_SIMPLE(CERT_TBS, subject, X509_NAME),
    ASN1_SIMPLE(CERT_TBS, key, CERT_KEY),
    ASN1_IMP_OPT(CERT_TBS, issuer_uid, ASN1_BIT_STRING, 1),
    ASN1_IMP_OPT(CERT_TBS, subject_uid, ASN1_BIT_STRING, 2),
    ASN1_EXP_SEQUENCE_OF_OPT(CERT_TBS, extensions, X509_EXTENSION, 3),
} static_ASN1_SEQUENCE_END(CERT_TBS)

ASN1_SEQUENCE(CERT) = {
    ASN1_SIMPLE(CERT, tbs, CERT_TBS),
    ASN1_SIMPLE(CERT, algorithm, X509_ALGOR),
    ASN1_SIMPLE(CERT, signature, ASN1_BIT_STRING),
} static_ASN1_SEQUENCE_END(CERT)

struct CertDeleter {
  void operator()(CERT* p) const noexcept {
    ASN1_item_free(reinterpret_cast<ASN1_VALUE*>(p), ASN1_ITEM_rptr(CERT));
  }
};

const unsigned char* bytes(std::string_view s) {
  return reinterpret_cast<const unsigned char*>(s.data());
}

TimePoint asn1_time_to_timepoint(const ASN1_TIME* t) {
  std::tm tm{};
  crypto::check(ASN1_TIME_to_tm(t, &tm), "ASN1_TIME_to_tm");
  const std::time_t secs = timegm(&tm);
  return from_unix(static_cast<std::int64_t>(secs));
}

/// Run `build` once it has not yet succeeded for `done`; concurrent
/// callers wait for the one that builds.
template <typename Build>
void build_once(std::atomic<bool>& done, std::mutex& mutex, Build&& build) {
  if (done.load(std::memory_order_acquire)) return;
  const std::scoped_lock lock(mutex);
  if (done.load(std::memory_order_relaxed)) return;
  build();
  done.store(true, std::memory_order_release);
}

/// Extension `nid` of `extensions`: -1 absent, 1 present and decoded, 0
/// present but undecodable or repeated.
int extension_state(const STACK_OF(X509_EXTENSION) * extensions, int nid) {
  int crit = 0;
  void* value = X509V3_get_d2i(extensions, nid, &crit, nullptr);
  if (value == nullptr) return crit == -1 ? -1 : 0;
  const X509V3_EXT_METHOD* method = X509V3_EXT_get_nid(nid);
  if (method->it != nullptr) {
    ASN1_item_free(static_cast<ASN1_VALUE*>(value),
                   ASN1_ITEM_ptr(method->it));
  } else {
    method->ext_free(value);
  }
  return 1;
}

}  // namespace

/// A certificate's DER and the fields read from it. Shared by every copy of
/// the certificate and immutable, except for the key and X509 that are
/// built on first use.
struct Certificate::Parsed {
  std::string der;
  std::string_view tbs;   ///< TBSCertificate: the bytes that are signed
  std::string_view spki;  ///< SubjectPublicKeyInfo

  // The fields, owned by `decoded` or, for an adopted certificate, `x509`.
  const ASN1_INTEGER* serial = nullptr;
  const X509_NAME* issuer = nullptr;
  const X509_NAME* subject = nullptr;
  const ASN1_TIME* not_before = nullptr;
  const ASN1_TIME* not_after = nullptr;
  const STACK_OF(X509_EXTENSION) * extensions = nullptr;
  const X509_ALGOR* tbs_algorithm = nullptr;  ///< TBSCertificate.signature
  const X509_ALGOR* algorithm = nullptr;      ///< signatureAlgorithm
  const ASN1_BIT_STRING* signature = nullptr;
  std::unique_ptr<CERT, CertDeleter> decoded;

  mutable std::mutex build_mutex;
  mutable std::atomic<bool> key_built{false};
  mutable crypto::KeyPair key;
  mutable std::atomic<bool> x509_built{false};
  mutable crypto::X509Ptr x509;

  /// Point `tbs` and `spki` into `der`.
  void locate() {
    std::string_view rest = der;
    std::string_view certificate = der::take(rest, der::kSequence).content;
    der::expect_end(rest, "certificate");
    const der::Element to_be_signed = der::take(certificate, der::kSequence);
    tbs = to_be_signed.encoding;
    std::string_view fields = to_be_signed.content;
    if (der::next_is(fields, der::kContext0)) {
      (void)der::take(fields, der::kContext0);  // version
    }
    (void)der::take(fields, der::kInteger);  // serialNumber
    // signature, issuer, validity, subject
    for (int i = 0; i < 4; ++i) (void)der::take(fields, der::kSequence);
    spki = der::take(fields, der::kSequence).encoding;
  }
};

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

Certificate Certificate::read(std::string der, std::size_t n) {
  auto p = std::make_shared<Parsed>();
  p->der = std::move(der);
  const unsigned char* in = bytes(p->der);
  p->decoded.reset(reinterpret_cast<CERT*>(
      ASN1_item_d2i(nullptr, &in, static_cast<long>(p->der.size()),  // NOLINT
                    ASN1_ITEM_rptr(CERT))));
  if (p->decoded == nullptr) {
    throw ParseError(fmt::format("unreadable certificate {}: {}", n,
                                 crypto::drain_error_queue()));
  }
  // Only DER (RFC 5280 §4.1): trailing bytes or a BER encoding anywhere
  // re-encode to other bytes.
  unsigned char* encoded = nullptr;
  const int len = ASN1_item_i2d(reinterpret_cast<ASN1_VALUE*>(p->decoded.get()),
                                &encoded, ASN1_ITEM_rptr(CERT));
  if (len < 0) crypto::throw_openssl("certificate re-encode");
  const bool canonical =
      std::string_view(reinterpret_cast<const char*>(encoded),
                       static_cast<std::size_t>(len)) == p->der;
  OPENSSL_free(encoded);
  if (!canonical) {
    throw ParseError(
        fmt::format("certificate {} is not in canonical DER", n));
  }
  p->locate();

  const CERT& c = *p->decoded;
  p->serial = c.tbs->serial;
  p->issuer = c.tbs->issuer;
  p->subject = c.tbs->subject;
  p->not_before = c.tbs->validity->notBefore;
  p->not_after = c.tbs->validity->notAfter;
  p->extensions = c.tbs->extensions;
  p->tbs_algorithm = c.tbs->signature;
  p->algorithm = c.algorithm;
  p->signature = c.signature;
  Certificate out;
  out.parsed_ = std::move(p);
  return out;
}

Certificate Certificate::adopt(X509* x509) {
  crypto::X509Ptr x(crypto::check_ptr(x509, "Certificate::adopt(null)"));
  auto p = std::make_shared<Parsed>();
  unsigned char* der = nullptr;
  const int len = i2d_X509(x.get(), &der);
  if (len < 0) crypto::throw_openssl("i2d_X509");
  p->der.assign(reinterpret_cast<char*>(der), static_cast<std::size_t>(len));
  OPENSSL_free(der);
  p->locate();

  p->serial = X509_get0_serialNumber(x.get());
  p->issuer = X509_get_issuer_name(x.get());
  p->subject = X509_get_subject_name(x.get());
  p->not_before = X509_get0_notBefore(x.get());
  p->not_after = X509_get0_notAfter(x.get());
  p->extensions = X509_get0_extensions(x.get());
  p->tbs_algorithm = X509_get0_tbs_sigalg(x.get());
  X509_get0_signature(&p->signature, &p->algorithm, x.get());
  // An X509 carries its key: decoded with it, or set when it was built.
  if (EVP_PKEY* key = X509_get_pubkey(x.get())) {  // +1 reference
    p->key = crypto::KeyPair::adopt(key, /*has_private=*/false);
    p->key_built = true;
  } else {
    (void)crypto::drain_error_queue();
  }
  p->x509 = std::move(x);
  p->x509_built = true;
  Certificate out;
  out.parsed_ = std::move(p);
  return out;
}

const Certificate::Parsed& Certificate::parsed() const {
  if (parsed_ == nullptr) {
    throw Error(ErrorCode::kInternal, "empty Certificate");
  }
  return *parsed_;
}

Certificate Certificate::from_pem(std::string_view pem) {
  crypto::BioPtr bio = crypto::memory_bio(pem);
  crypto::PemBlock block;
  while (true) {
    if (!block.read(bio.get())) {
      (void)crypto::drain_error_queue();
      throw ParseError("no certificate found in PEM input");
    }
    if (std::strcmp(block.name, PEM_STRING_X509) == 0 ||
        std::strcmp(block.name, PEM_STRING_X509_OLD) == 0) {
      break;
    }
    block.clear();
  }
  return read(std::string(block.der_view()), 1);
}

std::vector<Certificate> Certificate::chain_from_pem(
    std::string_view pem, std::span<const Certificate> known) {
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
    const auto same = std::find_if(
        known.begin(), known.end(),
        [der](const Certificate& cert) { return cert.der() == der; });
    chain.push_back(same != known.end()
                        ? *same
                        : read(std::string(der), chain.size() + 1));
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
  const std::string& encoded = der();
  crypto::BioPtr bio = crypto::memory_bio();
  if (PEM_write_bio(bio.get(), PEM_STRING_X509, "", bytes(encoded),
                    static_cast<long>(encoded.size())) <= 0) {  // NOLINT
    crypto::throw_openssl("PEM_write_bio(certificate)");
  }
  return crypto::bio_to_string(bio.get());
}

DistinguishedName Certificate::subject() const {
  return DistinguishedName::from_x509_name(parsed().subject);
}

DistinguishedName Certificate::issuer() const {
  return DistinguishedName::from_x509_name(parsed().issuer);
}

TimePoint Certificate::not_before() const {
  return asn1_time_to_timepoint(parsed().not_before);
}

TimePoint Certificate::not_after() const {
  return asn1_time_to_timepoint(parsed().not_after);
}

Seconds Certificate::remaining_lifetime() const {
  return std::chrono::duration_cast<Seconds>(not_after() - now());
}

std::string Certificate::serial_hex() const {
  BIGNUM* bn = ASN1_INTEGER_to_BN(parsed().serial, nullptr);
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
  const Parsed& p = parsed();
  build_once(p.key_built, p.build_mutex, [&p] {
    p.key = crypto::KeyPair::from_public_der(p.spki);
  });
  return p.key;
}

bool Certificate::signed_by(const Certificate& issuer) const {
  const Parsed& p = parsed();
  const crypto::KeyPair key = issuer.public_key();
  if (X509_ALGOR_cmp(p.tbs_algorithm, p.algorithm) != 0) return false;
  return crypto::verify_signed_bytes(p.tbs, p.algorithm, p.signature,
                                     key.native());
}

X509* Certificate::native() const {
  const Parsed& p = parsed();
  build_once(p.x509_built, p.build_mutex, [&p] {
    const unsigned char* in = bytes(p.der);
    p.x509.reset(d2i_X509(nullptr, &in, static_cast<long>(p.der.size())));
    if (p.x509 == nullptr) crypto::throw_openssl("d2i_X509");
  });
  return p.x509.get();
}

const std::string& Certificate::der() const { return parsed().der; }

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
  const auto* extensions = parsed().extensions;
  const int index = X509v3_get_ext_by_NID(extensions, proxy_policy_nid(), -1);
  if (index < 0) return std::nullopt;
  const ASN1_OCTET_STRING* data =
      X509_EXTENSION_get_data(X509v3_get_ext(extensions, index));
  return std::string(reinterpret_cast<const char*>(data->data),
                     static_cast<std::size_t>(data->length));
}

bool Certificate::is_ca() const {
  // X509_check_ca(x) == 1: basicConstraints says cA with no negative path
  // length, keyUsage (if present) allows certificate signing, and every
  // other extension OpenSSL caches decodes, without proxyCertInfo.
  const auto* extensions = parsed().extensions;
  int crit = 0;
  auto* constraints = static_cast<BASIC_CONSTRAINTS*>(
      X509V3_get_d2i(extensions, NID_basic_constraints, &crit, nullptr));
  if (constraints == nullptr) return false;
  const bool ca = constraints->ca != 0 &&
                  (constraints->pathlen == nullptr ||
                   constraints->pathlen->type != V_ASN1_NEG_INTEGER);
  BASIC_CONSTRAINTS_free(constraints);
  if (!ca) return false;

  auto* usage = static_cast<ASN1_BIT_STRING*>(
      X509V3_get_d2i(extensions, NID_key_usage, &crit, nullptr));
  if (usage != nullptr) {
    const bool cert_sign = usage->length > 0 &&
                           (usage->data[0] & KU_KEY_CERT_SIGN) != 0;
    ASN1_BIT_STRING_free(usage);
    if (!cert_sign) return false;
  } else if (crit != -1) {
    return false;
  }

  for (const int nid :
       {NID_ext_key_usage, NID_netscape_cert_type, NID_subject_key_identifier,
        NID_authority_key_identifier, NID_subject_alt_name,
        NID_name_constraints, NID_crl_distribution_points,
        NID_sbgp_ipAddrBlock, NID_sbgp_autonomousSysNum}) {
    if (extension_state(extensions, nid) == 0) return false;
  }
  return extension_state(extensions, NID_proxyCertInfo) == -1;
}

bool operator==(const Certificate& a, const Certificate& b) {
  if (a.parsed_ == nullptr || b.parsed_ == nullptr) {
    return a.parsed_ == b.parsed_;
  }
  return a.parsed_ == b.parsed_ || a.parsed_->der == b.parsed_->der;
}

}  // namespace myproxy::pki
