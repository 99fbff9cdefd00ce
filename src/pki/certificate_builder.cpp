#include "pki/certificate_builder.hpp"

#include <openssl/asn1.h>
#include <openssl/bn.h>
#include <openssl/crypto.h>
#include <openssl/evp.h>
#include <openssl/objects.h>
#include <openssl/pem.h>
#include <openssl/x509.h>
#include <openssl/x509v3.h>

#include "common/error.hpp"
#include "crypto/openssl_util.hpp"
#include "crypto/random.hpp"
#include "pki/der.hpp"

namespace myproxy::pki {

namespace {

void set_asn1_time(ASN1_TIME* target, TimePoint t) {
  const std::time_t secs = static_cast<std::time_t>(to_unix(t));
  crypto::check_ptr(ASN1_TIME_set(target, secs), "ASN1_TIME_set");
}

void set_serial(X509* x, const std::string& hex) {
  BIGNUM* bn = nullptr;
  if (BN_hex2bn(&bn, hex.c_str()) == 0) {
    crypto::throw_openssl("BN_hex2bn(serial)");
  }
  ASN1_INTEGER* serial = BN_to_ASN1_INTEGER(bn, nullptr);
  BN_free(bn);
  crypto::check_ptr(serial, "BN_to_ASN1_INTEGER");
  const int rc = X509_set_serialNumber(x, serial);
  ASN1_INTEGER_free(serial);
  crypto::check(rc, "X509_set_serialNumber");
}

void add_basic_constraints(X509* x, bool is_ca) {
  BASIC_CONSTRAINTS* bc = BASIC_CONSTRAINTS_new();
  crypto::check_ptr(bc, "BASIC_CONSTRAINTS_new");
  bc->ca = is_ca ? 0xFF : 0;
  X509_EXTENSION* ext =
      X509V3_EXT_i2d(NID_basic_constraints, /*crit=*/1, bc);
  BASIC_CONSTRAINTS_free(bc);
  crypto::check_ptr(ext, "X509V3_EXT_i2d(basicConstraints)");
  const int rc = X509_add_ext(x, ext, -1);
  X509_EXTENSION_free(ext);
  crypto::check(rc, "X509_add_ext(basicConstraints)");
}

void add_policy_extension(X509* x, const RestrictionPolicy& policy) {
  const std::string text = policy.str();
  ASN1_OCTET_STRING* data = ASN1_OCTET_STRING_new();
  crypto::check_ptr(data, "ASN1_OCTET_STRING_new");
  crypto::check(
      ASN1_OCTET_STRING_set(
          data, reinterpret_cast<const unsigned char*>(text.data()),
          static_cast<int>(text.size())),
      "ASN1_OCTET_STRING_set");
  ASN1_OBJECT* obj = OBJ_nid2obj(proxy_policy_nid());
  X509_EXTENSION* ext =
      X509_EXTENSION_create_by_OBJ(nullptr, obj, /*crit=*/0, data);
  ASN1_OCTET_STRING_free(data);
  crypto::check_ptr(ext, "X509_EXTENSION_create_by_OBJ");
  const int rc = X509_add_ext(x, ext, -1);
  X509_EXTENSION_free(ext);
  crypto::check(rc, "X509_add_ext(proxy policy)");
}

/// Set `to` from DER SubjectPublicKeyInfo bytes: the algorithm, its
/// parameters and the key bits. The key itself is never decoded.
void set_public_key_info(X509_PUBKEY* to, std::string_view spki) {
  std::string_view rest = spki;
  std::string_view fields = der::take(rest, der::kSequence).content;
  der::expect_end(rest, "SubjectPublicKeyInfo");
  const std::string_view algorithm_der =
      der::take(fields, der::kSequence).encoding;
  const std::string_view bits = der::bits(der::take(fields, der::kBitString));
  der::expect_end(fields, "SubjectPublicKeyInfo");

  const auto* p = reinterpret_cast<const unsigned char*>(algorithm_der.data());
  const crypto::X509AlgorPtr algor(d2i_X509_ALGOR(
      nullptr, &p, static_cast<long>(algorithm_der.size())));  // NOLINT
  crypto::check_ptr(algor.get(), "d2i_X509_ALGOR");
  const ASN1_OBJECT* algorithm = nullptr;
  int param_type = V_ASN1_UNDEF;
  const void* param = nullptr;
  X509_ALGOR_get0(&algorithm, &param_type, &param, algor.get());

  void* param_copy = nullptr;
  switch (param_type) {
    case V_ASN1_UNDEF:  // e.g. Ed25519: parameters absent
    case V_ASN1_NULL:   // RSA
      break;
    case V_ASN1_OBJECT:  // EC named curve
      param_copy = OBJ_dup(static_cast<const ASN1_OBJECT*>(param));
      break;
    case V_ASN1_SEQUENCE:  // explicit curve or RSA-PSS parameters
      param_copy = ASN1_STRING_dup(static_cast<const ASN1_STRING*>(param));
      break;
    default:
      throw CryptoError("unsupported SubjectPublicKeyInfo parameter type");
  }
  ASN1_OBJECT* algorithm_copy = OBJ_dup(algorithm);
  auto* bits_copy = static_cast<unsigned char*>(
      OPENSSL_memdup(bits.data(), bits.size()));
  const bool copied = algorithm_copy != nullptr && bits_copy != nullptr &&
                      (param == nullptr || param_copy != nullptr);
  // X509_PUBKEY_set0_param takes ownership of the copies only on success.
  if (!copied || X509_PUBKEY_set0_param(to, algorithm_copy, param_type,
                                        param_copy, bits_copy,
                                        static_cast<int>(bits.size())) != 1) {
    ASN1_OBJECT_free(algorithm_copy);
    if (param_type == V_ASN1_OBJECT) {
      ASN1_OBJECT_free(static_cast<ASN1_OBJECT*>(param_copy));
    } else {
      ASN1_STRING_free(static_cast<ASN1_STRING*>(param_copy));
    }
    OPENSSL_free(bits_copy);
    crypto::throw_openssl("copy SubjectPublicKeyInfo");
  }
}

}  // namespace

CertificateBuilder::CertificateBuilder() {
  const TimePoint start = now();
  not_before_ = start - kValiditySkew;
  not_after_ = start + kDefaultProxyLifetime;
}

CertificateBuilder& CertificateBuilder::subject(DistinguishedName dn) {
  subject_ = std::move(dn);
  return *this;
}

CertificateBuilder& CertificateBuilder::issuer(DistinguishedName dn) {
  issuer_ = std::move(dn);
  return *this;
}

CertificateBuilder& CertificateBuilder::public_key(
    const crypto::KeyPair& key) {
  public_key_ = key;
  public_key_csr_ = CertificateRequest();
  return *this;
}

CertificateBuilder& CertificateBuilder::public_key_of(
    const CertificateRequest& csr) {
  public_key_csr_ = csr;
  public_key_ = crypto::KeyPair();
  return *this;
}

CertificateBuilder& CertificateBuilder::lifetime(Seconds lifetime) {
  if (lifetime <= Seconds(0)) {
    throw PolicyError("certificate lifetime must be positive");
  }
  const TimePoint start = now();
  not_before_ = start - kValiditySkew;
  not_after_ = start + lifetime;
  return *this;
}

CertificateBuilder& CertificateBuilder::validity(TimePoint not_before,
                                                 TimePoint not_after) {
  if (not_after <= not_before) {
    throw PolicyError("certificate validity window is empty");
  }
  not_before_ = not_before;
  not_after_ = not_after;
  return *this;
}

CertificateBuilder& CertificateBuilder::serial_hex(std::string hex) {
  serial_hex_ = std::move(hex);
  return *this;
}

CertificateBuilder& CertificateBuilder::ca(bool is_ca) {
  is_ca_ = is_ca;
  return *this;
}

CertificateBuilder& CertificateBuilder::restriction(RestrictionPolicy policy) {
  restriction_ = std::move(policy);
  return *this;
}

Certificate CertificateBuilder::sign(const crypto::KeyPair& issuer_key) const {
  if (public_key_csr_.valid()) {
    throw Error(ErrorCode::kInternal,
                "CertificateBuilder: a key copied from a CSR is issued only "
                "as PEM");
  }
  crypto::X509Ptr x(crypto::check_ptr(X509_new(), "X509_new"));
  sign_into(x.get(), issuer_key);
  return Certificate::adopt(x.release());
}

std::string CertificateBuilder::sign_pem(
    const crypto::KeyPair& issuer_key) const {
  crypto::X509Ptr x(crypto::check_ptr(X509_new(), "X509_new"));
  sign_into(x.get(), issuer_key);
  crypto::BioPtr bio = crypto::memory_bio();
  crypto::check(PEM_write_bio_X509(bio.get(), x.get()), "PEM_write_bio_X509");
  return crypto::bio_to_string(bio.get());
}

void CertificateBuilder::sign_into(X509* x,
                                   const crypto::KeyPair& issuer_key) const {
  if (!subject_.has_value() || !issuer_.has_value()) {
    throw Error(ErrorCode::kInternal,
                "CertificateBuilder: subject and issuer are required");
  }
  if (!public_key_.valid() && !public_key_csr_.valid()) {
    throw Error(ErrorCode::kInternal,
                "CertificateBuilder: public key is required");
  }
  if (!issuer_key.has_private()) {
    throw CryptoError("CertificateBuilder: issuer key lacks a private half");
  }

  crypto::check(X509_set_version(x, 2), "X509_set_version");  // v3

  set_serial(x,
             serial_hex_.has_value() ? *serial_hex_ : crypto::random_hex(8));

  X509_NAME* subject_name = subject_->to_x509_name();
  int rc = X509_set_subject_name(x, subject_name);
  X509_NAME_free(subject_name);
  crypto::check(rc, "X509_set_subject_name");

  X509_NAME* issuer_name = issuer_->to_x509_name();
  rc = X509_set_issuer_name(x, issuer_name);
  X509_NAME_free(issuer_name);
  crypto::check(rc, "X509_set_issuer_name");

  set_asn1_time(X509_getm_notBefore(x), not_before_);
  set_asn1_time(X509_getm_notAfter(x), not_after_);

  if (public_key_csr_.valid()) {
    set_public_key_info(X509_get_X509_PUBKEY(x), public_key_csr_.spki_der());
  } else {
    crypto::check(X509_set_pubkey(x, public_key_.native()),
                  "X509_set_pubkey");
  }

  add_basic_constraints(x, is_ca_);
  if (restriction_.has_value()) {
    add_policy_extension(x, *restriction_);
  }

  if (X509_sign(x, issuer_key.native(), EVP_sha256()) <= 0) {
    crypto::throw_openssl("X509_sign");
  }
}

}  // namespace myproxy::pki
