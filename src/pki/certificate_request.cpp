#include "pki/certificate_request.hpp"

#include <openssl/core_names.h>
#include <openssl/ec.h>
#include <openssl/evp.h>
#include <openssl/objects.h>
#include <openssl/pem.h>
#include <openssl/x509.h>

#include <string>

#include "common/error.hpp"
#include "crypto/openssl_util.hpp"

namespace myproxy::pki {

namespace {

std::shared_ptr<X509_REQ> wrap(X509_REQ* r) {
  return std::shared_ptr<X509_REQ>(r, [](X509_REQ* p) { X509_REQ_free(p); });
}

X509_REQ* require(const std::shared_ptr<X509_REQ>& r) {
  if (r == nullptr) {
    throw Error(ErrorCode::kInternal, "empty CertificateRequest");
  }
  return r.get();
}

/// Write an EC key's SubjectPublicKeyInfo from its encoded point and named
/// curve: the same bytes i2d_PUBKEY produces, without building an OpenSSL 3
/// encoder (and a decoder for the copy) per request.
void set_ec_public_key(X509_REQ* req, EVP_PKEY* key) {
  char group[64] = {};
  crypto::check(EVP_PKEY_get_utf8_string_param(key, OSSL_PKEY_PARAM_GROUP_NAME,
                                               group, sizeof(group), nullptr),
                "EVP_PKEY_get_utf8_string_param(group)");
  int curve = OBJ_sn2nid(group);
  if (curve == NID_undef) curve = EC_curve_nist2nid(group);
  if (curve == NID_undef) {
    throw CryptoError(std::string("EC key on an unnamed curve: ") + group);
  }
  std::size_t point_len = 0;
  crypto::check(
      EVP_PKEY_get_octet_string_param(
          key, OSSL_PKEY_PARAM_ENCODED_PUBLIC_KEY, nullptr, 0, &point_len),
      "EVP_PKEY_get_octet_string_param(size)");
  auto* point = static_cast<unsigned char*>(OPENSSL_malloc(point_len));
  crypto::check_ptr(point, "OPENSSL_malloc");
  if (EVP_PKEY_get_octet_string_param(key, OSSL_PKEY_PARAM_ENCODED_PUBLIC_KEY,
                                      point, point_len, &point_len) != 1 ||
      X509_PUBKEY_set0_param(X509_REQ_get_X509_PUBKEY(req),
                             OBJ_nid2obj(NID_X9_62_id_ecPublicKey),
                             V_ASN1_OBJECT, OBJ_nid2obj(curve), point,
                             static_cast<int>(point_len)) != 1) {
    OPENSSL_free(point);
    crypto::throw_openssl("EC SubjectPublicKeyInfo");
  }
}

}  // namespace

CertificateRequest CertificateRequest::create(
    const DistinguishedName& subject, const crypto::KeyPair& key) {
  if (!key.has_private()) {
    throw CryptoError("CSR creation requires a private key");
  }
  crypto::X509ReqPtr req(
      crypto::check_ptr(X509_REQ_new(), "X509_REQ_new"));
  crypto::check(X509_REQ_set_version(req.get(), 0), "X509_REQ_set_version");

  X509_NAME* name = subject.to_x509_name();
  const int rc = X509_REQ_set_subject_name(req.get(), name);
  X509_NAME_free(name);
  crypto::check(rc, "X509_REQ_set_subject_name");

  if (key.type() == crypto::KeyType::kEc) {
    set_ec_public_key(req.get(), key.native());
  } else {
    crypto::check(X509_REQ_set_pubkey(req.get(), key.native()),
                  "X509_REQ_set_pubkey");
  }
  if (X509_REQ_sign(req.get(), key.native(), EVP_sha256()) <= 0) {
    crypto::throw_openssl("X509_REQ_sign");
  }

  CertificateRequest out;
  out.req_ = wrap(req.release());
  out.key_ = key;
  return out;
}

CertificateRequest CertificateRequest::from_pem(std::string_view pem) {
  crypto::BioPtr bio = crypto::memory_bio(pem);
  X509_REQ* req = PEM_read_bio_X509_REQ(bio.get(), nullptr, nullptr, nullptr);
  if (req == nullptr) {
    (void)crypto::drain_error_queue();
    throw ParseError("no certificate request found in PEM input");
  }
  CertificateRequest out;
  out.req_ = wrap(req);
  return out;
}

std::string CertificateRequest::to_pem() const {
  crypto::BioPtr bio = crypto::memory_bio();
  crypto::check(PEM_write_bio_X509_REQ(bio.get(), require(req_)),
                "PEM_write_bio_X509_REQ");
  return crypto::bio_to_string(bio.get());
}

DistinguishedName CertificateRequest::subject() const {
  return DistinguishedName::from_x509_name(
      X509_REQ_get_subject_name(require(req_)));
}

EVP_PKEY* CertificateRequest::key() const {
  if (key_.valid()) return key_.native();
  return crypto::check_ptr(X509_REQ_get0_pubkey(require(req_)),
                           "X509_REQ_get0_pubkey");
}

crypto::KeyPair CertificateRequest::public_key() const {
  EVP_PKEY* key = this->key();
  crypto::check(EVP_PKEY_up_ref(key), "EVP_PKEY_up_ref");
  return crypto::KeyPair::adopt(key, /*has_private=*/false);
}

bool CertificateRequest::verify() const {
  const int rc = X509_REQ_verify(require(req_), key());
  if (rc < 0) (void)crypto::drain_error_queue();
  return rc == 1;
}

}  // namespace myproxy::pki
