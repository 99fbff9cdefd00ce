#include "pki/certificate_request.hpp"

#include <openssl/asn1.h>
#include <openssl/core_names.h>
#include <openssl/ec.h>
#include <openssl/evp.h>
#include <openssl/objects.h>
#include <openssl/pem.h>
#include <openssl/x509.h>

#include <cstring>
#include <string>

#include "common/error.hpp"
#include "crypto/openssl_util.hpp"
#include "pki/der.hpp"

namespace myproxy::pki {

/// The request's DER and views of its parts. Never moved once built, so
/// the views stay valid for as long as any copy of the request lives.
struct CertificateRequest::Encoding {
  std::string der;
  std::string_view info;       ///< CertificationRequestInfo: what is signed
  std::string_view subject;    ///< Name
  std::string_view spki;       ///< SubjectPublicKeyInfo
  std::string_view algorithm;  ///< signatureAlgorithm
  std::string_view signature;  ///< signature BIT STRING
};

namespace {

const unsigned char* bytes(std::string_view s) {
  return reinterpret_cast<const unsigned char*>(s.data());
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

std::shared_ptr<const CertificateRequest::Encoding> CertificateRequest::read(
    std::string encoded) {
  auto out = std::make_shared<Encoding>();
  out->der = std::move(encoded);
  std::string_view rest = out->der;
  std::string_view request = der::take(rest, der::kSequence).content;
  der::expect_end(rest, "certificate request");

  const der::Element info = der::take(request, der::kSequence);
  out->info = info.encoding;
  out->algorithm = der::take(request, der::kSequence).encoding;
  out->signature = der::take(request, der::kBitString).encoding;
  der::expect_end(request, "certificate request signature");

  std::string_view fields = info.content;
  if (der::take(fields, der::kInteger).content != std::string_view("\0", 1)) {
    throw ParseError("certificate request is not version 1");
  }
  out->subject = der::take(fields, der::kSequence).encoding;
  out->spki = der::take(fields, der::kSequence).encoding;
  // The attributes are covered by the signature and otherwise unused.
  if (der::next_is(fields, der::kContext0)) {
    (void)der::take(fields, der::kContext0);
  }
  der::expect_end(fields, "certificate request info");
  return out;
}

const CertificateRequest::Encoding& CertificateRequest::encoding() const {
  if (encoding_ == nullptr) {
    throw Error(ErrorCode::kInternal, "empty CertificateRequest");
  }
  return *encoding_;
}

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

  unsigned char* der = nullptr;
  const int len = i2d_X509_REQ(req.get(), &der);
  if (len <= 0) crypto::throw_openssl("i2d_X509_REQ");
  std::string encoded(reinterpret_cast<char*>(der),
                      static_cast<std::size_t>(len));
  OPENSSL_free(der);

  CertificateRequest out;
  out.encoding_ = read(std::move(encoded));
  out.key_ = key;
  return out;
}

CertificateRequest CertificateRequest::from_pem(std::string_view pem) {
  crypto::BioPtr bio = crypto::memory_bio(pem);
  crypto::PemBlock block;
  while (true) {
    if (!block.read(bio.get())) {
      (void)crypto::drain_error_queue();
      throw ParseError("no certificate request found in PEM input");
    }
    if (std::strcmp(block.name, PEM_STRING_X509_REQ) == 0 ||
        std::strcmp(block.name, PEM_STRING_X509_REQ_OLD) == 0) {
      break;
    }
    block.clear();
  }
  CertificateRequest out;
  out.encoding_ = read(std::string(block.der_view()));
  out.key_ = crypto::KeyPair::from_public_der(out.encoding_->spki);
  return out;
}

std::string CertificateRequest::to_pem() const {
  const Encoding& e = encoding();
  crypto::BioPtr bio = crypto::memory_bio();
  if (PEM_write_bio(bio.get(), PEM_STRING_X509_REQ, "", bytes(e.der),
                    static_cast<long>(e.der.size())) <= 0) {  // NOLINT
    crypto::throw_openssl("PEM_write_bio(certificate request)");
  }
  return crypto::bio_to_string(bio.get());
}

DistinguishedName CertificateRequest::subject() const {
  const Encoding& e = encoding();
  const unsigned char* p = bytes(e.subject);
  crypto::X509NamePtr name(
      d2i_X509_NAME(nullptr, &p, static_cast<long>(e.subject.size())));
  if (name == nullptr) {
    (void)crypto::drain_error_queue();
    throw ParseError("unreadable certificate request subject");
  }
  return DistinguishedName::from_x509_name(name.get());
}

crypto::KeyPair CertificateRequest::public_key() const {
  (void)encoding();
  EVP_PKEY* key = key_.native();
  crypto::check(EVP_PKEY_up_ref(key), "EVP_PKEY_up_ref");
  return crypto::KeyPair::adopt(key, /*has_private=*/false);
}

bool CertificateRequest::verify() const {
  const Encoding& e = encoding();
  const unsigned char* p = bytes(e.algorithm);
  crypto::X509AlgorPtr algorithm(
      d2i_X509_ALGOR(nullptr, &p, static_cast<long>(e.algorithm.size())));
  p = bytes(e.signature);
  crypto::Asn1BitStringPtr signature(d2i_ASN1_BIT_STRING(
      nullptr, &p, static_cast<long>(e.signature.size())));
  return crypto::verify_signed_bytes(e.info, algorithm.get(), signature.get(),
                                     key_.native());
}

std::string_view CertificateRequest::spki_der() const {
  return encoding().spki;
}

}  // namespace myproxy::pki
