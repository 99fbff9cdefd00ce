#include "pki/certificate.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <utility>
#include <optional>

#include "common/error.hpp"
#include "common/mutation.hpp"
#include "crypto/openssl_util.hpp"
#include "pki/certificate_builder.hpp"
#include "pki/pki_fixtures.hpp"

namespace myproxy::pki {
namespace {

using testing::encoded_public_key;
using testing::make_identity;
using testing::make_proxy_cert;
using testing::spki_der;
using testing::test_ca;

TEST(Certificate, PemRoundTrip) {
  const auto alice = make_identity("pem-alice");
  const std::string pem = alice.cert.to_pem();
  EXPECT_NE(pem.find("BEGIN CERTIFICATE"), std::string::npos);
  const Certificate back = Certificate::from_pem(pem);
  EXPECT_EQ(back, alice.cert);
  EXPECT_EQ(back.fingerprint(), alice.cert.fingerprint());
}

TEST(Certificate, FromPemRejectsGarbage) {
  EXPECT_THROW(Certificate::from_pem("garbage"), ParseError);
  EXPECT_THROW(Certificate::chain_from_pem(""), ParseError);
}

TEST(Certificate, ChainPemRoundTrip) {
  const auto a = make_identity("chain-a");
  const auto b = make_identity("chain-b");
  const std::string pem = Certificate::chain_to_pem({a.cert, b.cert});
  const auto chain = Certificate::chain_from_pem(pem);
  ASSERT_EQ(chain.size(), 2u);
  EXPECT_EQ(chain[0], a.cert);
  EXPECT_EQ(chain[1], b.cert);
}

TEST(Certificate, SubjectIssuerAndSerial) {
  const auto alice = make_identity("subj-alice");
  EXPECT_EQ(alice.cert.subject(), alice.dn);
  EXPECT_EQ(alice.cert.issuer(), testing::ca_dn());
  EXPECT_FALSE(alice.cert.serial_hex().empty());
  // Serials must be unique across issues.
  const auto bob = make_identity("subj-bob");
  EXPECT_NE(alice.cert.serial_hex(), bob.cert.serial_hex());
}

TEST(Certificate, ValidityWindowAndRemainingLifetime) {
  const auto alice = make_identity("life-alice", Seconds(7200));
  EXPECT_FALSE(alice.cert.expired());
  EXPECT_GT(alice.cert.remaining_lifetime(), Seconds(7000));
  EXPECT_LE(alice.cert.remaining_lifetime(), Seconds(7200));
  // notBefore is backdated by the skew allowance.
  EXPECT_LT(alice.cert.not_before(), now());
}

TEST(Certificate, ExpiryFollowsVirtualClock) {
  const auto alice = make_identity("expire-alice", Seconds(3600));
  const ScopedClockAdvance warp(Seconds(4000));
  EXPECT_TRUE(alice.cert.expired());
}

TEST(Certificate, SignedByDetectsIssuer) {
  const auto alice = make_identity("signed-alice");
  EXPECT_TRUE(alice.cert.signed_by(test_ca().certificate()));
  const auto other_ca = CertificateAuthority::create(
      DistinguishedName::parse("/O=Other/CN=Other CA"), crypto::KeySpec::ec());
  EXPECT_FALSE(alice.cert.signed_by(other_ca.certificate()));
}

/// A DER element: `tag`, a definite length, `content`.
std::string der_element(unsigned char tag, std::string_view content) {
  std::string out(1, static_cast<char>(tag));
  const std::size_t n = content.size();
  if (n < 0x80) {
    out += static_cast<char>(n);
  } else if (n < 0x100) {
    out += '\x81';
    out += static_cast<char>(n);
  } else {
    out += '\x82';
    out += static_cast<char>(n >> 8);
    out += static_cast<char>(n & 0xFF);
  }
  out += content;
  return out;
}

/// Sizes of the header and of the whole DER element at the front of `in`.
std::pair<std::size_t, std::size_t> element_size(std::string_view in) {
  const auto octet = [in](std::size_t i) {
    return static_cast<std::size_t>(static_cast<unsigned char>(in[i]));
  };
  if (octet(1) < 0x80) return {2, 2 + octet(1)};
  const std::size_t octets = octet(1) & 0x7F;
  std::size_t length = 0;
  for (std::size_t i = 0; i < octets; ++i) length = (length << 8) | octet(2 + i);
  return {2 + octets, 2 + octets + length};
}

/// `cert` with its TBSCertificate passed through `edit` and signed again
/// by `key` (ECDSA with SHA-256), keeping the outer signatureAlgorithm.
Certificate resigned(const Certificate& cert, const crypto::KeyPair& key,
                     const std::function<void(std::string&)>& edit) {
  const std::string der = cert.der();
  std::string_view body = der;
  body.remove_prefix(element_size(body).first);
  std::string tbs(body.substr(0, element_size(body).second));
  body.remove_prefix(tbs.size());
  const std::string_view algorithm = body.substr(0, element_size(body).second);
  edit(tbs);
  const auto signature = crypto::sign(key, tbs);
  const std::string bits =
      std::string(1, '\0') + std::string(signature.begin(), signature.end());
  return Certificate::from_pem(mutation::pem_wrap(
      "CERTIFICATE",
      encoding::to_bytes(der_element(
          0x30, tbs + std::string(algorithm) + der_element(0x03, bits)))));
}

TEST(Certificate, SignedByRefusesMismatchedInnerAlgorithm) {
  // X509_verify refuses a certificate whose TBSCertificate names another
  // signature algorithm than the one its signature is checked under, even
  // when the signature over those bytes is good.
  const auto alice = make_identity("inner-alg-alice");
  const auto proxy_key = crypto::KeyPair::generate(crypto::KeySpec::ec());
  const Certificate proxy = make_proxy_cert(alice, proxy_key);
  const std::string ecdsa_sha256(
      "\x06\x08\x2a\x86\x48\xce\x3d\x04\x03\x02", 10);
  const Certificate same = resigned(proxy, alice.key, [](std::string&) {});
  EXPECT_TRUE(same.signed_by(alice.cert));
  const Certificate edited =
      resigned(proxy, alice.key, [&ecdsa_sha256](std::string& tbs) {
        const std::size_t at = tbs.find(ecdsa_sha256);
        ASSERT_NE(at, std::string::npos);
        tbs[at + ecdsa_sha256.size() - 1] = '\x03';  // ecdsa-with-SHA384
      });
  EXPECT_NE(edited.der(), same.der());
  EXPECT_FALSE(edited.signed_by(alice.cert));
}

TEST(Certificate, PublicKeyMatchesSubjectKey) {
  const auto alice = make_identity("pubkey-alice");
  EXPECT_TRUE(alice.cert.public_key().same_public_key(alice.key));
  EXPECT_FALSE(alice.cert.public_key().has_private());
}

TEST(Certificate, CaFlag) {
  EXPECT_TRUE(test_ca().certificate().is_ca());
  EXPECT_FALSE(make_identity("caflag-alice").cert.is_ca());
}

TEST(Certificate, ProxyTypeClassification) {
  const auto alice = make_identity("ptype-alice");
  const auto proxy_key = crypto::KeyPair::generate(crypto::KeySpec::ec());

  EXPECT_EQ(alice.cert.proxy_type(), ProxyType::kEndEntity);
  EXPECT_FALSE(alice.cert.is_proxy());

  const auto full = make_proxy_cert(alice, proxy_key, kProxyCn);
  EXPECT_EQ(full.proxy_type(), ProxyType::kFull);
  EXPECT_TRUE(full.is_proxy());

  const auto limited = make_proxy_cert(alice, proxy_key, kLimitedProxyCn);
  EXPECT_EQ(limited.proxy_type(), ProxyType::kLimited);

  // A cert whose final CN is not the proxy marker is an end entity.
  const auto odd = make_proxy_cert(alice, proxy_key, "server");
  EXPECT_EQ(odd.proxy_type(), ProxyType::kEndEntity);
}

TEST(Certificate, RestrictionPolicyExtension) {
  const auto alice = make_identity("policy-alice");
  const auto proxy_key = crypto::KeyPair::generate(crypto::KeySpec::ec());
  const auto policy = RestrictionPolicy::parse("rights=file-read,job-submit");

  const auto restricted =
      make_proxy_cert(alice, proxy_key, kProxyCn, Seconds(3600), policy);
  const auto text = restricted.restriction_policy();
  ASSERT_TRUE(text.has_value());
  EXPECT_EQ(RestrictionPolicy::parse(*text), policy);

  const auto plain = make_proxy_cert(alice, proxy_key);
  EXPECT_FALSE(plain.restriction_policy().has_value());
}

TEST(Certificate, ToStringOfProxyTypes) {
  EXPECT_EQ(to_string(ProxyType::kEndEntity), "end-entity");
  EXPECT_EQ(to_string(ProxyType::kFull), "proxy");
  EXPECT_EQ(to_string(ProxyType::kLimited), "limited proxy");
}

TEST(CertificateBuilder, RequiresMandatoryFields) {
  const auto key = crypto::KeyPair::generate(crypto::KeySpec::ec());
  CertificateBuilder builder;
  EXPECT_THROW((void)builder.sign(key), Error);  // missing subject/issuer
  builder.subject(DistinguishedName::parse("/CN=x"));
  builder.issuer(DistinguishedName::parse("/CN=y"));
  EXPECT_THROW((void)builder.sign(key), Error);  // missing public key
}

TEST(CertificateBuilder, RejectsBadLifetimes) {
  CertificateBuilder builder;
  EXPECT_THROW(builder.lifetime(Seconds(0)), PolicyError);
  EXPECT_THROW(builder.lifetime(Seconds(-5)), PolicyError);
  const TimePoint t = now();
  EXPECT_THROW(builder.validity(t, t), PolicyError);
}

TEST(CertificateBuilder, ExplicitSerialHonored) {
  const auto key = crypto::KeyPair::generate(crypto::KeySpec::ec());
  const auto cert = CertificateBuilder()
                        .subject(DistinguishedName::parse("/CN=serial"))
                        .issuer(DistinguishedName::parse("/CN=serial"))
                        .public_key(key)
                        .serial_hex("deadbeef")
                        .sign(key);
  EXPECT_EQ(cert.serial_hex(), "deadbeef");
}

TEST(CertificateBuilder, PublicKeyOfCopiesCsrSpki) {
  const auto issuer = make_identity("spki-issuer");
  for (const auto& spec :
       {crypto::KeySpec::ec(), crypto::KeySpec::rsa(1024)}) {
    const auto key = crypto::KeyPair::generate(spec);
    const auto csr = CertificateRequest::from_pem(
        CertificateRequest::create(DistinguishedName::parse("/CN=req"), key)
            .to_pem());
    ASSERT_TRUE(csr.verify());
    const std::string pem = CertificateBuilder()
                                .subject(issuer.dn.with_cn(kProxyCn))
                                .issuer(issuer.dn)
                                .public_key_of(csr)
                                .lifetime(Seconds(3600))
                                .sign_pem(issuer.key);
    const Certificate cert = Certificate::from_pem(pem);
    EXPECT_EQ(spki_der(cert), spki_der(csr));
    EXPECT_EQ(spki_der(cert), encoded_public_key(key));
    EXPECT_TRUE(cert.public_key().same_public_key(key));
    EXPECT_TRUE(cert.signed_by(issuer.cert));
    EXPECT_EQ(cert.proxy_type(), ProxyType::kFull);
  }
}

TEST(CertificateBuilder, CopiedKeyIsIssuedOnlyAsPem) {
  // A certificate carrying copied SPKI bytes has no decoded key, so the
  // builder never hands it out as an in-memory Certificate.
  const auto key = crypto::KeyPair::generate(crypto::KeySpec::ec());
  const auto csr =
      CertificateRequest::create(DistinguishedName::parse("/CN=req"), key);
  CertificateBuilder builder;
  builder.subject(DistinguishedName::parse("/CN=x"))
      .issuer(DistinguishedName::parse("/CN=x"))
      .public_key_of(csr);
  EXPECT_THROW((void)builder.sign(key), Error);
  EXPECT_NO_THROW((void)builder.sign_pem(key));
  // Setting a decoded key again re-enables sign().
  builder.public_key(key);
  EXPECT_NO_THROW((void)builder.sign(key));
}

// --- chain_from_pem: only a clean end of input ends the chain ---------------

std::string two_cert_chain() {
  const auto a = make_identity("cfp-leaf");
  const auto b = make_identity("cfp-issuer");
  return a.cert.to_pem() + b.cert.to_pem();
}

/// Offset of the first base64 character of the second certificate block.
std::size_t second_body(const std::string& pem) {
  const std::size_t second = pem.find("-----BEGIN", 1);
  return pem.find('\n', second) + 1;
}

TEST(ChainFromPem, CorruptSecondBlockThrows) {
  std::string pem = two_cert_chain();
  // 'M' encodes the leading 0x30 SEQUENCE tag; 'A' turns it into 0x00.
  const std::size_t at = second_body(pem);
  ASSERT_EQ(pem[at], 'M');
  pem[at] = 'A';
  EXPECT_THROW((void)Certificate::chain_from_pem(pem), ParseError);
}

TEST(ChainFromPem, InvalidBase64InSecondBlockThrows) {
  std::string pem = two_cert_chain();
  pem[second_body(pem) + 10] = '!';
  EXPECT_THROW((void)Certificate::chain_from_pem(pem), ParseError);
}

TEST(ChainFromPem, TruncatedSecondBlockThrows) {
  const std::string pem = two_cert_chain();
  // Cut inside the base64 body: BEGIN line present, END line missing.
  EXPECT_THROW(
      (void)Certificate::chain_from_pem(pem.substr(0, second_body(pem) + 70)),
      ParseError);
  // Cut just before the END line.
  EXPECT_THROW((void)Certificate::chain_from_pem(
                   pem.substr(0, pem.rfind("-----END"))),
               ParseError);
}

TEST(ChainFromPem, TrailingWhitespaceAccepted) {
  const std::string pem = two_cert_chain();
  for (const std::string tail : {"", "\n", "\n\n  \n", "\r\n\t"}) {
    const auto chain = Certificate::chain_from_pem(pem + tail);
    EXPECT_EQ(chain.size(), 2U);
  }
}

TEST(ChainFromPem, OtherBlocksAndTextBetweenCertificatesSkipped) {
  // Credential files interleave a key block; CA files append text lines.
  const auto a = make_identity("cfp-skip-a");
  const auto b = make_identity("cfp-skip-b");
  const std::string pem = a.cert.to_pem() + a.key.private_pem().str() +
                          b.cert.to_pem() + "revoked 01ab\n";
  const auto chain = Certificate::chain_from_pem(pem);
  ASSERT_EQ(chain.size(), 2U);
  EXPECT_EQ(chain[1], b.cert);
}


// --- chain_from_pem with known certificates -----------------------------------

/// DER of every certificate block in `pem`, read as chain_from_pem reads.
std::vector<std::string> certificate_blocks(const std::string& pem) {
  crypto::BioPtr bio = crypto::memory_bio(pem);
  std::vector<std::string> out;
  crypto::PemBlock block;
  while (block.read(bio.get())) {
    if (std::strcmp(block.name, "CERTIFICATE") == 0 ||
        std::strcmp(block.name, "X509 CERTIFICATE") == 0) {
      out.emplace_back(block.der_view());
    }
    block.clear();
  }
  (void)crypto::drain_error_queue();
  return out;
}

TEST(ChainFromPem, KnownCertificatesAreSharedNotParsed) {
  const auto leaf = make_identity("cfp-known-leaf");
  const auto issuer = make_identity("cfp-known-issuer");
  const auto other = make_identity("cfp-known-other");
  const std::string pem =
      leaf.cert.to_pem() + leaf.key.private_pem().str() + issuer.cert.to_pem();
  const std::vector<Certificate> known = {issuer.cert, other.cert};

  const auto chain = Certificate::chain_from_pem(pem, known);
  ASSERT_EQ(chain.size(), 2U);
  EXPECT_NE(chain[0].native(), leaf.cert.native());  // parsed
  EXPECT_EQ(chain[0], leaf.cert);
  EXPECT_EQ(chain[1].native(), issuer.cert.native());  // shared
  // No known certificates, or none byte-identical: everything is parsed.
  for (const auto& parsed :
       {Certificate::chain_from_pem(pem),
        Certificate::chain_from_pem(pem, std::vector{other.cert})}) {
    ASSERT_EQ(parsed.size(), 2U);
    EXPECT_NE(parsed[1].native(), issuer.cert.native());
    EXPECT_EQ(parsed[1], issuer.cert);
  }
}

TEST(ChainFromPem, TrailingBytesInsideABlockThrow) {
  const auto a = make_identity("cfp-trailing");
  auto der = mutation::pem_body(a.cert.to_pem());
  der.push_back(0x00);
  EXPECT_THROW(
      (void)Certificate::chain_from_pem(mutation::pem_wrap("CERTIFICATE", der)),
      ParseError);
  EXPECT_THROW((void)Certificate::chain_from_pem(
                   mutation::pem_wrap("CERTIFICATE", der),
                   std::vector{a.cert}),
               ParseError);
}

TEST(ChainFromPem, BerInsideTheTbsCertificateThrows) {
  // d2i_X509 keeps the TBSCertificate's bytes as they arrived and writes
  // them back unchanged, so BER there used to pass the canonical check.
  // The reader re-encodes the whole certificate, so it is refused too.
  const auto a = make_identity("cfp-ber-tbs");
  const std::string der = a.cert.der();
  std::string_view body = der;
  body.remove_prefix(element_size(body).first);
  const std::string_view tbs = body.substr(0, element_size(body).second);
  std::string fields(tbs.substr(element_size(tbs).first));
  const std::size_t serial = element_size(fields).second;  // after version
  ASSERT_EQ(fields[serial], '\x02');
  fields.insert(serial + 1, 1, '\x81');  // a long-form length below 128
  const std::string ber = der_element(
      0x30, der_element(0x30, fields) + std::string(body.substr(tbs.size())));

  const auto* in = reinterpret_cast<const unsigned char*>(ber.data());
  const crypto::X509Ptr x(
      d2i_X509(nullptr, &in, static_cast<long>(ber.size())));
  ASSERT_NE(x, nullptr);
  unsigned char* out = nullptr;
  const int len = i2d_X509(x.get(), &out);
  EXPECT_EQ(std::string(reinterpret_cast<char*>(out),
                        static_cast<std::size_t>(len)),
            ber);
  OPENSSL_free(out);
  EXPECT_THROW((void)Certificate::chain_from_pem(mutation::pem_wrap(
                   "CERTIFICATE", encoding::to_bytes(ber))),
               ParseError);
}

TEST(ChainFromPem, KnownChainSurvivesMutations) {
  // Half the cases mutate one certificate's DER under intact armour, half
  // the credential PEM's text. Whatever parses must be exactly its blocks,
  // and a known certificate is handed out only for its own bytes.
  const auto leaf = make_identity("cfp-mut-leaf");
  const auto issuer = make_identity("cfp-mut-issuer");
  const auto donor = make_identity("cfp-mut-donor");
  const std::string leaf_pem = leaf.cert.to_pem();
  const std::string key_pem = leaf.key.private_pem().str();
  const std::string issuer_pem = issuer.cert.to_pem();
  const std::string pem = leaf_pem + key_pem + issuer_pem;
  const auto leaf_der = mutation::pem_body(leaf_pem);
  const auto issuer_der = mutation::pem_body(issuer_pem);
  const auto text = encoding::to_bytes(pem);
  const auto donor_text = encoding::to_bytes(donor.cert.to_pem() + key_pem);
  const std::vector<Certificate> known = {leaf.cert, issuer.cert};
  const std::vector<std::string> known_der = {leaf.cert.der(),
                                              issuer.cert.der()};

  int parsed = 0;
  int refused = 0;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    std::string input;
    if (i % 2 == 0) {
      const bool first = (i % 4) == 0;
      const std::string mutated = mutation::pem_wrap(
          "CERTIFICATE", mutation::mutate(first ? leaf_der : issuer_der,
                                          first ? issuer_der : leaf_der, i));
      input = first ? mutated + key_pem + issuer_pem
                    : leaf_pem + key_pem + mutated;
    } else {
      input = encoding::to_string(mutation::mutate(text, donor_text, i));
    }
    std::vector<Certificate> chain;
    try {
      chain = Certificate::chain_from_pem(input, known);
    } catch (const ParseError&) {
      ++refused;
      continue;
    }
    ++parsed;
    const auto blocks = certificate_blocks(input);
    ASSERT_EQ(chain.size(), blocks.size()) << "case " << i;
    for (std::size_t j = 0; j < chain.size(); ++j) {
      EXPECT_EQ(chain[j].der(), blocks[j]) << "case " << i << " cert " << j;
      for (std::size_t k = 0; k < known.size(); ++k) {
        EXPECT_EQ(chain[j].native() == known[k].native(),
                  blocks[j] == known_der[k])
            << "case " << i << " cert " << j << " known " << k;
      }
    }
  }
  EXPECT_EQ(parsed + refused, 1000);
  EXPECT_GT(parsed, 0);
  EXPECT_GT(refused, 500);
}

/// What `read` returns, or "threw" if it throws a ParseError or
/// CryptoError; anything else escapes and fails the test.
std::string outcome(const std::function<std::string()>& read) {
  try {
    return read();
  } catch (const ParseError&) {
    return "threw";
  } catch (const CryptoError&) {
    return "threw";
  }
}

/// Every view of `cert`, each as text.
std::vector<std::string> views(const Certificate& cert) {
  return {
      outcome([&] { return cert.subject().str(); }),
      outcome([&] { return cert.issuer().str(); }),
      outcome([&] { return std::to_string(to_unix(cert.not_before())); }),
      outcome([&] { return std::to_string(to_unix(cert.not_after())); }),
      outcome([&] { return cert.serial_hex(); }),
      outcome([&] { return std::string(to_string(cert.proxy_type())); }),
      outcome([&] { return cert.restriction_policy().value_or("(none)"); }),
      outcome([&] { return std::string(cert.is_ca() ? "ca" : "not ca"); }),
  };
}

TEST(ChainFromPem, ParsesOnlyWhatX509Accepts) {
  // The reader decodes certificates without their subject key. Over
  // mutations of a proxy credential, whatever it accepts d2i_X509 accepts
  // with the same bytes, every view reads as from the X509, and the key and
  // signature either agree with OpenSSL's or are refused.
  const auto alice = make_identity("cfp-x509-alice");
  const auto proxy_key = crypto::KeyPair::generate(crypto::KeySpec::ec());
  const Certificate proxy =
      make_proxy_cert(alice, proxy_key, kProxyCn, Seconds(3600),
                      RestrictionPolicy::parse("rights=file-read"));
  const std::string key_pem = proxy_key.private_pem().str();
  const auto proxy_der = mutation::pem_body(proxy.to_pem());
  const auto eec_der = mutation::pem_body(alice.cert.to_pem());

  int parsed = 0;
  int refused = 0;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    const bool leaf = (i % 2) == 0;
    const std::string mutated = mutation::pem_wrap(
        "CERTIFICATE", mutation::mutate(leaf ? proxy_der : eec_der,
                                        leaf ? eec_der : proxy_der, i));
    const std::string input =
        leaf ? mutated + key_pem + alice.cert.to_pem()
             : proxy.to_pem() + key_pem + mutated;
    std::vector<Certificate> chain;
    try {
      chain = Certificate::chain_from_pem(input);
    } catch (const ParseError&) {
      ++refused;
      continue;
    }
    ++parsed;
    ASSERT_EQ(chain.size(), 2U) << "case " << i;
    chain.push_back(test_ca().certificate());
    std::vector<Certificate> oracle;
    for (const auto& cert : chain) {
      const std::string& der = cert.der();
      const auto* p = reinterpret_cast<const unsigned char*>(der.data());
      X509* x = d2i_X509(nullptr, &p, static_cast<long>(der.size()));
      ASSERT_NE(x, nullptr) << "case " << i << ": d2i_X509 refuses";
      ASSERT_EQ(p, reinterpret_cast<const unsigned char*>(der.data()) +
                       der.size())
          << "case " << i;
      oracle.push_back(Certificate::adopt(x));
      EXPECT_EQ(oracle.back().der(), der) << "case " << i;
      EXPECT_EQ(views(cert), views(oracle.back())) << "case " << i;
    }
    for (std::size_t j = 0; j < 2; ++j) {
      EVP_PKEY* x509_key = X509_get0_pubkey(oracle[j].native());
      (void)crypto::drain_error_queue();
      try {
        const crypto::KeyPair key = chain[j].public_key();
        ASSERT_NE(x509_key, nullptr) << "case " << i << " cert " << j;
        EXPECT_EQ(EVP_PKEY_eq(key.native(), x509_key), 1)
            << "case " << i << " cert " << j;
      } catch (const CryptoError&) {
      }
      EVP_PKEY* issuer_key = X509_get0_pubkey(oracle[j + 1].native());
      const bool x509_verifies =
          issuer_key != nullptr &&
          X509_verify(oracle[j].native(), issuer_key) == 1;
      (void)crypto::drain_error_queue();
      try {
        EXPECT_EQ(chain[j].signed_by(chain[j + 1]), x509_verifies)
            << "case " << i << " cert " << j;
      } catch (const CryptoError&) {
      }
    }
  }
  EXPECT_EQ(parsed + refused, 1000);
  EXPECT_GT(parsed, 50);
  EXPECT_GT(refused, 500);
}

}  // namespace
}  // namespace myproxy::pki
