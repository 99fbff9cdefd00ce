#include "pki/certificate.hpp"

#include <gtest/gtest.h>

#include <cstring>

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

}  // namespace
}  // namespace myproxy::pki
