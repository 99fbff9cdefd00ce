#include "gsi/proxy.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/mutation.hpp"
#include "gsi/gsi_fixtures.hpp"
#include "pki/pki_fixtures.hpp"
#include "pki/trust_store.hpp"

namespace myproxy::gsi {
namespace {

using testing::make_trust_store;
using testing::make_user;

TEST(CreateProxy, ProducesVerifiableProxy) {
  const auto alice = make_user("px-alice");
  const auto proxy = create_proxy(alice);
  EXPECT_TRUE(proxy.is_proxy());
  EXPECT_EQ(proxy.delegation_depth(), 1u);
  EXPECT_EQ(proxy.identity(), alice.identity());
  EXPECT_EQ(proxy.subject(), alice.subject().with_cn(pki::kProxyCn));

  const auto store = make_trust_store();
  const auto id = store.verify(proxy.full_chain());
  EXPECT_EQ(id.identity, alice.identity());
  EXPECT_EQ(id.proxy_depth, 1u);
}

TEST(CreateProxy, LimitedProxy) {
  const auto alice = make_user("px-lim-alice");
  ProxyOptions opts;
  opts.limited = true;
  const auto proxy = create_proxy(alice, opts);
  EXPECT_EQ(proxy.certificate().proxy_type(), pki::ProxyType::kLimited);
  const auto store = make_trust_store();
  EXPECT_TRUE(store.verify(proxy.full_chain()).limited);
}

TEST(CreateProxy, RestrictedProxyCarriesPolicy) {
  const auto alice = make_user("px-res-alice");
  ProxyOptions opts;
  opts.restriction = pki::RestrictionPolicy::parse("rights=job-submit");
  const auto proxy = create_proxy(alice, opts);
  const auto store = make_trust_store();
  const auto id = store.verify(proxy.full_chain());
  ASSERT_TRUE(id.policy.has_value());
  EXPECT_TRUE(id.policy->allows("job-submit"));
  EXPECT_FALSE(id.policy->allows("file-read"));
}

TEST(CreateProxy, LifetimeClampedToIssuer) {
  const auto alice = make_user("px-clamp-alice", Seconds(3600));
  ProxyOptions opts;
  opts.lifetime = Seconds(24L * 3600);  // asks for more than Alice has
  const auto proxy = create_proxy(alice, opts);
  EXPECT_LE(proxy.certificate().not_after(),
            alice.certificate().not_after());
  // The clamped proxy must still verify (nesting holds by construction).
  const auto store = make_trust_store();
  EXPECT_NO_THROW((void)store.verify(proxy.full_chain()));
}

TEST(CreateProxy, ChainedProxiesVerify) {
  const auto alice = make_user("px-chain-alice");
  const auto hop1 = create_proxy(alice);
  ProxyOptions shorter;
  shorter.lifetime = Seconds(1800);
  const auto hop2 = create_proxy(hop1, shorter);
  EXPECT_EQ(hop2.delegation_depth(), 2u);
  EXPECT_EQ(hop2.identity(), alice.identity());

  const auto store = make_trust_store();
  const auto id = store.verify(hop2.full_chain());
  EXPECT_EQ(id.proxy_depth, 2u);
  EXPECT_EQ(id.identity, alice.identity());
}

TEST(CreateProxy, RejectsNonPositiveLifetime) {
  const auto alice = make_user("px-zero-alice");
  ProxyOptions opts;
  opts.lifetime = Seconds(0);
  EXPECT_THROW((void)create_proxy(alice, opts), PolicyError);
}

TEST(CreateProxy, RejectsExpiredIssuer) {
  const auto alice = make_user("px-expired-alice", Seconds(60));
  const ScopedClockAdvance warp(Seconds(600));
  EXPECT_THROW((void)create_proxy(alice), ExpiredError);
}

TEST(CreateProxy, RsaProxyKeysSupported) {
  const auto alice = make_user("px-rsa-alice");
  ProxyOptions opts;
  opts.key_spec = crypto::KeySpec::rsa(1024);
  const auto proxy = create_proxy(alice, opts);
  EXPECT_EQ(proxy.key().type(), crypto::KeyType::kRsa);
  const auto store = make_trust_store();
  EXPECT_NO_THROW((void)store.verify(proxy.full_chain()));
}

TEST(Delegation, FullHandshakeRoundTrip) {
  // Paper §2.4 / Figures 1-2: receiver generates the key; only CSR and
  // certificates travel.
  const auto alice = make_user("dg-alice");

  DelegationRequest request = begin_delegation();          // receiver
  const std::string chain_pem =
      delegate_credential(alice, request.csr_pem);         // sender
  const Credential delegated =
      complete_delegation(std::move(request.key), chain_pem);  // receiver

  EXPECT_TRUE(delegated.is_proxy());
  EXPECT_EQ(delegated.identity(), alice.identity());
  const auto store = make_trust_store();
  EXPECT_EQ(store.verify(delegated.full_chain()).identity, alice.identity());
}

TEST(Delegation, ChainedThroughIntermediary) {
  // Alice delegates to the repository; the repository delegates onward to a
  // portal — exactly the MyProxy store-then-retrieve shape.
  const auto alice = make_user("dg-chain-alice");

  DelegationRequest to_repo = begin_delegation();
  const Credential repo_cred = complete_delegation(
      std::move(to_repo.key), delegate_credential(alice, to_repo.csr_pem));

  DelegationRequest to_portal = begin_delegation();
  ProxyOptions opts;
  opts.lifetime = Seconds(3600);
  const Credential portal_cred =
      complete_delegation(std::move(to_portal.key),
                          delegate_credential(repo_cred, to_portal.csr_pem,
                                              opts));

  EXPECT_EQ(portal_cred.delegation_depth(), 2u);
  EXPECT_EQ(portal_cred.identity(), alice.identity());
  const auto store = make_trust_store();
  EXPECT_NO_THROW((void)store.verify(portal_cred.full_chain()));
}

TEST(Delegation, SenderIgnoresCsrSubject) {
  // A malicious receiver cannot choose its own identity: the proxy subject
  // comes from the sender's DN, not the CSR.
  const auto alice = make_user("dg-subj-alice");
  auto key = crypto::KeyPair::generate(crypto::KeySpec::ec());
  const auto evil_csr = pki::CertificateRequest::create(
      pki::DistinguishedName::parse("/O=Grid/CN=president"), key);
  const std::string chain_pem =
      delegate_credential(alice, evil_csr.to_pem());
  const Credential got = complete_delegation(std::move(key), chain_pem);
  EXPECT_EQ(got.subject(), alice.subject().with_cn(pki::kProxyCn));
  EXPECT_EQ(got.identity(), alice.identity());
}

TEST(Delegation, RejectsTamperedCsr) {
  const auto alice = make_user("dg-tamper-alice");
  EXPECT_THROW((void)delegate_credential(alice, "not a csr"), ParseError);
}

TEST(Delegation, CompleteRejectsWrongKey) {
  const auto alice = make_user("dg-wrongkey-alice");
  DelegationRequest request = begin_delegation();
  const std::string chain_pem = delegate_credential(alice, request.csr_pem);
  auto other_key = crypto::KeyPair::generate(crypto::KeySpec::ec());
  EXPECT_THROW((void)complete_delegation(std::move(other_key), chain_pem),
               VerificationError);
}

TEST(Delegation, CompleteRejectsChainWithoutIssuers) {
  const auto alice = make_user("dg-noissuer-alice");
  DelegationRequest request = begin_delegation();
  const std::string chain_pem = delegate_credential(alice, request.csr_pem);
  // Keep only the first certificate (the new proxy).
  const auto certs = pki::Certificate::chain_from_pem(chain_pem);
  EXPECT_THROW((void)complete_delegation(std::move(request.key),
                                         certs.front().to_pem()),
               VerificationError);
}

TEST(Delegation, CompleteRejectsNonProxyLeaf) {
  const auto alice = make_user("dg-nonproxy-alice");
  // Hand the receiver a chain whose leaf is a long-term cert it has no key
  // for — both checks (key match first) must fail loudly.
  auto key = crypto::KeyPair::generate(crypto::KeySpec::ec());
  EXPECT_THROW(
      (void)complete_delegation(std::move(key),
                                alice.certificate_chain_pem()),
      VerificationError);
}

TEST(Delegation, DelegatedLifetimeClamped) {
  const auto alice = make_user("dg-clamp-alice", Seconds(7200));
  DelegationRequest request = begin_delegation();
  ProxyOptions opts;
  opts.lifetime = Seconds(14L * 24 * 3600);
  const Credential got = complete_delegation(
      std::move(request.key),
      delegate_credential(alice, request.csr_pem, opts));
  EXPECT_LE(got.certificate().not_after(), alice.certificate().not_after());
}

// --- The issued proxy carries the CSR's SubjectPublicKeyInfo bytes -----------

struct SpkiCase {
  const char* name;
  crypto::KeySpec spec;
  bool limited;
  bool restricted;
};

TEST(Delegation, ProxySpkiEqualsCsrSpki) {
  const auto alice = make_user("dg-spki-alice");
  const auto store = make_trust_store();
  const SpkiCase cases[] = {
      {"ec full", crypto::KeySpec::ec(), false, false},
      {"ec limited", crypto::KeySpec::ec(), true, false},
      {"ec restricted", crypto::KeySpec::ec(), false, true},
      {"rsa full", crypto::KeySpec::rsa(1024), false, false},
      {"rsa limited", crypto::KeySpec::rsa(1024), true, false},
      {"rsa restricted", crypto::KeySpec::rsa(1024), false, true},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    DelegationRequest request = begin_delegation(c.spec);
    ProxyOptions opts;
    opts.limited = c.limited;
    if (c.restricted) {
      opts.restriction = pki::RestrictionPolicy::parse("rights=job-submit");
    }
    const std::string chain_pem =
        delegate_credential(alice, request.csr_pem, opts);
    const auto leaf = pki::Certificate::chain_from_pem(chain_pem).front();
    const auto csr = pki::CertificateRequest::from_pem(request.csr_pem);
    EXPECT_EQ(pki::testing::spki_der(leaf), pki::testing::spki_der(csr));
    EXPECT_EQ(pki::testing::spki_der(leaf),
              pki::testing::encoded_public_key(request.key));

    const Credential got =
        complete_delegation(std::move(request.key), chain_pem);
    const auto id = store.verify(got.full_chain());
    EXPECT_EQ(id.identity, alice.identity());
    EXPECT_EQ(id.limited, c.limited);
    EXPECT_EQ(id.policy.has_value(), c.restricted);
  }
}

TEST(Delegation, ForeignEd25519CsrIsSigned) {
  // A receiver built on another toolkit may bring an Ed25519 key: its CSR
  // proves possession, the proxy carries its key, and the chain verifies.
  const auto alice = make_user("dg-ed25519-alice");
  EVP_PKEY* raw = EVP_PKEY_Q_keygen(nullptr, nullptr, "ED25519");
  ASSERT_NE(raw, nullptr);
  auto key = crypto::KeyPair::adopt(raw, /*has_private=*/true);
  const std::string csr_pem =
      pki::testing::openssl_signed_csr_pem(key.native(), nullptr);
  const std::string chain_pem = delegate_credential(alice, csr_pem);
  const auto leaf = pki::Certificate::chain_from_pem(chain_pem).front();
  EXPECT_EQ(pki::testing::spki_der(leaf),
            pki::testing::encoded_public_key(key));
  const Credential got = complete_delegation(std::move(key), chain_pem);
  const auto id = make_trust_store().verify(got.full_chain());
  EXPECT_EQ(id.identity, alice.identity());
}

// --- Hostile CSRs ---------------------------------------------------------------

TEST(Delegation, MutatedCsrEitherSignsOrThrowsTypedError) {
  // Half the cases mutate the CSR's DER under intact PEM armour (reaching
  // the ASN.1 and signature checks), half mutate the PEM text itself.
  const auto alice = make_user("dg-hostile-alice");
  const std::string ec_pem = begin_delegation().csr_pem;
  const std::string rsa_pem =
      begin_delegation(crypto::KeySpec::rsa(1024)).csr_pem;
  const auto ec_der = mutation::pem_body(ec_pem);
  const auto rsa_der = mutation::pem_body(rsa_pem);
  const auto ec_text = encoding::to_bytes(ec_pem);
  const auto rsa_text = encoding::to_bytes(rsa_pem);
  int signed_count = 0;
  int refused = 0;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    const bool ec = (i % 4) < 2;
    const bool der = (i % 2) == 0;
    std::string csr_pem;
    if (der) {
      csr_pem = mutation::pem_wrap(
          "CERTIFICATE REQUEST",
          mutation::mutate(ec ? ec_der : rsa_der, ec ? rsa_der : ec_der, i));
    } else {
      csr_pem = encoding::to_string(mutation::mutate(
          ec ? ec_text : rsa_text, ec ? rsa_text : ec_text, i));
    }
    try {
      const std::string chain_pem = delegate_credential(alice, csr_pem);
      // Whatever was signed carries exactly the SPKI the CSR proved.
      const auto leaf = pki::Certificate::chain_from_pem(chain_pem).front();
      EXPECT_EQ(pki::testing::spki_der(leaf),
                pki::testing::spki_der(
                    pki::CertificateRequest::from_pem(csr_pem)))
          << "case " << i;
      EXPECT_TRUE(leaf.signed_by(alice.certificate())) << "case " << i;
      ++signed_count;
    } catch (const Error&) {
      ++refused;
    }
    // A valid delegation on the same thread must still work.
    if (i % 50 == 0) {
      DelegationRequest request = begin_delegation();
      ASSERT_NO_THROW((void)complete_delegation(
          std::move(request.key), delegate_credential(alice, request.csr_pem)))
          << "valid delegation failed after case " << i;
    }
  }
  EXPECT_EQ(signed_count + refused, 1000);
  EXPECT_GT(refused, 500);
}

}  // namespace
}  // namespace myproxy::gsi
