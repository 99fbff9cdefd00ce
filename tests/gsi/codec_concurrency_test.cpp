// Key import, CSR creation and parsing, and proxy signing from many threads
// at once. Each thread decodes private keys and SubjectPublicKeyInfos with
// its own OpenSSL decoder contexts;
// these suites interleave every per-request key path so that a context
// shared by mistake, or a decoded key left behind in one, shows up as a
// wrong key or a failed verification (and as a race under TSan).
#include <gtest/gtest.h>
#include <openssl/x509.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/mutation.hpp"
#include "gsi/gsi_fixtures.hpp"
#include "gsi/proxy.hpp"
#include "pki/trust_store.hpp"

namespace myproxy::gsi {
namespace {

using testing::make_trust_store;
using testing::make_user;

constexpr int kThreads = 8;
constexpr int kRounds = 12;

struct StoredKey {
  crypto::KeyPair key;
  std::string pem;
  std::string pass;
};

TEST(CodecConcurrency, InterleavedImportDelegateAndSignAllVerify) {
  const Credential alice = make_user("codec-alice");
  const pki::TrustStore store = make_trust_store();

  // Keys in every stored form the server and tools import.
  std::vector<StoredKey> stored;
  for (int i = 0; i < 4; ++i) {
    const auto key = crypto::KeyPair::generate(
        i == 3 ? crypto::KeySpec::rsa(1024) : crypto::KeySpec::ec());
    stored.push_back({key, key.private_pem().str(), ""});
    stored.push_back(
        {key, key.private_pem_encrypted("codec phrase"), "codec phrase"});
  }
  const std::string credential_pem = alice.to_pem().str();

  std::atomic<int> failures{0};
  std::atomic<int> verified{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      try {
        for (int r = 0; r < kRounds; ++r) {
          const auto& s = stored[static_cast<std::size_t>(t + r) %
                                 stored.size()];
          const auto imported = crypto::KeyPair::from_private_pem(s.pem, s.pass);
          if (!imported.same_public_key(s.key)) ++failures;

          const Credential reloaded = Credential::from_pem(credential_pem);
          if (!reloaded.key().same_public_key(alice.key())) ++failures;

          DelegationRequest request = begin_delegation();
          const std::string chain_pem =
              delegate_credential(reloaded, request.csr_pem);
          const Credential delegated =
              complete_delegation(std::move(request.key), chain_pem);
          if (!(store.verify(delegated.full_chain()).identity ==
                alice.identity())) {
            ++failures;
          }
          ++verified;
        }
      } catch (const std::exception& e) {
        ADD_FAILURE() << "thread " << t << ": " << e.what();
        ++failures;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(verified.load(), kThreads * kRounds);
}

TEST(CodecConcurrency, ThreadsWithFailedDecodesDoNotDisturbOthers) {
  // Half the threads feed corrupt keys (each failure rebuilds that thread's
  // decoder); the other half must keep importing correctly throughout.
  const auto key = crypto::KeyPair::generate(crypto::KeySpec::ec());
  const std::string good = key.private_pem().str();
  std::string bad = good;
  bad[bad.find('\n') + 5] ^= 0x01;

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < 4 * kRounds; ++r) {
        if (t % 2 == 0) {
          try {
            (void)crypto::KeyPair::from_private_pem(bad);
          } catch (const Error&) {
            // expected: a typed refusal
          }
        }
        try {
          if (!crypto::KeyPair::from_private_pem(good).same_public_key(key)) {
            ++failures;
          }
        } catch (const std::exception&) {
          ++failures;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}


/// `pem` with the first occurrence of `oid` (DER, tag and length included)
/// changed in its last byte: the request stays well-formed DER, but its
/// key's algorithm is one no decoder knows.
std::string with_unknown_key_algorithm(const std::string& pem,
                                       const encoding::Bytes& oid) {
  auto der = mutation::pem_body(pem);
  const auto at = std::search(der.begin(), der.end(), oid.begin(), oid.end());
  EXPECT_NE(at, der.end());
  *(at + static_cast<long>(oid.size()) - 1) = 0x7F;
  return mutation::pem_wrap("CERTIFICATE REQUEST", der);
}

TEST(CodecConcurrency, PublicKeyDecodesRecoverFromFailedOnes) {
  // Four threads parse EC and RSA requests, each good parse right after a
  // failed public-key decode or a mutated request on the same thread. A
  // failure rebuilds that thread's decoder; the next request must still
  // yield its own key and verify.
  struct Csr {
    crypto::KeyPair key;
    std::string pem;
    std::string undecodable;
  };
  const encoding::Bytes ec_oid = {0x06, 0x07, 0x2A, 0x86, 0x48,
                                  0xCE, 0x3D, 0x02, 0x01};
  const encoding::Bytes rsa_oid = {0x06, 0x09, 0x2A, 0x86, 0x48, 0x86,
                                   0xF7, 0x0D, 0x01, 0x01, 0x01};
  std::vector<Csr> csrs;
  for (int i = 0; i < 4; ++i) {
    const bool rsa = i == 3;
    DelegationRequest request =
        begin_delegation(rsa ? crypto::KeySpec::rsa(1024)
                             : crypto::KeySpec::ec());
    const std::string undecodable = with_unknown_key_algorithm(
        request.csr_pem, rsa ? rsa_oid : ec_oid);
    csrs.push_back({request.key, request.csr_pem, undecodable});
  }
  constexpr int kCsrThreads = 4;
  std::atomic<int> failures{0};
  std::atomic<int> refused{0};
  std::vector<std::thread> threads;
  threads.reserve(kCsrThreads);
  for (int t = 0; t < kCsrThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint32_t r = 0; r < 8 * kRounds; ++r) {
        const Csr& csr = csrs[(t + r) % csrs.size()];
        const Csr& donor = csrs[(t + r + 1) % csrs.size()];
        std::string hostile = csr.undecodable;
        if (r % 2 == 1) {
          hostile = mutation::pem_wrap(
              "CERTIFICATE REQUEST",
              mutation::mutate(mutation::pem_body(csr.pem),
                               mutation::pem_body(donor.pem),
                               static_cast<std::uint32_t>(t) * 1000 + r));
        }
        try {
          (void)pki::CertificateRequest::from_pem(hostile).verify();
        } catch (const Error&) {
          ++refused;
        }
        try {
          const auto parsed = pki::CertificateRequest::from_pem(csr.pem);
          if (!parsed.public_key().same_public_key(csr.key) ||
              !parsed.verify()) {
            ++failures;
          }
        } catch (const std::exception&) {
          ++failures;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  // Every unknown-algorithm request is refused at its key decode.
  EXPECT_GE(refused.load(), kCsrThreads * 4 * kRounds);
}

TEST(CodecConcurrency, LazyKeyAndX509BuiltOnce) {
  // A certificate read from PEM decodes its key and builds its X509 on
  // first use. Four threads race to that first use on one shared
  // certificate (as on a trust root): each must see the one key and the one
  // X509, and the signature must verify on every thread.
  const Credential alice = make_user("codec-lazy-alice");
  const auto chain = pki::Certificate::chain_from_pem(
      alice.certificate_chain_pem());
  ASSERT_EQ(chain.size(), 1U);
  const pki::Certificate& shared = chain.front();
  const pki::Certificate issuer =
      pki::Certificate::from_pem(testing::test_ca().certificate().to_pem());

  constexpr int kLazyThreads = 4;
  std::vector<EVP_PKEY*> keys(kLazyThreads, nullptr);
  std::vector<X509*> x509s(kLazyThreads, nullptr);
  std::atomic<int> ready{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kLazyThreads);
  for (int t = 0; t < kLazyThreads; ++t) {
    threads.emplace_back([&, t] {
      ++ready;
      while (ready.load() < kLazyThreads) {
      }
      try {
        // Half the threads take the X509 first, half the key.
        if (t % 2 == 0) x509s[t] = shared.native();
        keys[t] = shared.public_key().native();
        if (!shared.signed_by(issuer)) ++failures;
        x509s[t] = shared.native();
      } catch (const std::exception& e) {
        ADD_FAILURE() << "thread " << t << ": " << e.what();
        ++failures;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  for (int t = 0; t < kLazyThreads; ++t) {
    EXPECT_EQ(keys[t], keys[0]);
    EXPECT_EQ(x509s[t], x509s[0]);
  }
  EXPECT_TRUE(shared.public_key().same_public_key(alice.key()));
  EXPECT_EQ(X509_cmp(x509s[0], alice.certificate().native()), 0);
}

}  // namespace
}  // namespace myproxy::gsi
