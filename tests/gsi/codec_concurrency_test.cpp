// Key import, CSR creation and proxy signing from many threads at once.
// Each thread decodes private keys with its own OpenSSL decoder context;
// these suites interleave every per-request key path so that a context
// shared by mistake, or a decoded key left behind in one, shows up as a
// wrong key or a failed verification (and as a race under TSan).
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
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

}  // namespace
}  // namespace myproxy::gsi
