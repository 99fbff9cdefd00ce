// CRYPTO — primitive costs underlying §2.1/§2.3 credential mechanics.
//
// Explains the FIG1/FIG2 shapes: proxy operations (signing, verification)
// are orders of magnitude cheaper than long-term RSA key generation, which
// is why short-lived proxies with fresh keys are affordable while long-term
// keys are provisioned yearly.
//
// Series reported:
//   BM_Crypto_KeyGen/<type>     — RSA-512/1024/2048/3072 + EC-P256 keygen
//   BM_Crypto_Sign, _Verify     — SHA-256 signatures per key type
//   BM_Crypto_ProxySign         — proxy issuance for a verified CSR
//   BM_Crypto_ChainVerify/<d>   — chain verification vs delegation depth
//
// Key and certificate codecs, at 1 and 4 threads (items/s is the sum over
// threads). OpenSSL 3 builds its decoder and encoder contexts under a
// process-wide lock, so a path that builds one per call stays flat as
// threads are added; a path that reuses one, or copies bytes, scales:
//   BM_Crypto_KeyImport         — stored private key PEM -> KeyPair
//   BM_Crypto_CsrCreate         — delegation CSR for a fresh EC key
//   BM_Crypto_CertParse         — certificate PEM -> Certificate (this one
//                                 still decodes the subject key per call)
#include "bench_util.hpp"
#include "crypto/kdf.hpp"
#include "crypto/random.hpp"
#include "crypto/symmetric.hpp"
#include "pki/certificate_builder.hpp"
#include "pki/certificate_request.hpp"

namespace {

using namespace myproxy;         // NOLINT(google-build-using-namespace)
using namespace myproxy::bench;  // NOLINT(google-build-using-namespace)

crypto::KeySpec spec_for(std::int64_t arg) {
  return arg == 0 ? crypto::KeySpec::ec()
                  : crypto::KeySpec::rsa(static_cast<unsigned>(arg));
}

std::string label_for(std::int64_t arg) {
  return arg == 0 ? "EC-P256" : "RSA-" + std::to_string(arg);
}

void BM_Crypto_KeyGen(benchmark::State& state) {
  const crypto::KeySpec spec = spec_for(state.range(0));
  state.SetLabel(label_for(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::KeyPair::generate(spec));
  }
}
BENCHMARK(BM_Crypto_KeyGen)
    ->Arg(0)
    ->Arg(512)
    ->Arg(1024)
    ->Arg(2048)
    ->Arg(3072)
    ->Unit(benchmark::kMicrosecond);

void BM_Crypto_Sign(benchmark::State& state) {
  const auto key = crypto::KeyPair::generate(spec_for(state.range(0)));
  state.SetLabel(label_for(state.range(0)));
  const std::string payload(1024, 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::sign(key, payload));
  }
}
BENCHMARK(BM_Crypto_Sign)
    ->Arg(0)
    ->Arg(1024)
    ->Arg(2048)
    ->Unit(benchmark::kMicrosecond);

void BM_Crypto_Verify(benchmark::State& state) {
  const auto key = crypto::KeyPair::generate(spec_for(state.range(0)));
  state.SetLabel(label_for(state.range(0)));
  const std::string payload(1024, 'x');
  const auto signature = crypto::sign(key, payload);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::verify(key, payload, signature));
  }
}
BENCHMARK(BM_Crypto_Verify)
    ->Arg(0)
    ->Arg(1024)
    ->Arg(2048)
    ->Unit(benchmark::kMicrosecond);

/// Shared fixtures for the threaded codec benchmarks (built once).
struct CodecFixture {
  VirtualOrganization vo;
  gsi::Credential user = vo.user("crypto-user");
  crypto::KeyPair proxy_key = crypto::KeyPair::generate(crypto::KeySpec::ec());
  pki::CertificateRequest csr = pki::CertificateRequest::from_pem(
      pki::CertificateRequest::create(
          pki::DistinguishedName::parse("/CN=delegation request"), proxy_key)
          .to_pem());
  std::string key_pem = proxy_key.private_pem().str();
  std::string cert_pem = user.certificate().to_pem();

  static const CodecFixture& get() {
    static const CodecFixture fixture = [] {
      quiet_logs();
      return CodecFixture();
    }();
    return fixture;
  }
};

void BM_Crypto_ProxySign(benchmark::State& state) {
  // Issue one proxy certificate for an already verified CSR, as
  // delegate_credential does: the CSR's SubjectPublicKeyInfo is copied as
  // bytes and the certificate goes out as PEM. No key generation and no CSR
  // parse (that is a certificate-class decode, see CertParse).
  const auto& f = CodecFixture::get();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pki::CertificateBuilder()
            .subject(f.user.subject().with_cn(pki::kProxyCn))
            .issuer(f.user.subject())
            .public_key_of(f.csr)
            .lifetime(Seconds(3600))
            .sign_pem(f.user.key()));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Crypto_ProxySign)
    ->Threads(1)
    ->Threads(4)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

void BM_Crypto_KeyImport(benchmark::State& state) {
  // Unseal's key step: unencrypted PKCS#8 EC key PEM -> KeyPair.
  const auto& f = CodecFixture::get();
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::KeyPair::from_private_pem(f.key_pem));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Crypto_KeyImport)
    ->Threads(1)
    ->Threads(4)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

void BM_Crypto_CsrCreate(benchmark::State& state) {
  // begin_delegation without key generation: build and sign the CSR.
  const auto& f = CodecFixture::get();
  const auto dn = pki::DistinguishedName::parse("/CN=delegation request");
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pki::CertificateRequest::create(dn, f.proxy_key).to_pem());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Crypto_CsrCreate)
    ->Threads(1)
    ->Threads(4)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

void BM_Crypto_CertParse(benchmark::State& state) {
  // Measured, not optimized: d2i_X509 decodes the subject key through a
  // fresh decoder context on every call.
  const auto& f = CodecFixture::get();
  for (auto _ : state) {
    benchmark::DoNotOptimize(pki::Certificate::from_pem(f.cert_pem));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Crypto_CertParse)
    ->Threads(1)
    ->Threads(4)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

void BM_Crypto_ChainVerify(benchmark::State& state) {
  // Verification cost vs delegation depth — see bench_delegation_chain for
  // the full sweep; depth 1 and 4 here anchor the crypto table.
  quiet_logs();
  VirtualOrganization vo;
  gsi::Credential current = vo.user("crypto-chain-user");
  for (std::int64_t depth = 0; depth < state.range(0); ++depth) {
    gsi::ProxyOptions options;
    options.lifetime = Seconds(3600 - depth * 60);
    current = gsi::create_proxy(current, options);
  }
  const auto chain = current.full_chain();
  const auto store = vo.trust_store();
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.verify(chain));
  }
}
BENCHMARK(BM_Crypto_ChainVerify)->Arg(1)->Arg(4)->Unit(benchmark::kMicrosecond);

void BM_Crypto_Pbkdf2(benchmark::State& state) {
  // The defender's cost: one derivation per pass-phrase GET/PUT (§5.1). An
  // attacker guessing against a stolen record pays the same iteration count
  // at the speed of the best implementation available to them, which this
  // number does not bound.
  const auto salt = crypto::random_bytes(crypto::kEnvelopeSaltSize);
  const auto iterations = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crypto::pbkdf2(kPhrase, salt, iterations, crypto::kAesKeySize));
  }
}
BENCHMARK(BM_Crypto_Pbkdf2)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
