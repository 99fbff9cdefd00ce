// Microbenchmarks for the credential mechanics behind each EXPERIMENTS.md
// claim that one primitive answers. End-to-end costs are perfbench's
// (perfbench/run.py); this binary times the pieces in isolation.
//
// CRYPTO — §2.1/§2.3: proxy operations are orders of magnitude cheaper than
// long-term RSA key generation, which is why short-lived proxies with fresh
// keys are affordable while long-term keys are provisioned yearly.
//   BM_Crypto_KeyGen/<type>     — RSA-512/1024/2048/3072 + EC-P256 keygen
//   BM_Crypto_Sign, _Verify     — SHA-256 signatures per key type
//   BM_Crypto_Pbkdf2/<iter>     — one §5.1 pass-phrase derivation
// Key and certificate codecs, at 1 and 4 threads (items/s is the sum over
// threads). OpenSSL 3 builds its decoder and encoder contexts under a
// process-wide lock, so a path that builds one per call stays flat as
// threads are added; a path that reuses one, or copies bytes, scales:
//   BM_Crypto_ProxySign         — proxy issuance for a verified CSR
//   BM_Crypto_KeyImport         — stored private key PEM -> KeyPair
//   BM_Crypto_CsrCreate         — delegation CSR for a fresh EC key
//   BM_Crypto_CsrParse          — delegation CSR PEM -> verified request
//   BM_Crypto_CertParse         — certificate PEM -> Certificate; the
//                                 subject key stays undecoded until used
//   BM_Crypto_UnsealKnownChain/<known> — stored proxy PEM -> Credential,
//                                 without (0) and with (1) the presenter's
//                                 verified chain to share certificates from
//
// REST — §5.1 encryption at rest: the defender pays one PBKDF2 per
// legitimate operation, the attacker pays it per guess.
//   BM_AtRest_StoreOpen/<kdf>        — store+open, 0 = plaintext ablation
//   BM_AtRest_AttackerGuessRate/<kdf> — wrong-pass-phrase opens per second
//   BM_AtRest_BlobTransplantCheck    — open under another user's AAD
//
// AUTH — §5.1/§6.3 pass phrase vs one-time password: the OTP fix costs
// nothing, and the confidentiality a persistent pass phrase forces is cheap.
//   BM_Auth_VerifyOnly_Passphrase — server-side check (PBKDF2 + AEAD open)
//   BM_Auth_VerifyOnly_OtpStep    — one OTP chain step
//   BM_Auth_TransportRoundTrip/<tls> — framed round trip, plain vs TLS
//
// DELEG — §2.4 chained delegation grows linearly in depth.
//   BM_Deleg_CreateChain/<depth>, BM_Deleg_VerifyChain/<depth>
//   BM_Deleg_HandshakeHop      — one remote-delegation hop (CSR round trip)
//
// LIFE — §4.1/§4.3 lifetimes at repository scale: open/store stay flat in
// the population, the expiry sweep is linear and cheap.
//   BM_Repo_OpenAmongN/<n>, BM_Repo_StoreAmongN/<n>
//   BM_Repo_SweepExpired/<n>   — sweep over n records, half expired
//   BM_Repo_WalletSelect/<n>   — §6.2 task selection across n slots
//
// RESTRICT — §6.5 restricted proxies are effectively free.
//   BM_Restrict_Issue/{plain,restricted}, BM_Restrict_Verify/{...}
//   BM_Restrict_Enforce         — the resource's policy check
//   BM_Restrict_PolicyCompose/<links> — intersection along a chain
#include <thread>

#include "bench_util.hpp"
#include "common/error.hpp"
#include "crypto/kdf.hpp"
#include "crypto/random.hpp"
#include "crypto/symmetric.hpp"
#include "pki/certificate_builder.hpp"
#include "pki/certificate_request.hpp"
#include "repository/otp.hpp"

namespace {

using namespace myproxy;         // NOLINT(google-build-using-namespace)
using namespace myproxy::bench;  // NOLINT(google-build-using-namespace)

VirtualOrganization& vo() {
  static VirtualOrganization instance;
  return instance;
}

const gsi::Credential& user() {
  static const gsi::Credential cred = vo().user("bench-user");
  return cred;
}

/// A day-long proxy of user(), the credential a repository stores.
const gsi::Credential& stored_proxy() {
  static const gsi::Credential proxy = [] {
    gsi::ProxyOptions options;
    options.lifetime = Seconds(24 * 3600);
    return gsi::create_proxy(user(), options);
  }();
  return proxy;
}

// --- CRYPTO -----------------------------------------------------------------

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
  crypto::KeyPair proxy_key = crypto::KeyPair::generate(crypto::KeySpec::ec());
  pki::CertificateRequest csr = pki::CertificateRequest::from_pem(
      pki::CertificateRequest::create(
          pki::DistinguishedName::parse("/CN=delegation request"), proxy_key)
          .to_pem());
  std::string csr_pem = csr.to_pem();
  std::string key_pem = proxy_key.private_pem().str();
  std::string cert_pem = user().certificate().to_pem();
  std::string stored_pem = stored_proxy().to_pem().str();
  std::vector<pki::Certificate> presented_chain = stored_proxy().full_chain();

  static const CodecFixture& get() {
    static const CodecFixture fixture;
    return fixture;
  }
};

void BM_Crypto_ProxySign(benchmark::State& state) {
  // Issue one proxy certificate for an already verified CSR, as
  // delegate_credential does: the CSR's SubjectPublicKeyInfo is copied as
  // bytes and the certificate goes out as PEM. No key generation and no CSR
  // parse (see CsrParse).
  const auto& f = CodecFixture::get();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pki::CertificateBuilder()
            .subject(user().subject().with_cn(pki::kProxyCn))
            .issuer(user().subject())
            .public_key_of(f.csr)
            .lifetime(Seconds(3600))
            .sign_pem(user().key()));
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

void BM_Crypto_CsrParse(benchmark::State& state) {
  // delegate_credential's first step: walk the CSR's DER, decode its
  // SubjectPublicKeyInfo with the thread's reused decoder, and check the
  // proof-of-possession signature.
  const auto& f = CodecFixture::get();
  for (auto _ : state) {
    const auto csr = pki::CertificateRequest::from_pem(f.csr_pem);
    if (!csr.verify()) state.SkipWithError("CSR did not verify");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Crypto_CsrParse)
    ->Threads(1)
    ->Threads(4)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

void BM_Crypto_CertParse(benchmark::State& state) {
  // A certificate nobody holds yet: names, validity and extensions are
  // decoded and the encoding checked canonical, but the subject key is not
  // (d2i_X509 would build a key decoder per call, under a process-wide
  // lock). Receivers skip even this for certificates they hold
  // (UnsealKnownChain).
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

void BM_Crypto_UnsealKnownChain(benchmark::State& state) {
  // Unseal's parse step: the stored proxy's PEM (two certificates and a
  // key) -> Credential. Arg 0 is a portal GET, whose presented chain shares
  // nothing with the stored one: both certificates are parsed, and the
  // leaf's subject key is decoded for the key-match check. With Arg 1 a
  // §6.6 renewer presented that same proxy, so both certificates are shared
  // from its verified chain and only the private key is decoded.
  const auto& f = CodecFixture::get();
  const std::vector<pki::Certificate> none;
  const std::vector<pki::Certificate>& known =
      state.range(0) == 0 ? none : f.presented_chain;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        gsi::Credential::from_pem(f.stored_pem, {}, known));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Crypto_UnsealKnownChain)
    ->Arg(0)
    ->Arg(1)
    ->Threads(1)
    ->Threads(4)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

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

// --- REST -------------------------------------------------------------------

void BM_AtRest_StoreOpen(benchmark::State& state) {
  repository::RepositoryPolicy policy;
  const bool encrypted = state.range(0) != 0;
  policy.encrypt_at_rest = encrypted;
  policy.kdf_iterations =
      encrypted ? static_cast<unsigned>(state.range(0)) : 1;
  state.SetLabel(encrypted
                     ? "encrypted kdf=" + std::to_string(state.range(0))
                     : "plaintext (ablation)");
  repository::Repository repo(
      std::make_unique<repository::MemoryCredentialStore>(), policy);
  for (auto _ : state) {
    repo.store("alice", kPhrase, user().identity().str(), stored_proxy());
    benchmark::DoNotOptimize(repo.open("alice", kPhrase));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AtRest_StoreOpen)
    ->Arg(0)        // plaintext ablation
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

void BM_AtRest_AttackerGuessRate(benchmark::State& state) {
  // An attacker with a stolen record must run the full envelope open per
  // pass-phrase guess; this measures their guess rate at each KDF setting.
  const unsigned iterations = static_cast<unsigned>(state.range(0));
  const SecureBuffer pem = stored_proxy().to_pem();
  const auto sealed =
      crypto::passphrase_seal(kPhrase, pem.view(), "aad", iterations);
  std::uint64_t guess = 0;
  for (auto _ : state) {
    // Each "guess" is a wrong pass phrase; failure is the expected path.
    const std::string candidate = "guess-" + std::to_string(guess++);
    try {
      benchmark::DoNotOptimize(
          crypto::passphrase_open(candidate, sealed, "aad"));
    } catch (const VerificationError&) {
      // expected
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AtRest_AttackerGuessRate)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

void BM_AtRest_BlobTransplantCheck(benchmark::State& state) {
  // AAD binding (record -> user) adds no measurable cost: open with the
  // right AAD (success path measured above) vs wrong AAD (rejected).
  const SecureBuffer pem = stored_proxy().to_pem();
  const auto sealed =
      crypto::passphrase_seal(kPhrase, pem.view(), "myproxy:alice:", 1000);
  for (auto _ : state) {
    try {
      benchmark::DoNotOptimize(
          crypto::passphrase_open(kPhrase, sealed, "myproxy:mallory:"));
    } catch (const VerificationError&) {
      // expected: transplanted record refused
    }
  }
}
BENCHMARK(BM_AtRest_BlobTransplantCheck)->Unit(benchmark::kMicrosecond);

// --- AUTH -------------------------------------------------------------------

void BM_Auth_VerifyOnly_Passphrase(benchmark::State& state) {
  // Bare server-side pass-phrase check (PBKDF2 + AEAD open) at the shipped
  // KDF cost.
  repository::Repository repo(
      std::make_unique<repository::MemoryCredentialStore>(),
      repository::RepositoryPolicy{});
  repo.store("alice", kPhrase, user().identity().str(), stored_proxy());
  for (auto _ : state) {
    benchmark::DoNotOptimize(repo.open("alice", kPhrase));
  }
}
BENCHMARK(BM_Auth_VerifyOnly_Passphrase)->Unit(benchmark::kMicrosecond);

void BM_Auth_VerifyOnly_OtpStep(benchmark::State& state) {
  // Bare OTP chain step: one SHA-256 + constant-time compare. A rejected
  // word costs exactly the same hash as an accepted one, so verifying a
  // wrong word repeatedly measures the per-attempt cost without consuming
  // the chain.
  repository::OtpState otp = repository::otp_initialize("bench seed", 16);
  const std::string wrong_word = repository::otp_word("other seed", 15);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        repository::otp_verify_and_advance(otp, wrong_word));
  }
}
BENCHMARK(BM_Auth_VerifyOnly_OtpStep)->Unit(benchmark::kMicrosecond);

void BM_Auth_TransportRoundTrip(benchmark::State& state) {
  // §5.1 corollary: with a persistent pass phrase the transport MUST be
  // encrypted; with OTP it would not need to be. This measures what that
  // requirement costs per message round trip: PlainChannel vs TlsChannel
  // over the same socket pair (handshake excluded).
  const bool use_tls = state.range(0) != 0;
  state.SetLabel(use_tls ? "tls" : "plain (ablation)");
  auto [a, b] = net::socket_pair();

  std::unique_ptr<net::Channel> left;
  std::unique_ptr<net::Channel> right;
  if (use_tls) {
    const tls::TlsContext server_ctx = tls::TlsContext::make(user());
    const tls::TlsContext client_ctx = tls::TlsContext::make(user());
    std::unique_ptr<tls::TlsChannel> server_side;
    std::thread accept_thread(
        [&server_ctx, &server_side, sock = std::move(a)]() mutable {
          server_side = tls::TlsChannel::accept(server_ctx, std::move(sock));
        });
    right = tls::TlsChannel::connect(client_ctx, std::move(b));
    accept_thread.join();
    left = std::move(server_side);
  } else {
    left = std::make_unique<net::PlainChannel>(std::move(a));
    right = std::make_unique<net::PlainChannel>(std::move(b));
  }

  const std::string request(256, 'q');
  const std::string reply(4096, 'r');  // a certificate chain's worth
  std::thread echo([&left, &reply, n = state.max_iterations] {
    for (std::int64_t i = 0; i < n; ++i) {
      (void)left->receive();
      left->send(reply);
    }
  });
  for (auto _ : state) {
    right->send(request);
    benchmark::DoNotOptimize(right->receive());
  }
  echo.join();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Auth_TransportRoundTrip)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond);

// --- DELEG ------------------------------------------------------------------

gsi::Credential make_chain(std::int64_t depth,
                           const gsi::ProxyOptions& first = {}) {
  gsi::Credential current = gsi::create_proxy(user(), first);
  for (std::int64_t i = 1; i < depth; ++i) {
    gsi::ProxyOptions options;
    options.lifetime = Seconds(3600 - i * 10);  // keep nesting valid
    current = gsi::create_proxy(current, options);
  }
  return current;
}

void BM_Deleg_CreateChain(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(make_chain(state.range(0)));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Deleg_CreateChain)
    ->DenseRange(1, 8, 1)
    ->Unit(benchmark::kMicrosecond)
    ->Complexity(benchmark::oN);

void BM_Deleg_VerifyChain(benchmark::State& state) {
  const auto chain = make_chain(state.range(0)).full_chain();
  const auto store = vo().trust_store();
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.verify(chain));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Deleg_VerifyChain)
    ->DenseRange(1, 8, 1)
    ->Unit(benchmark::kMicrosecond)
    ->Complexity(benchmark::oN);

void BM_Deleg_HandshakeHop(benchmark::State& state) {
  // One delegation hop as it happens on the wire: receiver keygen + CSR,
  // sender verify + sign, receiver completion.
  const gsi::Credential sender = make_chain(1);
  for (auto _ : state) {
    gsi::DelegationRequest request = gsi::begin_delegation();
    const std::string chain =
        gsi::delegate_credential(sender, request.csr_pem);
    benchmark::DoNotOptimize(
        gsi::complete_delegation(std::move(request.key), chain));
  }
}
BENCHMARK(BM_Deleg_HandshakeHop)->Unit(benchmark::kMicrosecond);

// --- LIFE -------------------------------------------------------------------

std::unique_ptr<repository::Repository> small_kdf_repository() {
  return std::make_unique<repository::Repository>(
      std::make_unique<repository::MemoryCredentialStore>(),
      bench_policy(/*kdf_iterations=*/100));
}

/// Repository pre-filled with `n` records for distinct users.
std::unique_ptr<repository::Repository> filled_repository(std::int64_t n) {
  auto repo = small_kdf_repository();
  for (std::int64_t i = 0; i < n; ++i) {
    repo->store("user-" + std::to_string(i), kPhrase,
                user().identity().str(), stored_proxy());
  }
  return repo;
}

void BM_Repo_OpenAmongN(benchmark::State& state) {
  auto repo = filled_repository(state.range(0));
  const std::string target = "user-" + std::to_string(state.range(0) / 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(repo->open(target, kPhrase));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Repo_OpenAmongN)
    ->Arg(10)
    ->Arg(100)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMicrosecond);

void BM_Repo_StoreAmongN(benchmark::State& state) {
  auto repo = filled_repository(state.range(0));
  std::int64_t i = 0;
  for (auto _ : state) {
    repo->store("new-user-" + std::to_string(i++), kPhrase,
                user().identity().str(), stored_proxy());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Repo_StoreAmongN)
    ->Arg(10)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMicrosecond);

void BM_Repo_SweepExpired(benchmark::State& state) {
  // Expires once the clock is advanced by an hour, yet stays storable for
  // the whole run, whose paused refills take far longer than the sweeps.
  gsi::ProxyOptions short_lived;
  short_lived.lifetime = Seconds(1800);
  const gsi::Credential short_proxy = gsi::create_proxy(user(), short_lived);

  for (auto _ : state) {
    state.PauseTiming();
    auto repo = small_kdf_repository();
    for (std::int64_t i = 0; i < state.range(0); ++i) {
      repo->store("user-" + std::to_string(i), kPhrase,
                  user().identity().str(),
                  (i % 2 == 0) ? short_proxy : stored_proxy());
    }
    VirtualClock::instance().advance(Seconds(3600));
    state.ResumeTiming();

    benchmark::DoNotOptimize(repo->sweep_expired());

    state.PauseTiming();
    VirtualClock::instance().reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) / 2);
}
BENCHMARK(BM_Repo_SweepExpired)
    ->Arg(100)
    ->Arg(1000)
    ->Arg(10000)
    ->Iterations(20)  // each refill is paused, so min-time alone runs minutes
    ->Unit(benchmark::kMicrosecond);

void BM_Repo_WalletSelect(benchmark::State& state) {
  // §6.2: selection across a wallet of n tagged credentials.
  auto repo = small_kdf_repository();
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    repository::StoreOptions slot;
    slot.name = "slot-" + std::to_string(i);
    slot.task_tags = "task-" + std::to_string(i);
    repo->store("alice", kPhrase, user().identity().str(), stored_proxy(),
                slot);
  }
  const std::string task = "task-" + std::to_string(state.range(0) - 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(repo->select_for_task("alice", task));
  }
}
BENCHMARK(BM_Repo_WalletSelect)
    ->Arg(2)
    ->Arg(8)
    ->Arg(32)
    ->Unit(benchmark::kMicrosecond);

// --- RESTRICT ---------------------------------------------------------------

gsi::ProxyOptions options_for(bool restricted) {
  gsi::ProxyOptions options;
  if (restricted) {
    options.restriction = pki::RestrictionPolicy::parse(
        "rights=job-submit,job-status,file-read,file-write");
  }
  return options;
}

void BM_Restrict_Issue(benchmark::State& state) {
  const bool restricted = state.range(0) != 0;
  state.SetLabel(restricted ? "restricted" : "plain");
  const gsi::ProxyOptions options = options_for(restricted);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gsi::create_proxy(user(), options));
  }
}
BENCHMARK(BM_Restrict_Issue)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

void BM_Restrict_Verify(benchmark::State& state) {
  const bool restricted = state.range(0) != 0;
  state.SetLabel(restricted ? "restricted" : "plain");
  const auto chain = make_chain(1, options_for(restricted)).full_chain();
  const auto store = vo().trust_store();
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.verify(chain));
  }
}
BENCHMARK(BM_Restrict_Verify)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

void BM_Restrict_Enforce(benchmark::State& state) {
  // What the resource pays to answer "does this chain grant job-submit?".
  const auto id =
      vo().trust_store().verify(make_chain(1, options_for(true)).full_chain());
  for (auto _ : state) {
    benchmark::DoNotOptimize(id.policy->allows("job-submit"));
    benchmark::DoNotOptimize(id.policy->allows("nonexistent-right"));
  }
}
BENCHMARK(BM_Restrict_Enforce)->Unit(benchmark::kNanosecond);

void BM_Restrict_PolicyCompose(benchmark::State& state) {
  // Intersection across a delegation chain of <n> restricted links.
  const auto a = pki::RestrictionPolicy::parse(
      "rights=r1,r2,r3,r4,r5,r6,r7,r8");
  const auto b = pki::RestrictionPolicy::parse("rights=r2,r4,r6,r8,r10");
  for (auto _ : state) {
    pki::EffectivePolicy chain;
    for (std::int64_t i = 0; i < state.range(0); ++i) {
      chain = pki::compose(chain, (i % 2 == 0) ? a : b);
    }
    benchmark::DoNotOptimize(chain);
  }
}
BENCHMARK(BM_Restrict_PolicyCompose)
    ->Arg(2)
    ->Arg(8)
    ->Unit(benchmark::kNanosecond);

}  // namespace

int main(int argc, char** argv) {
  myproxy::bench::quiet_logs();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
