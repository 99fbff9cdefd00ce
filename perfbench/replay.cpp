#include "replay.hpp"

#include <thread>

#include "common/error.hpp"
#include "crypto/kdf.hpp"
#include "crypto/random.hpp"
#include "gsi/proxy.hpp"
#include "net/socket.hpp"
#include "tls/tls_channel.hpp"

namespace perfbench {

namespace {

constexpr std::chrono::milliseconds kIoTimeout{5000};

template <typename Fn>
double median_us(std::size_t reps, Fn&& fn) {
  std::vector<double> us;
  us.reserve(reps);
  for (std::size_t i = 0; i < reps; ++i) {
    const std::int64_t t0 = now_ns();
    fn();
    us.push_back(static_cast<double>(now_ns() - t0) / 1000.0);
  }
  return median(std::move(us));
}

/// Client-side connect time of `reps` full and `reps` resumed TLS
/// handshakes against a loopback acceptor that arms a session ticket the
/// way the server does after verifying the peer.
std::pair<double, double> replay_handshakes(
    const mp::gsi::Credential& client, const mp::gsi::Credential& host,
    std::size_t reps) {
  mp::tls::SessionResumption resumption;
  resumption.enabled = true;
  const auto server_ctx =
      mp::tls::TlsContext::make(host, mp::tls::PeerAuth::kRequired, resumption);
  const auto client_ctx = mp::tls::TlsContext::make(client);
  auto listener = mp::net::TcpListener::bind(0);
  const std::uint16_t port = listener.port();

  std::exception_ptr server_error;
  std::thread acceptor([&] {
    try {
      for (std::size_t i = 0; i < 2 * reps; ++i) {
        auto channel = mp::tls::TlsChannel::accept(
            server_ctx, listener.accept(), kIoTimeout);
        if (!channel->resumed()) channel->arm_session_ticket("perfbench");
        channel->send("ok");
        (void)channel->receive();
      }
    } catch (...) {
      server_error = std::current_exception();
    }
  });

  std::vector<double> full;
  std::vector<double> resumed;
  mp::tls::TlsSession session;
  try {
    for (std::size_t i = 0; i < 2 * reps; ++i) {
      const bool resume = i >= reps;
      const std::int64_t t0 = now_ns();
      auto channel = mp::tls::TlsChannel::connect(
          client_ctx, mp::net::tcp_connect(port, kIoTimeout), kIoTimeout,
          resume ? &session : nullptr);
      const double us = static_cast<double>(now_ns() - t0) / 1000.0;
      (void)channel->receive();
      // Like MyProxyClient, carry the newest session to the next connect
      // (TLS 1.3 tickets are single-use).
      session = channel->session();
      if (resume && !channel->resumed()) {
        throw mp::Error(mp::ErrorCode::kInternal,
                        "replayed handshake did not resume");
      }
      (resume ? resumed : full).push_back(us);
      channel->send("bye");
    }
  } catch (...) {
    acceptor.join();
    throw;
  }
  acceptor.join();
  if (server_error) std::rethrow_exception(server_error);
  return {median(full), median(resumed)};
}

}  // namespace

LayerCosts replay_layers(Workload& workload) {
  LayerCosts costs;
  const Pki& pki = workload.pki();
  const mp::gsi::Credential& client = workload.client_credential();
  const Account& account = workload.accounts().front();
  const mp::gsi::Credential& stored = pki.users()[account.owner].proxy;
  const bool renewable = workload.shape().command == mp::protocol::Command::kRenew;

  std::tie(costs.full_handshake_us, costs.resumed_handshake_us) =
      replay_handshakes(client, pki.host(), 30);

  const auto trust = pki.trust();
  const auto chain = client.full_chain();
  costs.chain_verify_us =
      median_us(200, [&] { (void)trust.verify(chain); });

  costs.keygen_us = median_us(200, [] {
    (void)mp::crypto::KeyPair::generate(mp::crypto::KeySpec::ec());
  });

  std::vector<mp::gsi::DelegationRequest> requests;
  for (int i = 0; i < 100; ++i) {
    requests.push_back(mp::gsi::begin_delegation(mp::crypto::KeySpec::ec()));
  }
  std::vector<std::string> chains;
  std::size_t next = 0;
  costs.delegate_us = median_us(requests.size(), [&] {
    chains.push_back(
        mp::gsi::delegate_credential(stored, requests[next++].csr_pem));
  });
  next = 0;
  costs.complete_us = median_us(requests.size(), [&] {
    (void)mp::gsi::complete_delegation(requests[next].key, chains[next]);
    ++next;
  });

  const auto& policy = workload.stack().repository().policy();
  const auto salt = mp::crypto::random_bytes(16);
  costs.kdf_us = median_us(30, [&] {
    (void)mp::crypto::pbkdf2(account.pass, salt, policy.kdf_iterations, 32);
  });

  // Repository over a memory store with the served policy: what open/store
  // cost above the store itself.
  mp::repository::Repository repo(
      std::make_unique<mp::repository::MemoryCredentialStore>(), policy);
  mp::repository::StoreOptions options;
  if (renewable) options.renewer_patterns = {stored.identity().str()};
  costs.repo_store_us = median_us(20, [&] {
    repo.store(account.username, account.pass, stored.identity().str(),
               stored, options);
  });
  costs.repo_open_us = median_us(30, [&] {
    if (renewable) {
      (void)repo.open_for_renewal(account.username);
    } else {
      (void)repo.open(account.username, account.pass);
    }
  });
  return costs;
}

}  // namespace perfbench
