// Shared scaffolding for the benchmark harness: an in-process virtual
// organization (CA + credentials) and a running repository, mirroring the
// examples but tuned for measurement (EC keys; configurable KDF cost).
#pragma once

#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "client/myproxy_client.hpp"
#include "common/logging.hpp"
#include "gsi/credential.hpp"
#include "gsi/proxy.hpp"
#include "pki/certificate_authority.hpp"
#include "pki/trust_store.hpp"
#include "repository/repository.hpp"
#include "server/myproxy_server.hpp"

namespace myproxy::bench {

inline void quiet_logs() {
  log::Logger::instance().set_level(log::Level::kError);
}

class VirtualOrganization {
 public:
  VirtualOrganization()
      : ca_(pki::CertificateAuthority::create(
            pki::DistinguishedName::parse("/C=US/O=Grid/CN=Bench CA"),
            crypto::KeySpec::ec())) {}

  [[nodiscard]] pki::TrustStore trust_store() const {
    pki::TrustStore store;
    store.add_root(ca_.certificate());
    return store;
  }

  [[nodiscard]] gsi::Credential enroll(const std::string& ou,
                                       const std::string& cn) {
    const auto dn =
        pki::DistinguishedName::parse("/C=US/O=Grid/OU=" + ou + "/CN=" + cn);
    auto key = crypto::KeyPair::generate(crypto::KeySpec::ec());
    auto cert = ca_.issue(dn, key, Seconds(365L * 24 * 3600));
    return gsi::Credential(std::move(cert), std::move(key));
  }

  [[nodiscard]] gsi::Credential user(const std::string& cn) {
    return enroll("People", cn);
  }
  [[nodiscard]] gsi::Credential portal(const std::string& cn) {
    return enroll("Portals", cn);
  }
  [[nodiscard]] gsi::Credential service(const std::string& cn) {
    return enroll("Services", cn);
  }

 private:
  pki::CertificateAuthority ca_;
};

struct RepositoryFixture {
  std::shared_ptr<repository::Repository> repository;
  std::unique_ptr<server::MyProxyServer> server;

  explicit RepositoryFixture(VirtualOrganization& vo,
                             repository::RepositoryPolicy policy = {},
                             std::size_t worker_threads = 4) {
    repository = std::make_shared<repository::Repository>(
        std::make_unique<repository::MemoryCredentialStore>(),
        std::move(policy));
    server::ServerConfig config;
    config.accepted_credentials.add("*");
    config.authorized_retrievers.add("*");
    config.authorized_renewers.add("*");
    config.worker_threads = worker_threads;
    server = std::make_unique<server::MyProxyServer>(
        vo.service("myproxy"), vo.trust_store(), repository, config);
    server->start();
  }

  ~RepositoryFixture() {
    if (server != nullptr) server->stop();
  }
};

/// Default moderate KDF cost so wall-clock stays dominated by the protocol
/// under test (bench_crypto's BM_AtRest_* series sweep the KDF itself).
inline repository::RepositoryPolicy bench_policy(
    unsigned kdf_iterations = 1000) {
  repository::RepositoryPolicy policy;
  policy.kdf_iterations = kdf_iterations;
  return policy;
}

inline constexpr std::string_view kPhrase = "correct horse battery";

/// myproxy-init for `user` under `account`.
inline void put_credential(VirtualOrganization& vo,
                           const RepositoryFixture& fixture,
                           const gsi::Credential& user,
                           const std::string& account,
                           client::PutOptions options = {}) {
  const gsi::Credential proxy = gsi::create_proxy(user);
  client::MyProxyClient client(proxy, vo.trust_store(),
                               fixture.server->port());
  options.stored_lifetime = Seconds(24 * 3600);
  client.put(account, kPhrase, proxy, options);
}

}  // namespace myproxy::bench
