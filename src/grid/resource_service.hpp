// A GSI-protected Grid resource — the thing the portal finally talks to in
// Figure 3 ("The portal then can securely access the Grid using standard
// Grid applications as the user normally would").
//
// Stands in for GRAM (job submission) and a mass-storage service (file
// store/fetch) per the DESIGN.md substitution table. Behaviours that matter
// for the paper's security story are faithful:
//  * GSI mutual authentication; the Grid identity is the EEC DN however
//    deep the delegation chain (§2.4);
//  * gridmap DN -> local account mapping (§2.1);
//  * limited proxies may NOT submit jobs (GSI limited-proxy semantics) but
//    may access storage;
//  * restricted proxies (§6.5) are confined to the rights embedded in the
//    chain: "job-submit", "job-status", "file-read", "file-write";
//  * job submission delegates a proxy to the resource so the job can act
//    (and be renewed, §6.6) after the user disconnects.
//
// Connections arrive through the shared TLS front end (tls/reactor.hpp),
// which bounds the handshake and the request and sheds at its cap.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "gsi/credential.hpp"
#include "gsi/gridmap.hpp"
#include "net/socket.hpp"
#include "pki/trust_store.hpp"
#include "tls/reactor.hpp"
#include "tls/tls_channel.hpp"

namespace myproxy::grid {

/// Rights checked against restricted-proxy policies (§6.5).
inline constexpr std::string_view kRightJobSubmit = "job-submit";
inline constexpr std::string_view kRightJobStatus = "job-status";
inline constexpr std::string_view kRightFileRead = "file-read";
inline constexpr std::string_view kRightFileWrite = "file-write";

enum class JobState { kRunning, kCompleted, kCredentialExpired };

struct JobRecord {
  std::string id;
  std::string local_user;      ///< gridmap-resolved account
  std::string owner_dn;        ///< Grid identity
  std::string command;
  JobState state = JobState::kRunning;
  TimePoint submitted_at{};
  TimePoint credential_expires{};  ///< the delegated job proxy's expiry
};

class ResourceService {
 public:
  ResourceService(gsi::Credential host_credential,
                  pki::TrustStore trust_store, gsi::Gridmap gridmap,
                  std::size_t worker_threads = 2);
  ~ResourceService();

  ResourceService(const ResourceService&) = delete;
  ResourceService& operator=(const ResourceService&) = delete;

  void start();
  void stop();
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Local-user view of a job (tests / the renewal service).
  [[nodiscard]] std::optional<JobRecord> job(const std::string& id) const;

  /// Jobs owned by `owner_dn`; an empty DN returns every job (the renewal
  /// service sweeps all of them).
  [[nodiscard]] std::vector<JobRecord> jobs_for(
      std::string_view owner_dn) const;

  /// The job's delegated credential (renewal service hands it to
  /// MyProxyClient::renew as the TLS client credential, §6.6).
  [[nodiscard]] std::optional<gsi::Credential> job_credential(
      const std::string& id) const;

  /// Replace a job's credential with a refreshed one (same identity);
  /// revives kCredentialExpired jobs. Returns false if identities differ.
  bool refresh_job_credential(const std::string& id,
                              const gsi::Credential& fresh);

  /// Mark jobs whose delegated credential has lapsed. Returns how many
  /// transitioned to kCredentialExpired (driven by a periodic sweep or by
  /// tests; paper §6.6's problem case).
  std::size_t expire_stale_jobs();

  /// Stored file content (tests).
  [[nodiscard]] std::optional<std::string> stored_file(
      std::string_view local_user, std::string_view name) const;

 private:
  /// The front end's serve callback: authenticate, map, run one action.
  void serve(tls::TlsChannel& channel, std::string_view raw_request);

  gsi::Credential host_credential_;
  pki::TrustStore trust_store_;
  gsi::Gridmap gridmap_;
  tls::TlsContext tls_context_;

  std::optional<net::TcpListener> listener_;
  std::uint16_t port_ = 0;
  std::size_t worker_threads_;
  std::unique_ptr<ThreadPool> pool_;
  tls::ReactorStats stats_;
  std::unique_ptr<tls::Reactor> reactor_;

  mutable std::mutex mutex_;
  std::map<std::string, JobRecord> jobs_;
  std::map<std::string, gsi::Credential> job_credentials_;
  std::map<std::string, std::string> files_;  // "<user>/<name>" -> content
  std::uint64_t next_job_ = 1;
};

/// Client API for the resource (what the portal and examples use).
class ResourceClient {
 public:
  ResourceClient(gsi::Credential credential, pki::TrustStore trust_store,
                 std::uint16_t port);

  /// Submit a job; delegates a proxy of `credential_` to the resource so
  /// the job can out-live this connection. Returns the job id.
  [[nodiscard]] std::string submit_job(std::string_view command);

  /// State + credential expiry of a job.
  struct JobStatus {
    JobState state;
    TimePoint credential_expires;
  };
  [[nodiscard]] JobStatus job_status(std::string_view job_id);

  void store_file(std::string_view name, std::string_view content);
  [[nodiscard]] std::string fetch_file(std::string_view name);

  /// The local account the resource mapped this identity to.
  [[nodiscard]] std::string whoami();

 private:
  [[nodiscard]] std::unique_ptr<tls::TlsChannel> connect();

  gsi::Credential credential_;
  pki::TrustStore trust_store_;
  tls::TlsContext tls_context_;
  std::uint16_t port_;
};

}  // namespace myproxy::grid
