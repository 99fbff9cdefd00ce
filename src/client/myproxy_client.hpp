// Client API behind the myproxy-* tools (paper §4.1-4.2, §4.4: "a client
// API for accessing the MyProxy server").
//
// Every operation opens one mutually-authenticated TLS connection, performs
// one protocol command, and closes — the original prototype's
// one-command-per-connection model.
//
// Failover: the client accepts a list of endpoints (ports — the
// reproduction runs single-host) where the first is the primary and the
// rest are replicas. Writes go to the primary; reads prefer a replica
// (spreading load off the primary) and fall back across the remaining
// endpoints on transport failure, so a dead primary does not take reads
// down with it.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster_map.hpp"
#include "common/clock.hpp"
#include "common/error.hpp"
#include "crypto/keypair_pool.hpp"
#include "gsi/credential.hpp"
#include "gsi/proxy.hpp"
#include "pki/trust_store.hpp"
#include "protocol/message.hpp"
#include "tls/tls_channel.hpp"

namespace myproxy::client {

/// myproxy-init parameters (Figure 1).
struct PutOptions {
  /// Lifetime of the proxy delegated to the repository (§4.1: "normally
  /// ... a week. The user can change this to any length of time desired").
  Seconds stored_lifetime = kDefaultRepositoryLifetime;

  /// Retrieval restriction: the longest proxy the repository may delegate
  /// on the user's behalf (§4.1).
  Seconds max_delegation_lifetime{0};  ///< 0 = server default

  std::string credential_name;  ///< wallet slot (§6.2)
  std::vector<std::string> retriever_patterns;
  std::vector<std::string> renewer_patterns;  ///< §6.6: arms renewal
  bool always_limited = false;
  std::optional<std::string> restriction;  ///< §6.5 "rights=..."
  std::string task_tags;                   ///< §6.2 wallet tags
  bool use_otp = false;  ///< §6.3: pass phrase becomes the OTP chain seed
};

/// myproxy-get-delegation parameters (Figure 2).
struct GetOptions {
  Seconds lifetime{0};  ///< 0 = server default ("a few hours", §4.3)
  std::string credential_name;
  bool want_limited = false;
  bool otp = false;  ///< authenticate with an OTP word instead
  /// Key type for the fresh proxy key pair generated on this side.
  crypto::KeySpec key_spec = crypto::KeySpec::ec();
};

/// Connection robustness policy: deadlines for one attempt plus retry with
/// exponential backoff and jitter across attempts. Only the connect/
/// handshake phase is retried — no request bytes have been sent yet, so a
/// retry can never replay a half-finished command.
struct RetryPolicy {
  /// Total connection attempts (1 = no retry).
  int max_attempts = 3;

  /// Backoff before the second attempt; doubles each retry (capped below).
  Millis initial_backoff{100};
  Millis max_backoff{2000};
  double backoff_multiplier = 2.0;

  /// Multiplicative jitter: each sleep is scaled by a random factor in
  /// [1 - jitter, 1 + jitter] so synchronized clients do not stampede.
  double jitter = 0.2;

  /// Deadline for the TCP three-way handshake of one attempt (0 = none).
  Millis connect_timeout{10000};

  /// Per-read/per-write deadline for the TLS handshake and all subsequent
  /// protocol I/O (0 = none): a stalled repository cannot hang the client.
  Millis io_timeout{30000};

  /// Redirect hop budget shared by replica (PRIMARY) and cluster
  /// (WRONG_SHARD) redirects within one operation. Each hop acts on
  /// information a server just handed us, but a cycle of servers pointing
  /// at each other must terminate: past the budget the operation fails
  /// with RedirectLoop.
  int max_redirect_hops = 3;
};

/// INFO result (metadata only; never key material).
struct StoredCredentialInfo {
  std::string owner_dn;
  TimePoint created_at;
  TimePoint not_after;
  Seconds max_delegation_lifetime{0};
  std::string sealing;
  bool limited = false;
  std::optional<std::string> restriction;
  std::optional<std::uint32_t> otp_remaining;
};

/// A replica refused a write and named the primary. Thrown by write
/// operations issued against a read-only replica; the failover wrapper
/// moves on to the next endpoint, and callers that reach it directly can
/// retry at primary_port.
class ReplicaRedirect : public Error {
 public:
  ReplicaRedirect(std::uint16_t primary_port, const std::string& message)
      : Error(ErrorCode::kPolicy, message), primary_port_(primary_port) {}

  [[nodiscard]] std::uint16_t primary_port() const noexcept {
    return primary_port_;
  }

 private:
  std::uint16_t primary_port_;
};

/// The server shed this request at admission (per-identity rate limit or
/// in-flight cap) and hinted when to retry. run_op honors the hint:
/// it sleeps the larger of the hint and its own backoff, then retries the
/// same endpoint, up to RetryPolicy::max_attempts tries.
class ServerBusy : public Error {
 public:
  ServerBusy(Millis retry_after, const std::string& message)
      : Error(ErrorCode::kPolicy, message), retry_after_(retry_after) {}

  [[nodiscard]] Millis retry_after() const noexcept { return retry_after_; }

 private:
  Millis retry_after_;
};

/// The server does not own the target user's shard and named the current
/// owner and map epoch. run_op refreshes the cluster map and retries at
/// the owner, within the shared redirect hop budget.
class WrongShardRedirect : public Error {
 public:
  WrongShardRedirect(std::uint64_t epoch, std::uint32_t shard,
                     std::uint16_t primary_hint, const std::string& message)
      : Error(ErrorCode::kPolicy, message),
        epoch_(epoch),
        shard_(shard),
        primary_hint_(primary_hint) {}

  /// Map epoch the refusing server holds (newer than ours on a stale map).
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }
  [[nodiscard]] std::uint32_t shard() const noexcept { return shard_; }
  /// Primary port of the shard's owner per the refusing server (0 = none).
  [[nodiscard]] std::uint16_t primary_hint() const noexcept {
    return primary_hint_;
  }

 private:
  std::uint64_t epoch_;
  std::uint32_t shard_;
  std::uint16_t primary_hint_;
};

/// An operation burned through RetryPolicy::max_redirect_hops redirects
/// without landing on an owner — servers are pointing at each other
/// (mid-migration churn, or inconsistent maps).
class RedirectLoop : public Error {
 public:
  explicit RedirectLoop(const std::string& message)
      : Error(ErrorCode::kPolicy, message) {}
};

class MyProxyClient {
 public:
  /// `credential`: this client's own Grid credential for the mutual TLS
  /// authentication (a user proxy for myproxy-init, the portal's service
  /// credential for retrievals — §4.3). `trust_store` authenticates the
  /// repository in return (§5.1: "prevents an attacker from impersonating
  /// the repository").
  MyProxyClient(gsi::Credential credential, pki::TrustStore trust_store,
                std::uint16_t port, RetryPolicy retry_policy = {});

  /// Multi-endpoint form: `ports` lists the primary first, replicas after.
  /// Operations fail over along the list (see run_op).
  MyProxyClient(gsi::Credential credential, pki::TrustStore trust_store,
                std::vector<std::uint16_t> ports,
                RetryPolicy retry_policy = {});

  [[nodiscard]] const std::vector<std::uint16_t>& ports() const {
    return ports_;
  }

  /// Adjust deadlines/retry after construction (tools wire CLI flags here).
  void set_retry_policy(RetryPolicy policy) {
    retry_policy_ = std::move(policy);
  }
  [[nodiscard]] const RetryPolicy& retry_policy() const {
    return retry_policy_;
  }

  /// Reuse TLS sessions across this client's connections (on by default):
  /// after a successful operation the session is cached and offered on the
  /// next connect, replacing the full handshake with an abbreviated one.
  /// The server still enforces every ACL per request against the identity
  /// it verified at the original full handshake.
  void set_session_resumption(bool enabled) {
    session_resumption_ = enabled;
    if (!enabled) cached_sessions_.clear();
  }

  /// Pre-generated proxy keys for get()/renew() (the receiver-side keygen
  /// is the dominant client cost with RSA specs). Only used when the
  /// pool's spec matches the requested GetOptions::key_spec.
  void set_key_pool(std::shared_ptr<crypto::KeyPairPool> pool) {
    key_pool_ = std::move(pool);
  }

  /// Connection counters: how many connects resumed a cached session vs
  /// performed a full handshake (for benches/tests).
  [[nodiscard]] std::uint64_t resumed_connections() const {
    return resumed_connections_;
  }
  [[nodiscard]] std::uint64_t full_connections() const {
    return full_connections_;
  }

  /// myproxy-init: create a proxy from `source` and delegate it to the
  /// repository under (`username`, `pass_phrase`).
  void put(std::string_view username, std::string_view pass_phrase,
           const gsi::Credential& source, const PutOptions& options = {});

  /// myproxy-get-delegation: retrieve a fresh delegated proxy.
  [[nodiscard]] gsi::Credential get(std::string_view username,
                                    std::string_view pass_phrase,
                                    const GetOptions& options = {});

  /// §6.6: refresh an expiring credential without a pass phrase. The TLS
  /// client credential must be the identity that stored the credential
  /// (e.g. the job's current proxy), and must pass the renewer ACLs.
  [[nodiscard]] gsi::Credential renew(std::string_view username,
                                      const GetOptions& options = {});

  /// myproxy-destroy.
  void destroy(std::string_view username, std::string_view name = {});

  [[nodiscard]] StoredCredentialInfo info(std::string_view username,
                                          std::string_view name = {});

  /// Wallet listing (§6.2); "(default)" marks the unnamed slot.
  [[nodiscard]] std::vector<std::string> list(std::string_view username);

  /// Wallet selection (§6.2): name of the credential for `task`.
  [[nodiscard]] std::string select_for_task(std::string_view username,
                                            std::string_view task);

  void change_passphrase(std::string_view username,
                         std::string_view old_phrase,
                         std::string_view new_phrase,
                         std::string_view name = {});

  /// §6.1: store a long-term credential (certificate AND key) for later
  /// retrieval from anywhere.
  void store(std::string_view username, std::string_view pass_phrase,
             const gsi::Credential& credential,
             const PutOptions& options = {});

  /// §6.1: retrieve stored key material (owner only).
  [[nodiscard]] gsi::Credential retrieve(std::string_view username,
                                         std::string_view pass_phrase,
                                         std::string_view name = {});

  /// STATS command: the server's counter dump (myproxy-admin-query
  /// --stats). Key/value pairs exactly as the server sent them. Routed
  /// like a read, so on a multi-endpoint client it reports whichever
  /// endpoint answered.
  [[nodiscard]] std::map<std::string, std::string> server_stats();

  /// Identity of the repository server from the last connection (for
  /// logging / tests of mutual authentication).
  [[nodiscard]] const std::optional<pki::DistinguishedName>& server_identity()
      const {
    return server_identity_;
  }

  // --- Cluster routing --------------------------------------------------------

  /// Route operations by the cluster shard map: hash the target username,
  /// send writes to the owning node's primary and reads to its replicas.
  /// Without a map installed (or fetched), operations use the plain
  /// endpoint list until a WRONG_SHARD refusal teaches us better.
  void set_cluster_routing(bool enabled) { cluster_routing_ = enabled; }

  /// Install a shard map directly (config-distributed maps, tests) and
  /// enable routing.
  void set_cluster_map(cluster::ClusterMap map) {
    cluster_map_ = std::move(map);
    cluster_routing_ = true;
  }

  /// The map this client currently routes by (nullopt until installed or
  /// fetched).
  [[nodiscard]] const std::optional<cluster::ClusterMap>& cluster_map()
      const {
    return cluster_map_;
  }

  /// Fetch the shard map from the cluster (CLUSTER_MAP command), install
  /// it, enable routing, and return it.
  cluster::ClusterMap fetch_cluster_map();

  /// Admin: move `shard` to the node whose primary listens on
  /// `target_port` (MIGRATE). Returns the server's result fields
  /// (MOVED_USERS / MOVED_RECORDS / EPOCH). Sent to the shard's current
  /// owner when a map is installed, else to the first endpoint.
  std::map<std::string, std::string> cluster_migrate(
      std::uint32_t shard, std::uint16_t target_port);

  /// Routing observability for tests: WRONG_SHARD refusals followed, and
  /// cluster-map fetches performed.
  [[nodiscard]] std::uint64_t wrong_shard_redirects() const {
    return wrong_shard_redirects_;
  }
  [[nodiscard]] std::uint64_t map_refreshes() const { return map_refreshes_; }

 private:
  /// Endpoint order for a request that does (`write`) or does not write
  /// the store. With cluster routing and a map, the order comes from
  /// `username`'s owning node (its primary for writes, replicas then
  /// primary for reads). Otherwise: writes go to the primary only —
  /// replicas cannot accept them and there is no automatic promotion, so
  /// failing over a write could at best replay it and at worst misreport
  /// its outcome; reads try replicas first with the primary as the last
  /// resort.
  [[nodiscard]] std::vector<std::uint16_t> candidates(
      bool write, std::string_view username) const;

  /// Run `request` against each candidate endpoint until one succeeds:
  /// connect, send it, check the first response, run `step(channel,
  /// response)` for the rest of the command's exchange, then cache the
  /// session. protocol::writes_store(request) picks the endpoint order.
  /// Transport failures (IoError — endpoint dead or unreachable after
  /// connect()'s own retries) and read-only refusals (ReplicaRedirect)
  /// move to the next endpoint. Redirects that carry a destination — a
  /// replica naming its primary, a clustered node naming a shard's owner —
  /// are followed (refreshing the cluster map for WRONG_SHARD) within
  /// RetryPolicy::max_redirect_hops. Everything else propagates unchanged.
  template <typename Step>
  auto run_op(const protocol::Request& request, Step&& step)
      -> decltype(step(std::declval<tls::TlsChannel&>(),
                       std::declval<const protocol::Response&>()));

  /// Fetch + install the cluster map, trying `preferred` (when non-zero)
  /// before the configured endpoints and any known shard primaries.
  cluster::ClusterMap fetch_cluster_map_from(std::uint16_t preferred);

  /// Map a refused response to the typed error it encodes (ServerBusy,
  /// WrongShardRedirect, ReplicaRedirect, or plain Error). No-op when ok.
  void check_response(const protocol::Response& response,
                      protocol::Command command);

  /// Run `fn(port)` against one endpoint, retrying ServerBusy refusals
  /// after sleeping max(own backoff, server retry-after hint).
  template <typename Fn>
  auto run_with_busy_retry(Fn&& fn, std::uint16_t port)
      -> decltype(fn(std::uint16_t{}));

  /// Open a connection to `port`, run the TLS handshake, authenticate the
  /// server. Transient transport failures (refused, timed out, handshake
  /// broken) are retried per retry_policy_; authentication failures are
  /// not.
  [[nodiscard]] std::unique_ptr<tls::TlsChannel> connect(std::uint16_t port);

  /// One connection attempt with the policy's deadlines applied.
  [[nodiscard]] std::unique_ptr<tls::TlsChannel> connect_once(
      std::uint16_t port);

  /// Backoff duration before attempt number `attempt` (1-based).
  [[nodiscard]] Millis backoff_for_attempt(int attempt);

  /// Send a request and insist on an OK first response. A refusal carrying
  /// a PRIMARY field (a replica redirecting a write) throws
  /// ReplicaRedirect instead of a plain Error.
  [[nodiscard]] protocol::Response transact(tls::TlsChannel& channel,
                                            const protocol::Request& request);

  /// Snapshot the channel's session for the next connect to `port` (call
  /// once the operation has succeeded; by then the server's ticket has
  /// arrived). Sessions are cached per endpoint — a ticket minted by the
  /// primary means nothing to a replica.
  void cache_session(std::uint16_t port, tls::TlsChannel& channel);

  /// Receiver-side delegation start: pooled key when available, else a
  /// synchronous generation for `spec`.
  [[nodiscard]] gsi::DelegationRequest start_delegation(
      const crypto::KeySpec& spec);

  gsi::Credential credential_;
  pki::TrustStore trust_store_;
  tls::TlsContext tls_context_;
  std::vector<std::uint16_t> ports_;  ///< primary first, replicas after
  RetryPolicy retry_policy_;
  std::mt19937 jitter_rng_;
  std::optional<pki::DistinguishedName> server_identity_;
  bool session_resumption_ = true;
  std::map<std::uint16_t, tls::TlsSession> cached_sessions_;
  std::shared_ptr<crypto::KeyPairPool> key_pool_;
  std::uint64_t resumed_connections_ = 0;
  std::uint64_t full_connections_ = 0;

  bool cluster_routing_ = false;
  std::optional<cluster::ClusterMap> cluster_map_;
  std::uint64_t wrong_shard_redirects_ = 0;
  std::uint64_t map_refreshes_ = 0;
};

}  // namespace myproxy::client
