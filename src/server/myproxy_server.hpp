// The MyProxy repository server (paper §4).
//
// Every connection is mutually authenticated over TLS with Grid credentials
// (§5.1); the peer's verified identity is then checked against two
// server-wide ACLs — `accepted_credentials` (who may store) and
// `authorized_retrievers` (who may retrieve) — plus any per-credential
// restrictions, before the protocol command is dispatched to the
// Repository. An `authorized_renewers` ACL gates the §6.6 renewal path.
//
// Threading: the TLS front end's epoll loops (tls/reactor.hpp) own
// connection I/O up to the first request, the /metrics scrape and the
// housekeeping timers; a bounded ThreadPool runs authentication, the command
// core and the timers' blocking work (the repository is a shared production
// service, §3.3). The same core
// serves the native protocol and its §6.4 HTTP binding (http_binding.hpp),
// chosen per connection from the first message.
#pragma once

#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <utility>
#include <vector>

#include "cluster/cluster_map.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "crypto/keypair_pool.hpp"
#include "gsi/acl.hpp"
#include "server/admission.hpp"
#include "server/audit_log.hpp"
#include "server/metrics.hpp"
#include "gsi/credential.hpp"
#include "net/channel.hpp"
#include "net/socket.hpp"
#include "pki/trust_store.hpp"
#include "protocol/message.hpp"
#include "replication/journal.hpp"
#include "replication/replica_session.hpp"
#include "replication/wire.hpp"
#include "repository/repository.hpp"
#include "tls/reactor.hpp"
#include "tls/tls_channel.hpp"

namespace myproxy::server {

/// Connection I/O model: the epoll Reactor is the only front end. IoModel,
/// io_model_from_string, to_string(IoModel) and ServerConfig::io_model
/// survive only until the benchmark's copy of the config-to-stack assembly
/// moves into src/; io_model_from_string rejects the removed "threaded"
/// model with a ConfigError. kReactor keeps the value it had beside the
/// removed model, so printed values stay stable.
enum class IoModel { kReactor = 1 };

[[nodiscard]] IoModel io_model_from_string(std::string_view name);
[[nodiscard]] std::string_view to_string(IoModel model) noexcept;

struct ServerConfig {
  /// TCP port; 0 picks an ephemeral port (tests). The original service ran
  /// on 7512.
  std::uint16_t port = 0;

  /// Who may delegate credentials *to* the repository (typically users).
  gsi::AccessControlList accepted_credentials;

  /// Who may request delegations *from* it (typically portals). "The latter
  /// is particularly important" (§5.1).
  gsi::AccessControlList authorized_retrievers;

  /// Who may refresh renewable credentials without a pass phrase (§6.6).
  gsi::AccessControlList authorized_renewers;

  std::size_t worker_threads = 4;

  /// Always the reactor; see IoModel.
  IoModel io_model = IoModel::kReactor;

  /// Reactor event-loop threads (loop 0 owns the listener and accepted
  /// connections are distributed round-robin).
  std::size_t reactor_threads = 2;

  pki::VerifyOptions verify_options;

  /// Period of the background sweep that deletes expired records (the
  /// operational half of the bounded-lifetime defence). Zero disables it;
  /// tests drive Repository::sweep_expired() directly.
  Seconds sweep_interval{60};

  /// Deadline for the TLS handshake on a freshly accepted connection. A
  /// client that completes TCP connect but never speaks TLS (slowloris) is
  /// closed after this long. Zero disables the deadline.
  Millis handshake_timeout = tls::kDefaultHandshakeTimeout;

  /// Per-read/per-write deadline while servicing a request. A client that
  /// stalls mid-message frees its worker after this long. Zero disables.
  Millis request_timeout = tls::kDefaultRequestTimeout;

  /// Maximum connections in flight (queued + being serviced). Further
  /// accepts are shed with a best-effort "server busy" response. Zero
  /// means unlimited.
  std::size_t max_connections = tls::kDefaultMaxConnections;

  /// Key type for the server-side delegation key freshly generated on every
  /// PUT (the receiver half of Figure 1). Also the spec the key pool keeps
  /// pre-generated.
  crypto::KeySpec delegation_key_spec = crypto::KeySpec::ec();

  /// Pre-generated delegation keys kept ready (0 disables the pool and
  /// every PUT pays a synchronous keygen).
  std::size_t keygen_pool_size = 32;

  /// Background threads refilling the key pool.
  std::size_t keygen_pool_refill_threads = 1;

  /// TLS session resumption: repeat clients (the portal workload, §3.2)
  /// skip the full handshake using a session ticket that carries the
  /// identity this server verified at full-handshake time.
  bool tls_session_resumption = true;

  /// Ticket lifetime; the sealed identity additionally expires with the
  /// client credential that authenticated the original connection.
  Seconds tls_session_timeout{3600};

  // --- Replication (primary–replica failover) -------------------------------

  /// This server's role. A primary journals writes and serves REPLICA_SYNC
  /// streams; a replica tails a primary, serves reads, and redirects writes.
  replication::ReplicationRole replication_role =
      replication::ReplicationRole::kStandalone;

  /// Primary only: the journal the repository's store writes ahead to. The
  /// caller wires the same journal into a ReplicatedStore wrapped around
  /// the repository's store (see myproxy_server_main / the tests).
  std::shared_ptr<replication::ReplicationJournal> journal;

  /// Primary only: DNs allowed to open REPLICA_SYNC streams. Deliberately
  /// separate from the retriever/renewer ACLs — a replica sees every
  /// record, so membership is the strongest grant the server can make.
  gsi::AccessControlList replica_acl;

  /// Primary only: max journal entries shipped per replication batch.
  std::size_t replication_batch = 64;

  /// Replica only: port of the primary (single-host deployment).
  std::uint16_t replication_primary_port = 0;

  /// Replica only: where the last-applied journal sequence is persisted.
  std::filesystem::path replication_state_file;

  // --- Cluster (sharded multi-primary) ---------------------------------------

  /// Shard map this node starts with (empty = clustering off). Tests and
  /// ephemeral-port setups install one after start() via set_cluster().
  cluster::ClusterMap cluster_map;

  /// Which cluster node this server belongs to: the node's *primary* port.
  /// On a primary that is its own port; on a replica it is the port of the
  /// primary it tails. Required (non-zero) whenever cluster_map is set.
  std::uint16_t cluster_self = 0;

  /// DNs allowed to trigger MIGRATE and to push MIGRATE_INSTALL streams.
  /// Like replica_acl this is the strongest grant the server makes (a
  /// migration peer reads and writes whole user ranges), so it never rides
  /// the retriever/renewer ACLs.
  gsi::AccessControlList cluster_admin_acl;

  /// Append-only JSONL audit sink; empty disables the file (the in-memory
  /// ring always works).
  std::filesystem::path audit_log_file;

  // --- Admission control & metrics -------------------------------------------

  /// Per-identity admission limits (token buckets and an in-flight cap).
  /// Hot-reloadable via SIGHUP when config_file is set.
  AdmissionLimits admission;

  /// Plaintext-HTTP /metrics endpoint (Prometheus text format).
  bool metrics_enabled = false;
  std::uint16_t metrics_port = 0;  ///< 0 = ephemeral (tests)
  std::string metrics_bind_address = "127.0.0.1";
  bool metrics_bind_any = false;  ///< allow a non-loopback bind_address

  /// When set, SIGHUP re-reads this file and applies the admission limits
  /// to the running server without dropping TLS sessions.
  std::filesystem::path config_file;
};

/// Operation counters for tests, benchmarks, and the audit story; the
/// connection counters are the front end's (tls::ReactorStats).
struct ServerStats : tls::ReactorStats {
  std::atomic<std::uint64_t> puts{0};
  std::atomic<std::uint64_t> gets{0};
  std::atomic<std::uint64_t> renewals{0};
  std::atomic<std::uint64_t> auth_failures{0};
  std::atomic<std::uint64_t> authz_failures{0};

  // Hot-path instrumentation (keypair pool, TLS resumption).
  std::atomic<std::uint64_t> full_handshakes{0};     ///< fresh TLS handshakes
  std::atomic<std::uint64_t> resumed_handshakes{0};  ///< ticket resumptions
  std::atomic<std::uint64_t> keypool_hits{0};    ///< delegation keys from pool
  std::atomic<std::uint64_t> keypool_misses{0};  ///< synchronous fallbacks

  // Store instrumentation (sharded store + background sweep).
  std::atomic<std::uint64_t> sweeps{0};          ///< background sweep runs
  std::atomic<std::uint64_t> records_swept{0};   ///< expired records deleted
  std::atomic<std::uint64_t> store_records{0};   ///< gauge: records after sweep
  std::atomic<std::uint64_t> put_store_us{0};    ///< cumulative store-op µs in PUT/STORE
  std::atomic<std::uint64_t> get_open_us{0};     ///< cumulative open-op µs in GET/RETRIEVE

  // Replication instrumentation (primary side; the replica side lives in
  // ReplicaSession::stats and is merged into the STATS response).
  std::atomic<std::uint64_t> repl_snapshots_served{0};
  std::atomic<std::uint64_t> repl_snapshot_records{0};
  std::atomic<std::uint64_t> repl_batches_shipped{0};
  std::atomic<std::uint64_t> repl_ops_shipped{0};
  std::atomic<std::uint64_t> repl_last_acked_seq{0};   ///< newest replica ack
  std::atomic<std::uint64_t> repl_replicas_connected{0};  ///< gauge
  std::atomic<std::uint64_t> repl_redirects{0};  ///< writes refused on replica

  // Cluster instrumentation (sharded multi-primary).
  std::atomic<std::uint64_t> cluster_wrong_shard{0};  ///< misrouted requests
  std::atomic<std::uint64_t> cluster_fenced_writes{0};  ///< refused at cutover
  std::atomic<std::uint64_t> cluster_migrations_started{0};
  std::atomic<std::uint64_t> cluster_migrations_completed{0};
  std::atomic<std::uint64_t> cluster_records_migrated_out{0};
  std::atomic<std::uint64_t> cluster_records_migrated_in{0};

  /// Per-op dispatch latency, indexed by protocol::Command.
  /// Records cover parse-to-response of admitted requests; shed requests
  /// never reach a histogram.
  static constexpr std::size_t kOpCount =
      static_cast<std::size_t>(protocol::kLastCommand) + 1;
  std::array<LatencyHistogram, kOpCount> op_latency;
};

/// Framed "server busy" refusal carrying the admission hint: BUSY=1 plus
/// RETRY_AFTER_MS, which the client RetryPolicy honours before retrying.
[[nodiscard]] protocol::Response busy_response(Millis retry_after);

class MyProxyServer {
 public:
  MyProxyServer(gsi::Credential host_credential, pki::TrustStore trust_store,
                std::shared_ptr<repository::Repository> repository,
                ServerConfig config);
  ~MyProxyServer();

  MyProxyServer(const MyProxyServer&) = delete;
  MyProxyServer& operator=(const MyProxyServer&) = delete;

  /// Bind, start the reactor, and return (non-blocking).
  void start();

  /// Stop accepting, drain in-flight connections, join.
  void stop();

  /// Port actually bound (valid after start()).
  [[nodiscard]] std::uint16_t port() const { return port_; }

  [[nodiscard]] const ServerStats& stats() const { return stats_; }

  /// Structured audit trail (§5.1 detection story).
  [[nodiscard]] const AuditLog& audit() const { return audit_; }

  [[nodiscard]] const repository::Repository& repository() const {
    return *repository_;
  }

  /// In-flight connection gauge (reserved slots), for tests and benches.
  [[nodiscard]] std::size_t in_flight() const {
    return reactor_ != nullptr ? reactor_->in_flight() : 0;
  }

  /// Delegation key pool (null when keygen_pool_size == 0); exposed for
  /// stats in tests and benchmarks.
  [[nodiscard]] const crypto::KeyPairPool* key_pool() const {
    return key_pool_.get();
  }

  /// Replica-side replication engine (null unless replication_role ==
  /// kReplica and the server is started). Tests and the failover bench use
  /// wait_for_sequence / stats through this.
  [[nodiscard]] const replication::ReplicaSession* replica_session() const {
    return replica_session_.get();
  }

  /// Admission counters (accepted/shed per identity class) for tests,
  /// STATS, and the metrics scrape.
  [[nodiscard]] const AdmissionController& admission() const {
    return admission_;
  }

  /// Current admission limits (hot-reload observability for tests).
  [[nodiscard]] AdmissionLimits admission_limits() const {
    return admission_.limits();
  }

  /// Apply new admission limits to the running server. Established TLS
  /// sessions and in-flight requests are untouched; the next admission
  /// decision sees the new numbers. Public so the SIGHUP path and tests
  /// share one entry point.
  void reload_limits(const AdmissionLimits& limits);

  /// Port of the /metrics endpoint (0 unless metrics_enabled and started).
  [[nodiscard]] std::uint16_t metrics_port() const {
    return metrics_listener_.has_value() ? metrics_listener_->port() : 0;
  }

  /// Install (or replace) the cluster shard map at runtime. `self_port`
  /// names the node this server belongs to — the node's primary port (a
  /// replica passes its primary's port). Tests bind ephemeral ports, so
  /// the map can only be built after every node has started; production
  /// wires ServerConfig::cluster_map instead and start() installs it.
  void set_cluster(cluster::ClusterMap map, std::uint16_t self_port);

  /// Copy of the current shard map (empty when clustering is off).
  [[nodiscard]] cluster::ClusterMap cluster_map() const;

  /// Prometheus text exposition of every ServerStats counter, the per-op
  /// latency histograms, and the admission counters. Public so tests can
  /// check STATS(10) consistency without a scrape.
  [[nodiscard]] std::string render_metrics() const;

 private:
  /// Loop-0 timers. Each hands its blocking work to the pool: at most one
  /// expiry sweep in flight, and a config_file re-read per SIGHUP.
  void sweep_tick();
  void reload_tick();

  /// Numeric STATS(10) fields in exposition order — the single source both
  /// handle_stats and render_metrics enumerate, so the admin dump and the
  /// scrape can never drift apart.
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>>
  counter_snapshot() const;

  /// The front end's serve callback, run on a pool worker: the event loop
  /// has already completed the TLS handshake and read `raw_request`; this
  /// picks the codec (native or HTTP) from that first message,
  /// authenticates the peer (chain verification is crypto-heavy and does
  /// not belong on an event loop) and serves the pre-read request.
  void serve_accepted(tls::TlsChannel& channel, std::string_view raw_request);

  /// HTTP codec (§6.4): run the form through dispatch and answer with one
  /// HTTP response.
  void serve_http(net::Channel& channel, const pki::VerifiedIdentity& peer,
                  std::string_view raw_request);

  /// The command core every binding shares: cluster ownership, migration
  /// fence, replica read-only, admission, the latency histogram, the
  /// command's policy (policy_of), its handler and audit. Replies go to
  /// `channel`; returns the ErrorCode a handler or policy check failed
  /// with (its error frame already sent), or nullopt.
  std::optional<ErrorCode> dispatch(net::Channel& channel,
                                    const pki::VerifiedIdentity& peer,
                                    const protocol::Request& request);

  /// Fresh delegation key: pooled when possible, synchronous otherwise.
  [[nodiscard]] crypto::KeyPair next_delegation_key();

  /// Identity for this connection: the GSI-verified chain on a full
  /// handshake (then arms a session ticket sealing that identity), or the
  /// identity unsealed from the ticket on a resumed one. Throws
  /// AuthenticationError when neither yields a live identity.
  [[nodiscard]] pki::VerifiedIdentity authenticate_peer(
      tls::TlsChannel& channel);

  /// The server-wide ACL a command's caller must be in, checked before
  /// the store is read. kRetrievers also checks the record's own retriever
  /// patterns once it is loaded; kRenewers is decided only then, from
  /// authorized_renewers or the record's renewer patterns.
  enum class Gate {
    kNone,
    kStorers,              ///< accepted_credentials
    kRetrievers,           ///< authorized_retrievers
    kRetrieversOrStorers,  ///< either (metadata and admin reads)
    kRenewers,             ///< see above
    kReplicas,             ///< replica_acl: a replica sees every record
    kClusterAdmins,        ///< cluster_admin_acl
  };

  using Record = std::optional<repository::CredentialRecord>;
  /// A command's own work, run after dispatch has applied its policy.
  /// `record` is loaded (and present) when the policy asks for it.
  using Handler = void (MyProxyServer::*)(net::Channel&,
                                          const protocol::Request&,
                                          const pki::VerifiedIdentity&,
                                          const Record&);

  /// Everything dispatch decides about a command before its handler runs.
  /// Whether it writes the store is protocol::writes_store.
  struct CommandPolicy {
    protocol::Command command;
    bool control_plane;  ///< exempt from cluster ownership and admission
    bool stream;         ///< not charged to the latency histogram
    Gate gate;
    bool record;  ///< load the record; NotFoundError when absent
    bool owner;   ///< the caller must be the record's owner
    Handler handler;
  };

  [[nodiscard]] static const CommandPolicy& policy_of(
      protocol::Command command);

  /// The ACL that `gate` refuses `dn` by, or empty when it admits. Without
  /// a record this is the identity gate; with one, the record gate.
  [[nodiscard]] std::string_view gate_refusal(
      Gate gate, const pki::DistinguishedName& dn,
      const repository::CredentialRecord* record) const;

  void handle_put(net::Channel&, const protocol::Request&,
                  const pki::VerifiedIdentity&, const Record&);
  void handle_get(net::Channel&, const protocol::Request&,
                  const pki::VerifiedIdentity&, const Record&);
  void handle_renew(net::Channel&, const protocol::Request&,
                    const pki::VerifiedIdentity&, const Record&);
  void handle_info(net::Channel&, const protocol::Request&,
                   const pki::VerifiedIdentity&, const Record&);
  void handle_list(net::Channel&, const protocol::Request&,
                   const pki::VerifiedIdentity&, const Record&);
  void handle_destroy(net::Channel&, const protocol::Request&,
                      const pki::VerifiedIdentity&, const Record&);
  void handle_change_passphrase(net::Channel&, const protocol::Request&,
                                const pki::VerifiedIdentity&, const Record&);
  void handle_store(net::Channel&, const protocol::Request&,
                    const pki::VerifiedIdentity&, const Record&);
  void handle_retrieve(net::Channel&, const protocol::Request&,
                       const pki::VerifiedIdentity&, const Record&);
  void handle_replica_sync(net::Channel&, const protocol::Request&,
                           const pki::VerifiedIdentity&, const Record&);
  void handle_stats(net::Channel&, const protocol::Request&,
                    const pki::VerifiedIdentity&, const Record&);
  void handle_cluster_map(net::Channel&, const protocol::Request&,
                          const pki::VerifiedIdentity&, const Record&);
  void handle_migrate(net::Channel&, const protocol::Request&,
                      const pki::VerifiedIdentity&, const Record&);
  void handle_migrate_install(net::Channel&, const protocol::Request&,
                              const pki::VerifiedIdentity&, const Record&);

  /// Cluster ownership check: the WRONG_SHARD refusal (SHARD/EPOCH/PRIMARY)
  /// for `username`, or nullopt when this node owns (or clustering is off).
  [[nodiscard]] std::optional<protocol::Response> cluster_refusal_for(
      const std::string& username);

  /// Write fence for shard migration: returns a shared permit that must be
  /// held across the repository mutation, or throws (caught in
  /// dispatch as a busy refusal) when `username`'s shard is in final
  /// cutover. The cutover thread sets fenced_shard_, then acquires
  /// fence_mutex_ exclusively once — a barrier that waits out every write
  /// already past this check — and only then drains the journal tail, so
  /// no mutation can slip between the drain and the ownership flip.
  [[nodiscard]] std::shared_lock<std::shared_mutex> cluster_write_permit(
      const std::string& username);

  /// Shared GET/RENEW tail: delegate `credential` to the peer over the
  /// channel under the stored record's restrictions.
  void delegate_to_peer(net::Channel& channel,
                        const gsi::Credential& credential,
                        const repository::CredentialRecord& record,
                        Seconds requested_lifetime, bool want_limited);

  gsi::Credential host_credential_;
  pki::TrustStore trust_store_;
  std::shared_ptr<repository::Repository> repository_;
  ServerConfig config_;
  tls::TlsContext tls_context_;

  std::unique_ptr<crypto::KeyPairPool> key_pool_;
  std::unique_ptr<replication::ReplicaSession> replica_session_;

  // Cluster state. The map mutates only on set_cluster and migration
  // cutover; requests copy what they need under the mutex.
  mutable std::mutex cluster_mutex_;
  cluster::ClusterMap cluster_map_;
  std::uint16_t cluster_self_ = 0;
  /// Shard in final migration cutover (-1 = none). Writes to it are refused
  /// with a busy hint; see cluster_write_permit.
  std::atomic<std::int64_t> fenced_shard_{-1};
  std::shared_mutex fence_mutex_;
  std::atomic<bool> migration_in_flight_{false};

  std::unique_ptr<tls::Reactor> reactor_;
  AdmissionController admission_;
  std::optional<net::TcpListener> listener_;
  std::optional<net::TcpListener> metrics_listener_;
  std::uint16_t port_ = 0;
  std::uint64_t seen_reload_generation_ = 0;  ///< loop 0 only
  std::atomic<bool> sweep_in_flight_{false};
  std::unique_ptr<ThreadPool> pool_;
  std::atomic<bool> stopping_{false};

  ServerStats stats_;
  AuditLog audit_;
};

}  // namespace myproxy::server
