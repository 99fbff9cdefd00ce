#include "server/myproxy_server.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <csignal>

#include "common/config.hpp"
#include "common/error.hpp"
#include "common/format.hpp"
#include "common/logging.hpp"
#include "common/strings.hpp"
#include "gsi/proxy.hpp"
#include "repository/credential_store.hpp"
#include "replication/shipper.hpp"
#include "server/http_binding.hpp"

namespace myproxy::server {

namespace {

constexpr std::string_view kLogComponent = "server";

/// Time `op` and add the elapsed microseconds to `counter` (store-latency
/// instrumentation; the matching puts/gets counters are the denominators).
template <typename Op>
auto timed_us(std::atomic<std::uint64_t>& counter, Op&& op)
    -> decltype(op()) {
  const auto start = std::chrono::steady_clock::now();
  struct Charge {
    std::atomic<std::uint64_t>& counter;
    std::chrono::steady_clock::time_point start;
    ~Charge() {
      counter.fetch_add(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - start)
              .count(),
          std::memory_order_relaxed);
    }
  } charge{counter, start};
  return op();
}

using protocol::Command;
using protocol::Request;
using protocol::Response;

/// Bound on the worker pool's queue of accepted connections awaiting a
/// worker; a connection the queue cannot take is shed like one over
/// max_connections.
constexpr std::size_t kMaxPendingConnections = 256;

/// SIGHUP sets a process-wide generation; each server's reload_tick polls
/// it every 100 ms and re-reads its own config_file. Signal-handler-safe:
/// one relaxed fetch_add, nothing else.
std::atomic<std::uint64_t> g_reload_generation{0};

void on_sighup(int) {
  g_reload_generation.fetch_add(1, std::memory_order_relaxed);
}

/// Run `tick` on `loop` every `period`, the first time `period` from now.
/// The loop re-arms from inside the fired callback, on its own thread; a
/// tick must not block the loop.
void every(net::EventLoop& loop, Millis period, std::function<void()> tick) {
  loop.add_timer(period, [&loop, period, tick = std::move(tick)] {
    tick();
    every(loop, period, tick);
  });
}

/// Map an internal failure to the error text put on the wire. Auth errors
/// are deliberately vague to the client; the specifics go to the audit log.
Response error_response(const Error& error) {
  switch (error.code()) {
    case ErrorCode::kAuthentication:
      return Response::make_error("authentication failed");
    case ErrorCode::kAuthorization:
      return Response::make_error("not authorized");
    case ErrorCode::kNotFound:
      return Response::make_error("no credentials found");
    case ErrorCode::kExpired:
      return Response::make_error("credential expired");
    case ErrorCode::kPolicy:
      return Response::make_error(error.what());
    default:
      return Response::make_error("request failed");
  }
}

// --- Session-ticket identity (TLS resumption) -------------------------------
//
// A full handshake runs the complete GSI chain verification; the result is
// sealed into the session ticket (encrypted + MACed under the process's
// ticket key, so only this server can mint or read one). A resuming client
// proves possession of the ticket's secret, which is the same client the
// identity was verified for — re-running X.509 verification would add
// nothing, and the certificate chain is not re-sent on resumption anyway.

constexpr char kTicketFieldSep = '\x1f';

std::string seal_identity(const pki::VerifiedIdentity& peer) {
  return fmt::format("v1{}{}{}{}{}{}{}{}", kTicketFieldSep,
                     peer.identity.str(), kTicketFieldSep, peer.proxy_depth,
                     kTicketFieldSep, peer.limited ? 1 : 0, kTicketFieldSep,
                     to_unix(peer.expires_at));
}

std::optional<pki::VerifiedIdentity> unseal_identity(
    std::string_view appdata) {
  const auto parts = strings::split(appdata, kTicketFieldSep);
  if (parts.size() != 5 || parts[0] != "v1") return std::nullopt;
  // Strict field parses: a ticket is minted only by this server, so any
  // malformed number means corruption (or a forgery that got past the MAC,
  // which must not be met halfway with a best-effort stoul).
  const auto depth = strings::parse_u64(parts[2]);
  const auto expires = strings::parse_i64(parts[4]);
  if (!depth.has_value() || !expires.has_value()) return std::nullopt;
  try {
    pki::VerifiedIdentity peer;
    peer.identity = pki::DistinguishedName::parse(parts[1]);
    peer.proxy_depth = static_cast<std::size_t>(*depth);
    peer.limited = parts[3] == "1";
    peer.expires_at = from_unix(*expires);
    // The ticket may outlive the credential that authenticated the original
    // connection (proxies are short-lived by design, §2.3); an identity
    // whose chain has lapsed must re-authenticate with a full handshake.
    if (now() >= peer.expires_at) return std::nullopt;
    return peer;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

}  // namespace

IoModel io_model_from_string(std::string_view name) {
  if (name == "reactor") return IoModel::kReactor;
  if (name == "threaded") {
    throw ConfigError(
        "io_model 'threaded' was removed; the reactor is the only front end");
  }
  throw ConfigError(
      fmt::format("unknown io_model '{}' (expected 'reactor')", name));
}

std::string_view to_string(IoModel) noexcept { return "reactor"; }

Response busy_response(Millis retry_after) {
  Response response =
      Response::make_error("server busy, retry after backoff");
  response.fields["BUSY"] = "1";
  response.fields["RETRY_AFTER_MS"] = std::to_string(retry_after.count());
  return response;
}

namespace {

/// A write reached the mutation point while its shard was in final
/// migration cutover. dispatch answers with a busy hint — the cutover
/// lasts one journal drain, so "retry shortly" is exactly right.
struct MigrationFenced {};

/// A request slipped past the dispatch ownership check but lost the
/// race with a migration cutover; carries the WRONG_SHARD refusal naming
/// the new owner.
struct ClusterRefusal {
  Response response;
};

/// Client-facing pacing hint while a shard is fenced: the cutover drain is
/// a handful of journal batches, so one short beat is enough.
constexpr Millis kFenceRetryAfter{200};
constexpr char kFencedDetail[] = "write fenced during shard cutover";

/// How many per-identity admission rows STATS and /metrics surface.
constexpr std::size_t kTopIdentities = 5;

/// Prometheus label values escape backslash, quote, and newline.
std::string metrics_label_escape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    if (c == '\\' || c == '"') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out;
}

}  // namespace

MyProxyServer::MyProxyServer(
    gsi::Credential host_credential, pki::TrustStore trust_store,
    std::shared_ptr<repository::Repository> repository, ServerConfig config)
    : host_credential_(std::move(host_credential)),
      trust_store_(std::move(trust_store)),
      repository_(std::move(repository)),
      config_(std::move(config)),
      tls_context_(tls::TlsContext::make(
          host_credential_, tls::PeerAuth::kRequired,
          tls::SessionResumption{config_.tls_session_resumption,
                                 config_.tls_session_timeout})),
      admission_(config_.admission) {
  if (repository_ == nullptr) {
    throw Error(ErrorCode::kInternal, "server requires a repository");
  }
}

MyProxyServer::~MyProxyServer() { stop(); }

void MyProxyServer::start() {
  if (config_.metrics_enabled &&
      !net::is_loopback_address(config_.metrics_bind_address) &&
      !config_.metrics_bind_any) {
    throw ConfigError(fmt::format(
        "metrics endpoint refuses non-loopback bind '{}' without "
        "metrics_bind_any=true (the scrape is unauthenticated plaintext)",
        config_.metrics_bind_address));
  }
  if (!config_.audit_log_file.empty()) {
    audit_.set_file(config_.audit_log_file);
  }
  if (config_.replication_role == replication::ReplicationRole::kPrimary &&
      config_.journal == nullptr) {
    throw ConfigError("replication_role=primary requires a journal");
  }
  if (config_.replication_role == replication::ReplicationRole::kReplica) {
    if (config_.replication_primary_port == 0) {
      throw ConfigError(
          "replication_role=replica requires replication_primary");
    }
    replication::ReplicaConfig replica_config;
    replica_config.primary_port = config_.replication_primary_port;
    replica_config.state_file = config_.replication_state_file;
    replica_session_ = std::make_unique<replication::ReplicaSession>(
        host_credential_, trust_store_, repository_->store_mutable(),
        replica_config,
        [this](std::string_view event, std::string_view detail) {
          audit_.record({now(), std::string(event), "", "",
                         event == "replica-disconnected"
                             ? AuditOutcome::kError
                             : AuditOutcome::kSuccess,
                         std::string(detail)});
        });
    replica_session_->start();
  }
  if (!config_.cluster_map.empty()) {
    set_cluster(config_.cluster_map, config_.cluster_self);
  }
  if (config_.keygen_pool_size > 0) {
    key_pool_ = std::make_unique<crypto::KeyPairPool>(
        config_.delegation_key_spec, config_.keygen_pool_size,
        config_.keygen_pool_refill_threads);
  }
  listener_.emplace(net::TcpListener::bind(config_.port));
  port_ = listener_->port();
  if (config_.metrics_enabled) {
    metrics_listener_.emplace(net::TcpListener::bind(
        config_.metrics_port, config_.metrics_bind_address));
  }
  pool_ = std::make_unique<ThreadPool>(config_.worker_threads,
                                      kMaxPendingConnections);
  tls::ReactorOptions front_end;
  front_end.loops = config_.reactor_threads;
  front_end.handshake_timeout = config_.handshake_timeout;
  front_end.request_timeout = config_.request_timeout;
  front_end.max_connections = config_.max_connections;
  front_end.busy_reply =
      Response::make_error("server busy, try again").serialize();
  // Pre-auth gate: per-peer-address token bucket, consulted before a
  // handshake or a worker is spent on the connection.
  front_end.gate =
      [this](const net::Socket& socket) -> std::optional<tls::Refusal> {
    const AdmissionDecision preauth =
        admission_.admit_preauth(socket.peer_address());
    if (preauth.admitted) return std::nullopt;
    return tls::Refusal{"pre-auth address rate limit",
                        busy_response(preauth.retry_after).serialize()};
  };
  reactor_ = std::make_unique<tls::Reactor>(
      tls_context_, *listener_, *pool_, stats_, std::move(front_end),
      [this](tls::TlsChannel& channel, std::string_view raw_request) {
        serve_accepted(channel, raw_request);
      });
  net::EventLoop& housekeeping = reactor_->housekeeping_loop();
  if (metrics_listener_.has_value()) {
    serve_metrics(housekeeping, *metrics_listener_,
                  [this] { return render_metrics(); });
  }
  if (!config_.config_file.empty()) {
    // Admission limits hot-reload on SIGHUP without disturbing established
    // TLS sessions: the handler only bumps a generation; a loop-0 timer
    // notices it and a worker does the config re-read.
    std::signal(SIGHUP, on_sighup);
    seen_reload_generation_ =
        g_reload_generation.load(std::memory_order_relaxed);
    every(housekeeping, Millis(100), [this] { reload_tick(); });
  }
  if (config_.sweep_interval > Seconds(0)) {
    every(housekeeping, config_.sweep_interval, [this] { sweep_tick(); });
  }
  reactor_->start();
  if (metrics_listener_.has_value()) {
    log::info(kLogComponent, "metrics endpoint listening on {}:{}",
              config_.metrics_bind_address, metrics_port());
  }
  log::info(kLogComponent, "myproxy-server listening on port {} as '{}'",
            port_, host_credential_.identity().str());
}

void MyProxyServer::stop() {
  if (stopping_.exchange(true)) return;
  // Replica streams wait on the journal between heartbeats; wake them.
  if (config_.journal != nullptr) config_.journal->wake_waiters();
  // Stop the event loops first (eventfd wakeup + join); that also
  // deregisters the listeners, cancels the housekeeping timers, drops any
  // connections and scrapes still in progress and waits out the handed-off
  // ones. Before the pools: a scrape reads their gauges. The stopped
  // reactor stays, so in_flight() stays readable.
  if (reactor_ != nullptr) reactor_->stop();
  pool_.reset();  // joins workers, after any queued sweep/reload
  key_pool_.reset();  // after workers: handlers may still hold the pool
  replica_session_.reset();  // after workers: STATS handlers read its stats
  if (listener_.has_value()) listener_->close();
  if (metrics_listener_.has_value()) metrics_listener_->close();
  log::info(kLogComponent, "myproxy-server stopped");
}

void MyProxyServer::reload_limits(const AdmissionLimits& limits) {
  admission_.set_limits(limits);
  log::info(kLogComponent,
            "admission limits reloaded: rate={}/s burst={} "
            "max_queued_per_identity={} preauth_rate={}/s",
            limits.rate_limit_rps, limits.rate_limit_burst,
            limits.max_queued_per_identity, limits.preauth_rate_limit_rps);
}

void MyProxyServer::sweep_tick() {
  if (sweep_in_flight_.exchange(true)) return;
  const bool queued = pool_->submit([this] {
    const std::size_t swept = repository_->sweep_expired();
    stats_.sweeps.fetch_add(1, std::memory_order_relaxed);
    stats_.records_swept.fetch_add(swept, std::memory_order_relaxed);
    stats_.store_records.store(repository_->size(),
                               std::memory_order_relaxed);
    if (swept > 0) {
      log::info(kLogComponent, "expiry sweep removed {} record(s)", swept);
    }
    sweep_in_flight_.store(false);
  });
  if (!queued) sweep_in_flight_.store(false);  // full queue: next period
}

void MyProxyServer::reload_tick() {
  const std::uint64_t generation =
      g_reload_generation.load(std::memory_order_relaxed);
  if (generation == seen_reload_generation_) return;
  const bool queued = pool_->submit([this] {
    try {
      const Config config = Config::load(config_.config_file);
      reload_limits(admission_limits_from_config(config));
    } catch (const std::exception& e) {
      // A bad config on disk must not kill the running limits (or the
      // server): keep the previous limits and say why.
      log::warn(kLogComponent, "SIGHUP reload of '{}' failed: {}",
                config_.config_file.string(), e.what());
    }
  });
  if (queued) seen_reload_generation_ = generation;  // else: next tick
}

pki::VerifiedIdentity MyProxyServer::authenticate_peer(
    tls::TlsChannel& channel) {
  if (channel.resumed()) {
    stats_.resumed_handshakes.fetch_add(1, std::memory_order_relaxed);
    // OpenSSL only completes a resumption after our ticket-decrypt callback
    // accepted the ticket, and tickets are minted exclusively by
    // arm_session_ticket below — so appdata is present unless the sealed
    // identity has expired in the meantime.
    const auto& appdata = channel.ticket_appdata();
    if (appdata.has_value()) {
      if (auto peer = unseal_identity(*appdata); peer.has_value()) {
        log::debug(kLogComponent, "resumed session for '{}'",
                   peer->identity.str());
        return *peer;
      }
    }
    throw AuthenticationError(
        "resumed session does not carry a live verified identity");
  }

  stats_.full_handshakes.fetch_add(1, std::memory_order_relaxed);
  pki::VerifiedIdentity peer =
      trust_store_.verify(channel.peer_chain(), config_.verify_options);
  // Conservative ticket policy: identities carrying a restriction policy
  // (paper §6.5) are not serialized into tickets — the effective policy
  // must be recomputed from the chain, so such peers always re-handshake.
  if (config_.tls_session_resumption && !peer.policy.has_value()) {
    channel.arm_session_ticket(seal_identity(peer));
  }
  return peer;
}

void MyProxyServer::serve_accepted(tls::TlsChannel& channel,
                                   std::string_view raw_request) {
  // Codec by first message, chosen before authentication so an HTTP client
  // gets even its authentication failure as HTTP.
  const bool http = http_binding::is_http(raw_request);
  pki::VerifiedIdentity peer;
  try {
    peer = authenticate_peer(channel);
  } catch (const Error& e) {
    stats_.auth_failures.fetch_add(1, std::memory_order_relaxed);
    log::warn(kLogComponent, "client authentication failed: {}", e.what());
    audit_.record({now(), "CONNECT", "", "",
                   AuditOutcome::kAuthenticationFailure, e.what()});
    channel.send(http ? http_binding::error_reply(ErrorCode::kAuthentication,
                                                  "authentication failed")
                            .serialize()
                      : Response::make_error("authentication failed")
                            .serialize());
    return;
  }
  if (http) {
    serve_http(channel, peer, raw_request);
    return;
  }
  Request request;
  try {
    request = Request::parse(raw_request);
  } catch (const Error& e) {
    stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
    log::warn(kLogComponent, "bad request from '{}': {}",
              peer.identity.str(), e.what());
    channel.send(Response::make_error("malformed request").serialize());
    return;
  }
  (void)dispatch(channel, peer, request);
}

void MyProxyServer::serve_http(net::Channel& channel,
                               const pki::VerifiedIdentity& peer,
                               std::string_view raw_request) {
  bool dispatched = false;
  const portal::HttpResponse response = http_binding::serve(
      raw_request, [&](net::Channel& exchange, const Request& request) {
        dispatched = true;
        return dispatch(exchange, peer, request);
      });
  if (!dispatched) {
    stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
    log::warn(kLogComponent, "bad HTTP request from '{}': {} {}",
              peer.identity.str(), response.status, response.reason);
  }
  channel.send(response.serialize());
}

// --- The command table --------------------------------------------------------
//
// Control-plane commands are exempt from cluster ownership and admission.
// STATS and CLUSTER_MAP carry no username to route by, and an operator must
// always reach a saturated server; REPLICA_SYNC is a node-local stream that
// would otherwise hold an admission slot for the life of the replica; the
// migration commands manage ownership itself, and shedding them under load
// would wedge exactly the rebalancing meant to relieve the load. A stream
// lasts as long as its peer stays connected, which is not an op latency.
// Whether a command writes the store is protocol::writes_store.

const MyProxyServer::CommandPolicy& MyProxyServer::policy_of(
    Command command) {
  using C = Command;
  using G = Gate;
  using S = MyProxyServer;
  static constexpr std::array<CommandPolicy, ServerStats::kOpCount> kTable = {{
      // command, control plane, stream, gate, record, owner, handler
      {C::kGet, false, false, G::kRetrievers, true, false, &S::handle_get},
      {C::kPut, false, false, G::kStorers, false, false, &S::handle_put},
      {C::kInfo, false, false, G::kRetrieversOrStorers, true, false,
       &S::handle_info},
      // §3.3: the user stays in control of their credentials.
      {C::kDestroy, false, false, G::kNone, true, true, &S::handle_destroy},
      {C::kChangePassphrase, false, false, G::kNone, true, true,
       &S::handle_change_passphrase},
      {C::kStore, false, false, G::kStorers, false, false, &S::handle_store},
      // Exporting key material to a third party would defeat §3.3's
      // "remove, as much as possible, any credentials from the portal".
      {C::kRetrieve, false, false, G::kRetrievers, true, true,
       &S::handle_retrieve},
      {C::kList, false, false, G::kRetrieversOrStorers, false, false,
       &S::handle_list},
      // Renewal replaces the pass phrase with possession of the credential
      // being renewed: its about-to-expire proxy still authenticates.
      {C::kRenew, false, false, G::kRenewers, true, true, &S::handle_renew},
      {C::kReplicaSync, true, true, G::kReplicas, false, false,
       &S::handle_replica_sync},
      {C::kStats, true, false, G::kRetrieversOrStorers, false, false,
       &S::handle_stats},
      {C::kClusterMap, true, false, G::kRetrieversOrStorers, false, false,
       &S::handle_cluster_map},
      {C::kMigrate, true, false, G::kClusterAdmins, false, false,
       &S::handle_migrate},
      {C::kMigrateInstall, true, true, G::kClusterAdmins, false, false,
       &S::handle_migrate_install},
  }};
  static_assert([] {
    for (std::size_t i = 0; i < kTable.size(); ++i) {
      if (static_cast<std::size_t>(kTable[i].command) != i) return false;
    }
    return true;
  }(), "command table rows must follow Command order");
  return kTable[static_cast<std::size_t>(command)];
}

std::string_view MyProxyServer::gate_refusal(
    Gate gate, const pki::DistinguishedName& dn,
    const repository::CredentialRecord* record) const {
  const auto& retrievers = config_.authorized_retrievers;
  const auto& storers = config_.accepted_credentials;
  if (record != nullptr) {
    // Record gates: the per-credential patterns the user attached at store
    // time (§4.1), which narrow the server-wide retriever ACL and widen the
    // renewer ACL.
    if (gate == Gate::kRetrievers && !record->retriever_patterns.empty() &&
        !gsi::AccessControlList(record->retriever_patterns).allows(dn)) {
      return "the credential's retrievers";
    }
    if (gate == Gate::kRenewers && !config_.authorized_renewers.allows(dn) &&
        !gsi::AccessControlList(record->renewer_patterns).allows(dn)) {
      return "authorized_renewers or the credential's renewers";
    }
    return {};
  }
  switch (gate) {
    case Gate::kNone:
    case Gate::kRenewers:
      return {};
    case Gate::kStorers:
      return storers.allows(dn) ? "" : "accepted_credentials";
    case Gate::kRetrievers:
      return retrievers.allows(dn) ? "" : "authorized_retrievers";
    case Gate::kRetrieversOrStorers:
      return retrievers.allows(dn) || storers.allows(dn)
                 ? ""
                 : "authorized_retrievers or accepted_credentials";
    case Gate::kReplicas:
      return config_.replica_acl.allows(dn) ? "" : "replica_acl";
    case Gate::kClusterAdmins:
      return config_.cluster_admin_acl.allows(dn) ? "" : "cluster_admin_acl";
  }
  return {};
}

std::optional<ErrorCode> MyProxyServer::dispatch(
    net::Channel& channel, const pki::VerifiedIdentity& peer,
    const Request& request) {
  const CommandPolicy& policy = policy_of(request.command);
  log::info(kLogComponent, "{} user='{}' from '{}' (proxy depth {})",
            to_string(request.command), request.username,
            peer.identity.str(), peer.proxy_depth);
  AuditEvent audit_event{now(), std::string(to_string(request.command)),
                         peer.identity.str(), request.username,
                         AuditOutcome::kSuccess, ""};
  // Every refusal below ends the same way: bump its counter (admission
  // keeps its own), audit it as an error, and send its frame.
  const auto refuse = [&](std::atomic<std::uint64_t>* counter,
                          std::string detail, const Response& reply) {
    if (counter != nullptr) counter->fetch_add(1, std::memory_order_relaxed);
    audit_event.outcome = AuditOutcome::kError;
    audit_event.detail = std::move(detail);
    audit_.record(std::move(audit_event));
    channel.send(reply.serialize());
  };

  // Cluster ownership enforcement: a request for a user whose shard lives
  // on another node is refused with a WRONG_SHARD frame naming the owner
  // and the map epoch — a routing-aware client refreshes its map and
  // retries there. Checked before the replica redirect: a replica answers
  // for its own node's shards only.
  if (!policy.control_plane) {
    if (auto wrong_shard = cluster_refusal_for(request.username)) {
      refuse(&stats_.cluster_wrong_shard,
             fmt::format("wrong shard (owner primary {})",
                         wrong_shard->fields["PRIMARY"]),
             *wrong_shard);
      return std::nullopt;
    }
  }

  // Fast-path fence refusal: a write for a shard in final migration
  // cutover is turned away before any crypto is spent on it. The
  // authoritative check is the cluster_write_permit each mutating handler
  // holds — this one only saves work.
  const bool write = protocol::writes_store(request);
  if (write && fenced_shard_.load(std::memory_order_acquire) >= 0) {
    bool fenced = false;
    {
      const std::lock_guard lock(cluster_mutex_);
      fenced = !cluster_map_.empty() &&
               static_cast<std::int64_t>(
                   cluster_map_.shard_of(request.username)) ==
                   fenced_shard_.load(std::memory_order_acquire);
    }
    if (fenced) {
      refuse(&stats_.cluster_fenced_writes, kFencedDetail,
             busy_response(kFenceRetryAfter));
      return std::nullopt;
    }
  }

  // Replica read-only enforcement: mutations are refused with a redirect
  // carrying the primary's endpoint, so a failover-aware client retries
  // there instead of treating this as a hard failure.
  if (config_.replication_role == replication::ReplicationRole::kReplica &&
      write) {
    Response redirect = Response::make_error(
        "replica is read-only; retry this operation at the primary");
    redirect.fields["PRIMARY"] =
        std::to_string(config_.replication_primary_port);
    refuse(&stats_.repl_redirects, "redirected write to primary", redirect);
    return std::nullopt;
  }

  // Per-identity admission: token bucket and in-flight cap keyed on the
  // authenticated DN.
  std::optional<AdmissionGuard> admission_guard;
  if (!policy.control_plane) {
    const AdmissionDecision decision = admission_.admit(peer.identity.str());
    if (!decision.admitted) {
      log::warn(kLogComponent, "admission shed ({}) for '{}': retry in {} ms",
                decision.reason, peer.identity.str(),
                decision.retry_after.count());
      refuse(nullptr, fmt::format("admission shed ({})", decision.reason),
             busy_response(decision.retry_after));
      return std::nullopt;
    }
    admission_guard.emplace(admission_, peer.identity.str());
  }

  // Latency histogram charge covers dispatch through reply — success and
  // error paths alike — but never shed requests (they return above), so
  // each op's bucket counts sum to the ops actually served. Streams are not
  // charged.
  struct LatencyCharge {
    LatencyHistogram* histogram;
    std::chrono::steady_clock::time_point start =
        std::chrono::steady_clock::now();
    ~LatencyCharge() {
      if (histogram == nullptr) return;
      histogram->record(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - start)
              .count()));
    }
  } latency_charge{policy.stream ? nullptr
                                 : &stats_.op_latency[static_cast<std::size_t>(
                                       request.command)]};

  try {
    // The command's policy, in one fixed order: identity gate, record
    // lookup, record gates, owner. The identity gate runs before the store
    // is read, so a caller it refuses cannot tell a missing username from a
    // present one.
    const pki::DistinguishedName& dn = peer.identity;
    Record record;
    std::string_view refused = gate_refusal(policy.gate, dn, nullptr);
    if (refused.empty() && policy.record) {
      record = repository_->record(request.username, request.credential_name);
      if (!record.has_value()) {
        throw NotFoundError(fmt::format("no credentials stored for '{}'",
                                        request.username));
      }
      refused = gate_refusal(policy.gate, dn, &*record);
    }
    if (!refused.empty()) {
      throw AuthorizationError(
          fmt::format("'{}' is not in {}", dn.str(), refused));
    }
    if (policy.owner && dn.str() != record->owner_dn) {
      throw AuthorizationError(
          fmt::format("'{}' does not own the stored credential", dn.str()));
    }
    (this->*policy.handler)(channel, request, peer, record);
    audit_.record(std::move(audit_event));
  } catch (const MigrationFenced&) {
    // The write lost the race with a cutover fence after passing the
    // fast-path check; the busy hint reuses the client's backoff machinery.
    refuse(&stats_.cluster_fenced_writes, kFencedDetail,
           busy_response(kFenceRetryAfter));
  } catch (const ClusterRefusal& refusal) {
    // Ownership moved while this request was mid-protocol (migration
    // committed between admission and mutation).
    refuse(&stats_.cluster_wrong_shard, "shard moved mid-request",
           refusal.response);
  } catch (const IoTimeout& e) {
    // Mid-command stall: the deadline freed this worker. Record the audit
    // outcome here, then let the front end count the timeout — the stalled
    // channel is not worth another write.
    audit_event.outcome = AuditOutcome::kError;
    audit_event.detail = e.what();
    audit_.record(std::move(audit_event));
    throw;
  } catch (const Error& e) {
    if (e.code() == ErrorCode::kAuthentication) {
      stats_.auth_failures.fetch_add(1, std::memory_order_relaxed);
      audit_event.outcome = AuditOutcome::kAuthenticationFailure;
    } else if (e.code() == ErrorCode::kAuthorization) {
      stats_.authz_failures.fetch_add(1, std::memory_order_relaxed);
      audit_event.outcome = AuditOutcome::kAuthorizationFailure;
    } else if (e.code() == ErrorCode::kNotFound) {
      audit_event.outcome = AuditOutcome::kNotFound;
    } else {
      audit_event.outcome = AuditOutcome::kError;
    }
    audit_event.detail = e.what();
    audit_.record(std::move(audit_event));
    log::warn(kLogComponent, "{} for user '{}' failed: {}",
              to_string(request.command), request.username, e.what());
    channel.send(error_response(e).serialize());
    return e.code();
  }
  return std::nullopt;
}

crypto::KeyPair MyProxyServer::next_delegation_key() {
  if (key_pool_ == nullptr) {
    stats_.keypool_misses.fetch_add(1, std::memory_order_relaxed);
    return crypto::KeyPair::generate(config_.delegation_key_spec);
  }
  bool from_pool = false;
  crypto::KeyPair key = key_pool_->acquire(&from_pool);
  auto& counter = from_pool ? stats_.keypool_hits : stats_.keypool_misses;
  counter.fetch_add(1, std::memory_order_relaxed);
  return key;
}

// --- PUT (Figure 1) ---------------------------------------------------------

void MyProxyServer::handle_put(net::Channel& channel, const Request& request,
                               const pki::VerifiedIdentity& peer,
                               const Record&) {
  if (request.username.empty()) {
    throw PolicyError("username must not be empty");
  }
  // The server runs the *receiver* side of delegation: fresh key, CSR out,
  // signed chain back (the client's private key never travels — and
  // neither does the user's long-term key; we receive only a proxy).
  gsi::DelegationRequest delegation =
      gsi::begin_delegation(next_delegation_key());
  channel.send(Response::make_ok().serialize());
  channel.send(delegation.csr_pem);

  const std::string chain_pem = channel.receive();
  gsi::Credential delegated =
      gsi::complete_delegation(std::move(delegation.key), chain_pem,
                               peer.chain);

  // The stored credential must verify under our trust roots and must belong
  // to the connection's authenticated identity — a client cannot park
  // someone else's (stolen) proxy under its own account unnoticed.
  const pki::VerifiedIdentity stored_identity =
      trust_store_.verify(delegated.full_chain(), config_.verify_options);
  if (!(stored_identity.identity == peer.identity)) {
    throw AuthorizationError(fmt::format(
        "delegated identity '{}' does not match connection identity '{}'",
        stored_identity.identity.str(), peer.identity.str()));
  }

  repository::StoreOptions options;
  options.name = request.credential_name;
  options.max_delegation_lifetime = request.lifetime;
  options.retriever_patterns = request.retriever_patterns;
  options.renewer_patterns = request.renewer_patterns;
  options.always_limited = request.want_limited;
  options.restriction = request.restriction;
  options.task_tags = request.task;
  if (request.auth_mode == protocol::AuthMode::kOtp) {
    // PASSPHRASE carries the OTP seed; LIFETIME the chain length would be
    // overloading, so a fixed generous chain is armed.
    options.otp_words = 1000;
  }
  const auto permit = cluster_write_permit(request.username);
  timed_us(stats_.put_store_us, [&] {
    repository_->store(request.username, request.passphrase,
                       peer.identity.str(), delegated, options);
  });
  stats_.puts.fetch_add(1, std::memory_order_relaxed);
  channel.send(Response::make_ok().serialize());
}

// --- GET (Figure 2) ---------------------------------------------------------

void MyProxyServer::handle_get(net::Channel& channel, const Request& request,
                               const pki::VerifiedIdentity&,
                               const Record& record) {
  // Authenticate the *user* (pass phrase or OTP) on top of the already-
  // authenticated *client* (§5.1: both are required). Verifying an OTP
  // word advances the chain — a store write, so it takes the fence permit.
  std::shared_lock<std::shared_mutex> permit;
  if (request.auth_mode == protocol::AuthMode::kOtp) {
    permit = cluster_write_permit(request.username);
  }
  gsi::Credential stored = timed_us(stats_.get_open_us, [&] {
    return repository_->open(*record, request.passphrase,
                             request.auth_mode == protocol::AuthMode::kOtp);
  });
  permit = {};

  stats_.gets.fetch_add(1, std::memory_order_relaxed);
  delegate_to_peer(channel, stored, *record, request.lifetime,
                   request.want_limited);
}

// --- RENEW (§6.6) -----------------------------------------------------------

void MyProxyServer::handle_renew(net::Channel& channel,
                                 const Request& request,
                                 const pki::VerifiedIdentity& peer,
                                 const Record& record) {
  // The renewer presents the credential it renews, so the stored chain is
  // usually part of the one the handshake just verified.
  gsi::Credential stored = repository_->open_for_renewal(*record, peer.chain);

  stats_.renewals.fetch_add(1, std::memory_order_relaxed);
  delegate_to_peer(channel, stored, *record, request.lifetime,
                   request.want_limited);
}

void MyProxyServer::delegate_to_peer(
    net::Channel& channel, const gsi::Credential& credential,
    const repository::CredentialRecord& record, Seconds requested_lifetime,
    bool want_limited) {
  const auto& policy = repository_->policy();
  Seconds lifetime = requested_lifetime > Seconds(0)
                         ? requested_lifetime
                         : policy.default_delegation_lifetime;
  lifetime = std::min(lifetime, record.max_delegation_lifetime);
  lifetime = std::min(lifetime, policy.max_delegation_lifetime);

  gsi::ProxyOptions options;
  options.lifetime = lifetime;
  options.limited = want_limited || record.always_limited;
  if (record.restriction.has_value()) {
    options.restriction = pki::RestrictionPolicy::parse(*record.restriction);
  }

  channel.send(Response::make_ok().serialize());
  const std::string csr_pem = channel.receive();
  const std::string chain_pem =
      gsi::delegate_credential(credential, csr_pem, options);
  channel.send(chain_pem);
}

// --- Metadata commands -------------------------------------------------------

void MyProxyServer::handle_info(net::Channel& channel, const Request&,
                                const pki::VerifiedIdentity&,
                                const Record& record) {
  Response response;
  response.fields["OWNER"] = record->owner_dn;
  response.fields["NOT_AFTER"] = std::to_string(to_unix(record->not_after));
  response.fields["CREATED_AT"] =
      std::to_string(to_unix(record->created_at));
  response.fields["MAX_LIFETIME"] =
      std::to_string(record->max_delegation_lifetime.count());
  response.fields["SEALING"] = std::string(to_string(record->sealing));
  if (record->otp.has_value()) {
    response.fields["OTP_REMAINING"] = std::to_string(record->otp->remaining);
  }
  if (record->always_limited) response.fields["LIMITED"] = "1";
  if (record->restriction.has_value()) {
    response.fields["RESTRICTION"] = *record->restriction;
  }
  channel.send(response.serialize());
}

void MyProxyServer::handle_list(net::Channel& channel,
                                const Request& request,
                                const pki::VerifiedIdentity&, const Record&) {
  Response response;
  if (!request.task.empty()) {
    // Wallet selection (§6.2): answer with the single best credential.
    const auto chosen =
        repository_->select_for_task(request.username, request.task);
    if (!chosen.has_value()) {
      throw NotFoundError("no credential matches the requested task");
    }
    response.fields["SELECTED"] = chosen->name;
  } else {
    std::string names;
    for (const auto& info : repository_->list(request.username)) {
      if (!names.empty()) names += '\x1f';
      names += info.name.empty() ? "(default)" : info.name;
    }
    if (names.empty()) {
      throw NotFoundError(fmt::format("no credentials stored for '{}'",
                                      request.username));
    }
    response.fields["NAMES"] = names;
  }
  channel.send(response.serialize());
}

void MyProxyServer::handle_destroy(net::Channel& channel,
                                   const Request& request,
                                   const pki::VerifiedIdentity&,
                                   const Record&) {
  const auto permit = cluster_write_permit(request.username);
  repository_->destroy(request.username, request.credential_name);
  channel.send(Response::make_ok().serialize());
}

void MyProxyServer::handle_change_passphrase(net::Channel& channel,
                                             const Request& request,
                                             const pki::VerifiedIdentity&,
                                             const Record&) {
  const auto permit = cluster_write_permit(request.username);
  repository_->change_passphrase(request.username, request.passphrase,
                                 request.new_passphrase,
                                 request.credential_name);
  channel.send(Response::make_ok().serialize());
}

// --- STORE / RETRIEVE (§6.1 long-term credential management) ----------------

void MyProxyServer::handle_store(net::Channel& channel,
                                 const Request& request,
                                 const pki::VerifiedIdentity& peer,
                                 const Record&) {
  channel.send(Response::make_ok().serialize());
  // STORE ships the whole credential (certificate + key), unlike PUT which
  // delegates a proxy. The transport is encrypted; at rest the credential
  // is pass-phrase sealed like any other record.
  const std::string pem = channel.receive();
  gsi::Credential credential = gsi::Credential::from_pem(pem);
  const pki::VerifiedIdentity stored_identity =
      trust_store_.verify(credential.full_chain(), config_.verify_options);
  if (!(stored_identity.identity == peer.identity)) {
    throw AuthorizationError(
        "stored identity does not match connection identity");
  }
  repository::StoreOptions options;
  options.name = request.credential_name;
  options.max_delegation_lifetime = request.lifetime;
  options.retriever_patterns = request.retriever_patterns;
  options.renewer_patterns = request.renewer_patterns;
  options.task_tags = request.task;
  options.restriction = request.restriction;
  options.long_term = true;
  const auto permit = cluster_write_permit(request.username);
  timed_us(stats_.put_store_us, [&] {
    repository_->store(request.username, request.passphrase,
                       peer.identity.str(), credential, options);
  });
  stats_.puts.fetch_add(1, std::memory_order_relaxed);
  channel.send(Response::make_ok().serialize());
}

void MyProxyServer::handle_retrieve(net::Channel& channel,
                                    const Request& request,
                                    const pki::VerifiedIdentity&,
                                    const Record& record) {
  std::shared_lock<std::shared_mutex> permit;
  if (request.auth_mode == protocol::AuthMode::kOtp) {
    permit = cluster_write_permit(request.username);
  }
  gsi::Credential stored = timed_us(stats_.get_open_us, [&] {
    return repository_->open(*record, request.passphrase,
                             request.auth_mode == protocol::AuthMode::kOtp);
  });
  permit = {};
  channel.send(Response::make_ok().serialize());
  const SecureBuffer pem = stored.to_pem();
  channel.send(pem.view());
  stats_.gets.fetch_add(1, std::memory_order_relaxed);
}

// --- Replication (REPLICA_SYNC / STATS) --------------------------------------

void MyProxyServer::handle_replica_sync(net::Channel& channel,
                                        const Request& request,
                                        const pki::VerifiedIdentity& peer,
                                        const Record&) {
  if (config_.replication_role != replication::ReplicationRole::kPrimary ||
      config_.journal == nullptr) {
    throw PolicyError("this server is not a replication primary");
  }
  const auto& journal = *config_.journal;

  stats_.repl_replicas_connected.fetch_add(1, std::memory_order_relaxed);
  struct Gauge {
    std::atomic<std::uint64_t>& gauge;
    ~Gauge() { gauge.fetch_sub(1, std::memory_order_relaxed); }
  } gauge{stats_.repl_replicas_connected};

  replication::Shipper shipper(journal, channel, config_.replication_batch);
  const std::uint64_t replica_seq = request.sequence;
  // The journal is never trimmed, so it can tail any offset up to its
  // tip; a fresh replica or one past the tip needs a full snapshot.
  // (sequence == 0 always snapshots: the store may hold records that
  // predate the journal.)
  const bool need_snapshot =
      replica_seq == 0 || replica_seq > journal.last_sequence();
  Response response;
  std::string detail;
  if (need_snapshot) {
    // The snapshot is the shipper's copy of the whole store, consistent as
    // of the cursor it captured before reading the store.
    response.fields["MODE"] = "snapshot";
    response.fields["SNAPSHOT_SEQ"] = std::to_string(shipper.cursor());
    channel.send(response.serialize());
    shipper.copy(repository_->store());
    shipper.finish();
    const std::uint64_t records = shipper.shipped();
    stats_.repl_snapshots_served.fetch_add(1, std::memory_order_relaxed);
    stats_.repl_snapshot_records.fetch_add(records,
                                           std::memory_order_relaxed);
    detail = fmt::format("snapshot served: {} record(s) through sequence {}",
                         records, shipper.cursor());
    log::info(kLogComponent, "replica '{}': {}", peer.identity.str(), detail);
  } else {
    shipper.seek(replica_seq);
    response.fields["MODE"] = "tail";
    channel.send(response.serialize());
    detail = fmt::format("replica connected at sequence {}", replica_seq);
  }
  audit_.record({now(), "REPLICA_SYNC", peer.identity.str(), "",
                 AuditOutcome::kSuccess, detail});

  // Stream loop: the replica acks each batch; a silent or dead replica
  // trips the request deadline and ends the stream.
  bool was_lagging = false;
  try {
    shipper.follow(stopping_, [&](std::uint64_t acked, std::size_t entries) {
      stats_.repl_batches_shipped.fetch_add(1, std::memory_order_relaxed);
      stats_.repl_ops_shipped.fetch_add(entries, std::memory_order_relaxed);
      stats_.repl_last_acked_seq.store(acked, std::memory_order_relaxed);

      const std::uint64_t tip = journal.last_sequence();
      const std::uint64_t lag = tip > acked ? tip - acked : 0;
      const bool lagging = lag > config_.replication_batch;
      if (lagging && !was_lagging) {
        audit_.record({now(), "REPLICA_SYNC", peer.identity.str(), "",
                       AuditOutcome::kError,
                       fmt::format("replica lagging: {} entries behind",
                                   lag)});
      }
      was_lagging = lagging;
    });
  } catch (const IoError& e) {
    // Replica went away (failover drill, crash, or network): end the
    // stream quietly; it will reconnect and resume from its acked offset.
    audit_.record({now(), "REPLICA_SYNC", peer.identity.str(), "",
                   AuditOutcome::kError,
                   fmt::format("replica stream ended: {}", e.what())});
    log::info(kLogComponent, "replica '{}' stream ended: {}",
              peer.identity.str(), e.what());
  }
}

// --- Cluster (CLUSTER_MAP / MIGRATE / MIGRATE_INSTALL) -----------------------

void MyProxyServer::set_cluster(cluster::ClusterMap map,
                                std::uint16_t self_port) {
  if (map.empty()) {
    throw ConfigError("set_cluster requires a non-empty shard map");
  }
  if (self_port == 0) {
    throw ConfigError(
        "clustering requires cluster_self (this node's primary port)");
  }
  const std::lock_guard lock(cluster_mutex_);
  cluster_map_ = std::move(map);
  cluster_self_ = self_port;
  log::info(kLogComponent,
            "cluster map installed: epoch {}, {} shard(s), {} owned here",
            cluster_map_.epoch(), cluster_map_.shard_count(),
            cluster_map_.owned_shards(cluster_self_).size());
}

cluster::ClusterMap MyProxyServer::cluster_map() const {
  const std::lock_guard lock(cluster_mutex_);
  return cluster_map_;
}

std::optional<Response> MyProxyServer::cluster_refusal_for(
    const std::string& username) {
  const std::lock_guard lock(cluster_mutex_);
  if (cluster_map_.empty() || username.empty()) return std::nullopt;
  const std::uint32_t shard = cluster_map_.shard_of(username);
  if (cluster_map_.owns(cluster_self_, shard)) return std::nullopt;
  const cluster::ShardNode& owner = cluster_map_.node(shard);
  Response refusal = Response::make_error(fmt::format(
      "wrong shard: this node does not own shard {} (map epoch {})", shard,
      cluster_map_.epoch()));
  refusal.fields["WRONG_SHARD"] = "1";
  refusal.fields["SHARD"] = std::to_string(shard);
  refusal.fields["EPOCH"] = std::to_string(cluster_map_.epoch());
  refusal.fields["PRIMARY"] = std::to_string(owner.primary);
  return refusal;
}

std::shared_lock<std::shared_mutex> MyProxyServer::cluster_write_permit(
    const std::string& username) {
  std::shared_lock<std::shared_mutex> permit(fence_mutex_);
  const std::int64_t fenced = fenced_shard_.load(std::memory_order_acquire);
  if (fenced >= 0) {
    const std::lock_guard lock(cluster_mutex_);
    if (!cluster_map_.empty() &&
        static_cast<std::int64_t>(cluster_map_.shard_of(username)) ==
            fenced) {
      throw MigrationFenced{};
    }
  }
  // Ownership may have moved while this request was mid-protocol (the
  // cutover completed between the dispatch check and the mutation):
  // re-check under the permit so a write can never land on a shard this
  // node no longer owns.
  if (auto refusal = cluster_refusal_for(username)) {
    throw ClusterRefusal{std::move(*refusal)};
  }
  return permit;
}

void MyProxyServer::handle_cluster_map(net::Channel& channel, const Request&,
                                       const pki::VerifiedIdentity&,
                                       const Record&) {
  std::string text;
  Response response;
  {
    const std::lock_guard lock(cluster_mutex_);
    if (cluster_map_.empty()) {
      throw PolicyError("clustering is not enabled on this server");
    }
    text = cluster_map_.serialize();
    response.fields["EPOCH"] = std::to_string(cluster_map_.epoch());
    response.fields["SHARDS"] = std::to_string(cluster_map_.shard_count());
  }
  // The serialized map is multi-line, which response fields cannot carry;
  // it travels as its own frame after the response.
  channel.send(response.serialize());
  channel.send(text);
}

void MyProxyServer::handle_migrate(net::Channel& channel,
                                   const Request& request,
                                   const pki::VerifiedIdentity& peer,
                                   const Record&) {
  if (config_.replication_role == replication::ReplicationRole::kReplica) {
    throw PolicyError("shard migration must run on the shard's primary");
  }
  if (config_.journal == nullptr) {
    throw PolicyError("shard migration requires a journaling primary");
  }
  const auto target = strings::parse_u64(request.target);
  if (!target.has_value() || *target == 0 || *target > 0xffff) {
    throw PolicyError("MIGRATE requires TARGET=<target primary port>");
  }
  const auto target_port = static_cast<std::uint16_t>(*target);
  const std::uint32_t shard = request.shard;

  cluster::ClusterMap map;
  {
    const std::lock_guard lock(cluster_mutex_);
    if (cluster_map_.empty()) {
      throw PolicyError("clustering is not enabled on this server");
    }
    map = cluster_map_;
  }
  if (shard >= map.shard_count()) {
    throw PolicyError(fmt::format("no shard {} (map has {} shard(s))", shard,
                                  map.shard_count()));
  }
  if (!map.owns(cluster_self_, shard)) {
    throw PolicyError(fmt::format(
        "this node does not own shard {}; run MIGRATE on its owner", shard));
  }
  if (target_port == cluster_self_) {
    throw PolicyError("target node already owns the shard");
  }

  bool not_migrating = false;
  if (!migration_in_flight_.compare_exchange_strong(not_migrating, true)) {
    throw PolicyError("a shard migration is already in flight");
  }
  // Unwinds the fence and the in-flight flag on every exit path — a failed
  // migration must leave the node serving writes again.
  struct MigrationScope {
    MyProxyServer& server;
    ~MigrationScope() {
      server.fenced_shard_.store(-1, std::memory_order_release);
      server.migration_in_flight_.store(false, std::memory_order_release);
    }
  } scope{*this};

  stats_.cluster_migrations_started.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t new_epoch = map.epoch() + 1;
  log::info(kLogComponent,
            "migrating shard {} to primary port {} (epoch {} -> {})", shard,
            target_port, map.epoch(), new_epoch);

  // Open the install stream to the new owner (mutual TLS, same trust roots
  // as every other channel in the system). The target receives every
  // sealed record of the shard, which is enough for an offline pass-phrase
  // attack, so a trusted chain is not enough: it must also be a cluster
  // member, as its own MIGRATE_INSTALL check demands of this node.
  tls::TlsContext out_context = tls::TlsContext::make(host_credential_);
  auto out = tls::TlsChannel::connect(
      out_context, net::tcp_connect(target_port, config_.handshake_timeout),
      config_.request_timeout);
  const pki::VerifiedIdentity target_peer =
      trust_store_.verify(out->peer_chain());
  if (!config_.cluster_admin_acl.allows(target_peer.identity)) {
    throw PolicyError(
        fmt::format("migration target '{}' is not in cluster_admin_acl",
                    target_peer.identity.str()));
  }
  Request install;
  install.command = Command::kMigrateInstall;
  install.shard = shard;
  install.sequence = new_epoch;  // SEQ carries the post-migration epoch
  out->send(install.serialize());
  const Response opened = Response::parse(out->receive());
  if (!opened.ok()) {
    throw PolicyError(fmt::format("target refused the migrating shard: {}",
                                  opened.error));
  }

  const auto in_shard = [&map, shard](std::string_view username) {
    return map.shard_of(username) == shard;
  };
  replication::Shipper shipper(*config_.journal, *out,
                               config_.replication_batch, in_shard);

  // Phase 1 — bulk copy of the shard, consistent as of the journal cursor
  // the shipper captured before reading the store.
  shipper.copy(repository_->store());

  // Phase 2 — catch-up replay of writes that landed during the copy.
  shipper.drain();

  // Phase 3 — cutover. Fence new writes to the shard, then take the fence
  // barrier: the exclusive acquisition returns only once every write that
  // already held a permit has committed and journaled. The drain after it
  // is therefore final — nothing for this shard can enter the journal
  // until ownership has moved.
  fenced_shard_.store(static_cast<std::int64_t>(shard),
                      std::memory_order_release);
  { const std::unique_lock<std::shared_mutex> barrier(fence_mutex_); }
  shipper.drain();
  shipper.finish();

  // Phase 4 — commit: the target adopts the shard at the new epoch.
  out->send(fmt::format("COMMIT {}", new_epoch));
  const Response committed = Response::parse(out->receive());
  if (!committed.ok()) {
    throw PolicyError(fmt::format("target refused migration commit: {}",
                                  committed.error));
  }

  // Phase 5 — flip local ownership. From here writes for the shard get a
  // WRONG_SHARD refusal naming the new owner (the fence lifts when `scope`
  // unwinds).
  {
    const std::lock_guard lock(cluster_mutex_);
    cluster_map_.reassign(shard, map.node_endpoints(target_port), new_epoch);
  }

  // Phase 6 — drop the moved range locally. Ordinary journaled removals,
  // so this node's own replicas forget the range too. The target has been
  // the owner of record since the commit, so a crash mid-loop strands only
  // unreachable dead records, never live ones. Writes to the shard are
  // refused from the flip on, so this walk sees every username the copy
  // and the drains shipped.
  auto& store = repository_->store_mutable();
  std::size_t moved_users = 0;
  for (const auto& username : store.usernames()) {
    if (!in_shard(username)) continue;
    (void)store.remove_all(username);
    ++moved_users;
  }

  const std::uint64_t shipped = shipper.shipped();
  stats_.cluster_records_migrated_out.fetch_add(shipped,
                                                std::memory_order_relaxed);
  stats_.cluster_migrations_completed.fetch_add(1, std::memory_order_relaxed);
  audit_.record({now(), "MIGRATE", peer.identity.str(), "",
                 AuditOutcome::kSuccess,
                 fmt::format("shard {} -> port {}: {} user(s), {} record(s), "
                             "epoch {}",
                             shard, target_port, moved_users, shipped,
                             new_epoch)});
  log::info(kLogComponent,
            "shard {} migrated to port {}: {} user(s), {} record(s)", shard,
            target_port, moved_users, shipped);
  Response done;
  done.fields["MOVED_USERS"] = std::to_string(moved_users);
  done.fields["MOVED_RECORDS"] = std::to_string(shipped);
  done.fields["EPOCH"] = std::to_string(new_epoch);
  channel.send(done.serialize());
}

void MyProxyServer::handle_migrate_install(net::Channel& channel,
                                           const Request& request,
                                           const pki::VerifiedIdentity& peer,
                                           const Record&) {
  if (config_.replication_role == replication::ReplicationRole::kReplica) {
    throw PolicyError("a replica cannot receive a shard");
  }
  {
    const std::lock_guard lock(cluster_mutex_);
    if (cluster_map_.empty()) {
      throw PolicyError("clustering is not enabled on this server");
    }
    if (request.shard >= cluster_map_.shard_count()) {
      throw PolicyError(fmt::format("no shard {} (map has {} shard(s))",
                                    request.shard,
                                    cluster_map_.shard_count()));
    }
    if (request.sequence <= cluster_map_.epoch()) {
      throw PolicyError(fmt::format(
          "stale migration epoch {} (map is already at {})",
          request.sequence, cluster_map_.epoch()));
    }
  }
  channel.send(Response::make_ok().serialize());
  log::info(kLogComponent,
            "receiving shard {} from '{}' (target epoch {})", request.shard,
            peer.identity.str(), request.sequence);

  // Apply through the repository's (replicated) store: each entry journals
  // locally, so this node's own replicas follow the incoming range. The
  // shipment (the shard's copy and its journal drains) ends before COMMIT.
  const std::uint64_t applied =
      replication::receive_shipment(channel, repository_->store_mutable())
          .entries;
  stats_.cluster_records_migrated_in.fetch_add(applied,
                                               std::memory_order_relaxed);
  const std::string commit = channel.receive();
  const auto epoch = commit.starts_with("COMMIT ")
                         ? strings::parse_u64(std::string_view(commit).substr(7))
                         : std::nullopt;
  if (!epoch.has_value() || *epoch != request.sequence) {
    throw ProtocolError("migration commit epoch mismatch");
  }
  {
    const std::lock_guard lock(cluster_mutex_);
    cluster_map_.reassign(request.shard,
                          cluster_map_.node_endpoints(cluster_self_), *epoch);
  }

  audit_.record({now(), "MIGRATE_INSTALL", peer.identity.str(), "",
                 AuditOutcome::kSuccess,
                 fmt::format("shard {} installed: {} record(s), epoch {}",
                             request.shard, applied, request.sequence)});
  log::info(kLogComponent, "shard {} installed: {} record(s), now epoch {}",
            request.shard, applied, request.sequence);
  channel.send(Response::make_ok().serialize());
}

// Single source of truth for every numeric counter the server exposes:
// handle_stats (STATS over TLS) and render_metrics (/metrics scrape) both
// read this, so the two surfaces agree by construction. Lock-free — only
// atomics and the striped store's size() are touched.
std::vector<std::pair<std::string, std::uint64_t>>
MyProxyServer::counter_snapshot() const {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(48);
  const auto put = [&out](std::string_view key, std::uint64_t value) {
    out.emplace_back(std::string(key), value);
  };
  put("CONNECTIONS", stats_.connections.load());
  put("PUTS", stats_.puts.load());
  put("GETS", stats_.gets.load());
  put("RENEWALS", stats_.renewals.load());
  put("AUTH_FAILURES", stats_.auth_failures.load());
  put("AUTHZ_FAILURES", stats_.authz_failures.load());
  put("PROTOCOL_ERRORS", stats_.protocol_errors.load());
  put("TIMEOUTS", stats_.timeouts.load());
  put("SHED_CONNECTIONS", stats_.shed_connections.load());
  put("IN_FLIGHT", in_flight());
  put("PEAK_IN_FLIGHT", stats_.peak_in_flight.load());
  put("FULL_HANDSHAKES", stats_.full_handshakes.load());
  put("RESUMED_HANDSHAKES", stats_.resumed_handshakes.load());
  put("KEYPOOL_HITS", stats_.keypool_hits.load());
  put("KEYPOOL_MISSES", stats_.keypool_misses.load());
  put("SWEEPS", stats_.sweeps.load());
  put("RECORDS_SWEPT", stats_.records_swept.load());
  put("STORE_RECORDS", repository_->size());
  put("PUT_STORE_US", stats_.put_store_us.load());
  put("GET_OPEN_US", stats_.get_open_us.load());

  const AdmissionController::Counters admission = admission_.counters();
  put("ADMISSION_ACCEPTED", admission.accepted);
  put("ADMISSION_SHED_RATE", admission.shed_rate);
  put("ADMISSION_SHED_QUEUE", admission.shed_queue);
  put("ADMISSION_PREAUTH_ACCEPTED", admission.preauth_accepted);
  put("ADMISSION_PREAUTH_SHED", admission.preauth_shed);
  put("ADMISSION_QUEUED", admission.queued);
  put("ADMISSION_IDENTITIES", admission.identities);

  if (key_pool_ != nullptr) {
    const auto pool_stats = key_pool_->stats();
    put("KEYPOOL_AVAILABLE", key_pool_->available());
    put("KEYPOOL_GENERATED", pool_stats.generated);
    put("KEYPOOL_DRAINED", pool_stats.drained);
  }
  if (config_.journal != nullptr) {
    put("REPL_JOURNAL_SEQ", config_.journal->last_sequence());
    put("REPL_LAST_ACKED_SEQ", stats_.repl_last_acked_seq.load());
    put("REPL_REPLICAS_CONNECTED", stats_.repl_replicas_connected.load());
    put("REPL_SNAPSHOTS_SERVED", stats_.repl_snapshots_served.load());
    put("REPL_SNAPSHOT_RECORDS", stats_.repl_snapshot_records.load());
    put("REPL_BATCHES_SHIPPED", stats_.repl_batches_shipped.load());
    put("REPL_OPS_SHIPPED", stats_.repl_ops_shipped.load());
  }
  if (replica_session_ != nullptr) {
    const auto& rs = replica_session_->stats();
    put("REPL_LAST_APPLIED_SEQ", rs.last_applied_sequence.load());
    put("REPL_LAG", rs.lag.load());
    put("REPL_CONNECTED", rs.connected.load() ? 1 : 0);
    put("REPL_SNAPSHOTS_INSTALLED", rs.snapshots_installed.load());
    put("REPL_OPS_APPLIED", rs.ops_applied.load());
    put("REPL_RECONNECTS", rs.reconnects.load());
  }
  put("REPL_REDIRECTS", stats_.repl_redirects.load());

  {
    const std::lock_guard lock(cluster_mutex_);
    if (!cluster_map_.empty()) {
      put("CLUSTER_EPOCH", cluster_map_.epoch());
      put("CLUSTER_SHARDS", cluster_map_.shard_count());
      put("CLUSTER_SHARDS_OWNED",
          cluster_map_.owned_shards(cluster_self_).size());
      put("CLUSTER_WRONG_SHARD", stats_.cluster_wrong_shard.load());
      put("CLUSTER_FENCED_WRITES", stats_.cluster_fenced_writes.load());
      put("CLUSTER_MIGRATION_ACTIVE",
          migration_in_flight_.load(std::memory_order_relaxed) ? 1 : 0);
      put("CLUSTER_MIGRATIONS_STARTED",
          stats_.cluster_migrations_started.load());
      put("CLUSTER_MIGRATIONS_COMPLETED",
          stats_.cluster_migrations_completed.load());
      put("CLUSTER_RECORDS_OUT", stats_.cluster_records_migrated_out.load());
      put("CLUSTER_RECORDS_IN", stats_.cluster_records_migrated_in.load());
    }
  }
  return out;
}

std::string MyProxyServer::render_metrics() const {
  std::string out;
  out.reserve(16384);
  for (const auto& [key, value] : counter_snapshot()) {
    std::string name = "myproxy_";
    for (const char c : key) {
      name += static_cast<char>(
          std::tolower(static_cast<unsigned char>(c)));
    }
    out += fmt::format("{} {}\n", name, value);
  }
  out += fmt::format("myproxy_repl_role{{role=\"{}\"}} 1\n",
                     replication::to_string(config_.replication_role));
  for (const auto& entry : admission_.top_identities(kTopIdentities)) {
    const std::string label = metrics_label_escape(entry.identity);
    out += fmt::format(
        "myproxy_admission_identity_served{{identity=\"{}\"}} {}\n", label,
        entry.served);
    out += fmt::format(
        "myproxy_admission_identity_shed{{identity=\"{}\"}} {}\n", label,
        entry.shed);
  }
  out += "# TYPE myproxy_op_latency_us histogram\n";
  for (std::size_t i = 0; i < ServerStats::kOpCount; ++i) {
    append_histogram(
        out, "myproxy_op_latency_us",
        fmt::format("op=\"{}\"",
                    protocol::to_string(static_cast<Command>(i))),
        stats_.op_latency[i].snapshot());
  }
  return out;
}

void MyProxyServer::handle_stats(net::Channel& channel, const Request&,
                                 const pki::VerifiedIdentity&, const Record&) {
  Response response;
  for (const auto& [key, value] : counter_snapshot()) {
    response.fields[key] = std::to_string(value);
  }
  response.fields["REPL_ROLE"] =
      std::string(replication::to_string(config_.replication_role));
  // Who is being shed (and served), heaviest shedder first — the aggregate
  // shed counters alone cannot name the noisy identity.
  std::size_t rank = 0;
  for (const auto& entry : admission_.top_identities(kTopIdentities)) {
    response.fields[fmt::format("ADMISSION_TOP{}", rank++)] = fmt::format(
        "served={} shed={} {}", entry.served, entry.shed, entry.identity);
  }
  channel.send(response.serialize());
}

}  // namespace myproxy::server
