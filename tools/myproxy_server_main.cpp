// myproxy-server: run the online credential repository (paper §4).
//
// Usage:
//   myproxy-server --port 7512 --cred hostcred.pem --trust ca.pem
//       [--config myproxy-server.config] [--storage /var/myproxy]
//
// Config keys (myproxy-server.config style):
//   accepted_credentials  "<dn glob>"      # who may store (repeatable)
//   authorized_retrievers "<dn glob>"      # who may retrieve (repeatable)
//   authorized_renewers   "<dn glob>"      # who may renew (repeatable)
//   max_proxy_lifetime    <seconds>
//   default_proxy_lifetime <seconds>
//   max_cred_lifetime     <seconds>
//   kdf_iterations        <n>      # PBKDF2 work factor, 1..100000000
//   passphrase_min_length <n>
//   handshake_timeout_ms  <ms>     # TLS handshake deadline (0 = off)
//   request_timeout_ms    <ms>     # per-request idle deadline (0 = off)
//   max_connections       <n>      # in-flight connection cap (0 = off)
//   worker_threads        <n>
//   io_model              reactor  # the only front end; "threaded" was
//                                  # removed and is refused at startup
//   reactor_threads       <n>      # epoll event loops of the front end
//
// Hot-path tuning (keypair pool / TLS resumption / store cache):
//   delegation_key_type   rsa|ec   # server-side delegation keys (PUT)
//   delegation_key_bits   <n>      # RSA modulus bits (ignored for ec)
//   keygen_pool_size      <n>      # pre-generated keys kept ready (0 = off)
//   keygen_pool_refill_threads <n> # background keygen workers
//   tls_session_resumption 0|1     # abbreviated handshakes for repeat clients
//   tls_session_timeout_s <s>      # session ticket lifetime
//   store_cache_shards    <n>      # read-cache lock shards (0 = no cache)
//
// Store scaling / durability (sharded file store):
//   store_shards          <n>      # shard directory fanout (pinned at creation)
//   store_sync_mode       none|fsync  # PUT commit durability
//   store_scan_threads    <n>      # startup index-scan threads (0 = auto)
//   sweep_interval_s      <s>      # background expiry sweep period (0 = off)
//
// Replication & audit:
//   replication_role      standalone|primary|replica
//   replication_primary   <port>   # replica: port of the primary
//   replica_acl           "<dn glob>"  # primary: replica DNs (repeatable)
//   replication_batch     <n>      # primary: max entries per shipped batch
//   replication_journal   <path>   # primary journal (default <storage>/journal.log)
//   replication_sync_mode none|fsync  # journal append durability
//   replication_state_file <path>  # replica offset (default <storage>/replica.state)
//   audit_log_file        <path>   # append-only JSONL audit sink
//
// Sharded cluster (docs/PROTOCOL.md "Cluster sub-protocol"; values with
// spaces must be quoted):
//   cluster_shard         "<shard> <primary>[,<replica>...]"  # repeatable;
//                                  # ids must be dense 0..N-1 and identical
//                                  # on every node of the cluster
//   cluster_epoch         <n>      # map version (default 1)
//   cluster_self          <port>   # this node's primary port (required
//                                  # whenever cluster_shard keys are set;
//                                  # a replica names its primary's port)
//   cluster_admin_acl     "<dn glob>"  # who may MIGRATE and push
//                                  # MIGRATE_INSTALL streams (repeatable)
//
// Admission control & metrics (hot-reload the admission keys via SIGHUP):
//   rate_limit_rps        <r>      # per-identity token refill rate (0 = off)
//   rate_limit_burst      <n>      # per-identity burst (0 = derive from rate)
//   max_queued_per_identity <n>    # per-identity in-flight cap (0 = off);
//                                  # binds only below worker_threads
//   preauth_rate_limit_rps <r>     # per-peer-address pre-handshake rate
//   preauth_rate_limit_burst <n>
//   metrics_enabled       0|1      # plaintext-HTTP /metrics endpoint
//   metrics_port          <port>   # 0 = ephemeral
//   metrics_bind_address  <addr>   # loopback unless metrics_bind_any=1
//   metrics_bind_any      0|1      # allow a non-loopback metrics bind
#include <csignal>

#include "common/config.hpp"
#include "common/logging.hpp"
#include "replication/replicated_store.hpp"
#include "replication/wire.hpp"
#include "repository/cached_store.hpp"
#include "server/myproxy_server.hpp"
#include "tool_util.hpp"

namespace {

using namespace myproxy;  // NOLINT(google-build-using-namespace) tool main

volatile std::sig_atomic_t g_stop = 0;
void handle_signal(int) { g_stop = 1; }

void serve(const tools::Args& args) {
  const auto credential =
      tools::load_credential(args.get_or("--cred", "hostcred.pem"));
  auto trust = tools::load_trust_store(args.get_or("--trust", "ca.pem"));

  Config config;
  std::filesystem::path config_path;
  if (const auto path = args.get("--config")) {
    config = Config::load(*path);
    config_path = *path;
  }

  repository::RepositoryPolicy policy;
  policy.max_stored_lifetime =
      Seconds(config.get_int_or("max_cred_lifetime",
                                kDefaultRepositoryLifetime.count()));
  policy.max_delegation_lifetime =
      Seconds(config.get_int_or("max_proxy_lifetime", 24 * 3600));
  policy.default_delegation_lifetime = Seconds(config.get_int_or(
      "default_proxy_lifetime", kDefaultDelegatedLifetime.count()));
  policy.kdf_iterations = repository::kdf_iterations_from_config(config);
  policy.passphrase_policy.set_min_length(static_cast<std::size_t>(
      config.get_int_or("passphrase_min_length", 6)));

  const std::string storage_dir =
      args.get_or("--storage", config.get_or("storage_dir", ""));

  std::unique_ptr<repository::CredentialStore> store;
  if (args.has("--storage") || config.has("storage_dir")) {
    repository::FileStoreOptions store_options;
    store_options.shard_count = static_cast<std::size_t>(
        config.get_int_or("store_shards",
                          static_cast<std::int64_t>(
                              store_options.shard_count)));
    // Default to durable commits in the production tool; benches and tests
    // opt out explicitly.
    store_options.sync_mode = repository::sync_mode_from_string(
        config.get_or("store_sync_mode", "fsync"));
    store_options.scan_threads = static_cast<std::size_t>(
        config.get_int_or("store_scan_threads", 0));
    store = std::make_unique<repository::FileCredentialStore>(storage_dir,
                                                              store_options);
  } else {
    store = std::make_unique<repository::MemoryCredentialStore>();
  }

  const auto role = replication::replication_role_from_string(
      config.get_or("replication_role", "standalone"));
  std::shared_ptr<replication::ReplicationJournal> journal;
  if (role == replication::ReplicationRole::kPrimary) {
    // The journal wraps the innermost store so every mutation is sequenced
    // before the read cache sees it.
    const std::string journal_path = config.get_or(
        "replication_journal",
        storage_dir.empty() ? "" : storage_dir + "/journal.log");
    if (journal_path.empty()) {
      throw Error(ErrorCode::kConfig,
                  "replication_role=primary needs replication_journal "
                  "(or a storage directory to default into)");
    }
    journal = std::make_shared<replication::ReplicationJournal>(
        journal_path, repository::sync_mode_from_string(
                          config.get_or("replication_sync_mode", "fsync")));
    store = std::make_unique<replication::ReplicatedStore>(
        std::move(store), journal, journal_path + ".watermark");
  }

  const auto cache_shards =
      static_cast<std::size_t>(config.get_int_or("store_cache_shards", 8));
  if (cache_shards > 0) {
    store = std::make_unique<repository::CachedCredentialStore>(
        std::move(store), cache_shards);
  }
  auto repository = std::make_shared<repository::Repository>(
      std::move(store), std::move(policy));

  server::ServerConfig server_config;
  server_config.port = static_cast<std::uint16_t>(
      std::stoi(args.get_or("--port", "7512")));
  server_config.worker_threads = static_cast<std::size_t>(config.get_int_or(
      "worker_threads",
      static_cast<std::int64_t>(server_config.worker_threads)));
  server_config.handshake_timeout = Millis(config.get_int_or(
      "handshake_timeout_ms", server_config.handshake_timeout.count()));
  server_config.request_timeout = Millis(config.get_int_or(
      "request_timeout_ms", server_config.request_timeout.count()));
  server_config.max_connections = static_cast<std::size_t>(config.get_int_or(
      "max_connections",
      static_cast<std::int64_t>(server_config.max_connections)));
  server_config.io_model = server::io_model_from_string(
      config.get_or("io_model", std::string(to_string(server_config.io_model))));
  server_config.reactor_threads = static_cast<std::size_t>(config.get_int_or(
      "reactor_threads",
      static_cast<std::int64_t>(server_config.reactor_threads)));
  const std::string key_type = config.get_or("delegation_key_type", "ec");
  if (key_type == "rsa") {
    server_config.delegation_key_spec = crypto::KeySpec::rsa(
        static_cast<unsigned>(config.get_int_or("delegation_key_bits", 2048)));
  } else if (key_type == "ec") {
    server_config.delegation_key_spec = crypto::KeySpec::ec();
  } else {
    throw Error(ErrorCode::kConfig,
                "delegation_key_type must be 'rsa' or 'ec'");
  }
  server_config.keygen_pool_size = static_cast<std::size_t>(config.get_int_or(
      "keygen_pool_size",
      static_cast<std::int64_t>(server_config.keygen_pool_size)));
  server_config.keygen_pool_refill_threads =
      static_cast<std::size_t>(config.get_int_or(
          "keygen_pool_refill_threads",
          static_cast<std::int64_t>(server_config.keygen_pool_refill_threads)));
  server_config.tls_session_resumption =
      config.get_int_or("tls_session_resumption",
                        server_config.tls_session_resumption ? 1 : 0) != 0;
  server_config.tls_session_timeout = Seconds(config.get_int_or(
      "tls_session_timeout_s", server_config.tls_session_timeout.count()));
  server_config.sweep_interval = Seconds(config.get_int_or(
      "sweep_interval_s", server_config.sweep_interval.count()));
  for (const auto& pattern : config.get_all("accepted_credentials")) {
    server_config.accepted_credentials.add(pattern);
  }
  for (const auto& pattern : config.get_all("authorized_retrievers")) {
    server_config.authorized_retrievers.add(pattern);
  }
  for (const auto& pattern : config.get_all("authorized_renewers")) {
    server_config.authorized_renewers.add(pattern);
  }
  if (server_config.accepted_credentials.empty()) {
    server_config.accepted_credentials.add("*");
    log::warn("myproxy-server",
              "no accepted_credentials configured; accepting all "
              "authenticated storers");
  }
  if (server_config.authorized_retrievers.empty()) {
    server_config.authorized_retrievers.add("*");
    log::warn("myproxy-server",
              "no authorized_retrievers configured; accepting all "
              "authenticated retrievers");
  }

  server_config.replication_role = role;
  server_config.journal = journal;
  server_config.replication_batch = static_cast<std::size_t>(config.get_int_or(
      "replication_batch",
      static_cast<std::int64_t>(server_config.replication_batch)));
  for (const auto& pattern : config.get_all("replica_acl")) {
    server_config.replica_acl.add(pattern);
  }
  server_config.replication_primary_port = static_cast<std::uint16_t>(
      config.get_int_or("replication_primary", 0));
  server_config.replication_state_file = config.get_or(
      "replication_state_file",
      storage_dir.empty() ? "" : storage_dir + "/replica.state");
  server_config.audit_log_file = config.get_or("audit_log_file", "");

  server_config.cluster_map = cluster::cluster_map_from_config(config);
  if (!server_config.cluster_map.empty()) {
    server_config.cluster_self =
        static_cast<std::uint16_t>(config.get_int_or("cluster_self", 0));
    if (server_config.cluster_self == 0) {
      throw Error(ErrorCode::kConfig,
                  "cluster_shard keys need cluster_self (this node's "
                  "primary port) so the server knows which shards it owns");
    }
  }
  for (const auto& pattern : config.get_all("cluster_admin_acl")) {
    server_config.cluster_admin_acl.add(pattern);
  }

  server_config.admission = server::admission_limits_from_config(config);
  // Remember where the config came from so SIGHUP can re-read the
  // admission keys without a restart.
  server_config.config_file = config_path;
  server_config.metrics_enabled =
      config.get_int_or("metrics_enabled", 0) != 0;
  server_config.metrics_port = static_cast<std::uint16_t>(
      config.get_int_or("metrics_port",
                        static_cast<std::int64_t>(server_config.metrics_port)));
  server_config.metrics_bind_address =
      config.get_or("metrics_bind_address", server_config.metrics_bind_address);
  server_config.metrics_bind_any =
      config.get_int_or("metrics_bind_any", 0) != 0;
  if (role == replication::ReplicationRole::kPrimary &&
      server_config.replica_acl.empty()) {
    log::warn("myproxy-server",
              "replication_role=primary but replica_acl is empty; no "
              "replica will be able to connect");
  }

  server::MyProxyServer server(credential, std::move(trust), repository,
                               server_config);
  server.start();
  std::cout << "myproxy-server listening on port " << server.port() << '\n';
  if (server.metrics_port() != 0) {
    std::cout << "metrics on http://" << server_config.metrics_bind_address
              << ':' << server.metrics_port() << "/metrics\n";
  }

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  // Expiry cleanup runs on a server loop timer (sweep_interval_s); this
  // loop only waits for a shutdown signal.
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  server.stop();
}

}  // namespace

int main(int argc, char** argv) {
  const myproxy::tools::Args args(
      argc, argv, {"--port", "--cred", "--trust", "--config", "--storage"});
  return myproxy::tools::run_tool("myproxy-server", [&args] { serve(args); });
}
