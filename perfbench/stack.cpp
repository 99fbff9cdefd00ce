#include "stack.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <thread>

#include "common/error.hpp"
#include "common/format.hpp"
#include "gsi/proxy.hpp"
#include "replication/replicated_store.hpp"
#include "replication/wire.hpp"
#include "repository/cached_store.hpp"

namespace perfbench {

namespace fs = std::filesystem;
namespace repo = mp::repository;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// --- Spans ---------------------------------------------------------------------

void SpanLog::add(Span span) {
  const std::scoped_lock lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<Span> SpanLog::take() {
  const std::scoped_lock lock(mutex_);
  return std::exchange(spans_, {});
}

SpanLog& spans() {
  static SpanLog log;
  return log;
}

namespace {

/// Nesting depth of a layer: client op, then the store taps from the
/// Repository downwards.
int depth_of(std::string_view layer) {
  if (layer.starts_with("client.")) return 0;
  if (layer.starts_with("store.front.")) return 1;
  if (layer.starts_with("store.journal.")) return 2;
  if (layer.starts_with("store.back.")) return 3;
  return 4;
}

bool contains(const Span& outer, const Span& inner) {
  return outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns;
}

}  // namespace

void join_spans(std::vector<Span>& spans) {
  std::map<std::string, std::vector<const Span*>> ops_by_key;
  for (const Span& s : spans) {
    if (depth_of(s.layer) == 0) ops_by_key[s.key].push_back(&s);
  }
  for (Span& s : spans) {
    if (depth_of(s.layer) == 0) continue;
    const auto it = ops_by_key.find(s.key);
    if (it == ops_by_key.end()) continue;
    for (const Span* op : it->second) {
      if (contains(*op, s)) {
        s.req = op->req;
        break;
      }
    }
  }
}

std::map<std::string, double> self_time_us_per_op(
    const std::vector<Span>& spans) {
  std::map<std::uint64_t, std::vector<const Span*>> by_req;
  std::size_t ops = 0;
  for (const Span& s : spans) {
    if (s.req == 0) continue;
    by_req[s.req].push_back(&s);
    if (depth_of(s.layer) == 0) ++ops;
  }
  std::map<std::string, double> self_us;
  for (const auto& [req, group] : by_req) {
    for (const Span* s : group) {
      // Children: deeper spans inside this one with no span of an
      // intermediate depth between them.
      std::int64_t covered = 0;
      const int d = depth_of(s->layer);
      for (const Span* c : group) {
        const int dc = depth_of(c->layer);
        if (dc <= d || !contains(*s, *c)) continue;
        const bool direct = std::none_of(group.begin(), group.end(),
                                         [&](const Span* m) {
          const int dm = depth_of(m->layer);
          return dm > d && dm < dc && contains(*s, *m) && contains(*m, *c);
        });
        if (direct) covered += c->end_ns - c->start_ns;
      }
      self_us[s->layer] +=
          static_cast<double>(s->end_ns - s->start_ns - covered) / 1000.0;
    }
  }
  if (ops > 0) {
    for (auto& [layer, us] : self_us) us /= static_cast<double>(ops);
  }
  return self_us;
}

void write_trace(const std::vector<Span>& spans, const fs::path& path) {
  std::ofstream out(path);
  const std::int64_t base =
      spans.empty()
          ? 0
          : std::min_element(spans.begin(), spans.end(),
                             [](const Span& a, const Span& b) {
                               return a.start_ns < b.start_ns;
                             })->start_ns;
  out << "{\"traceEvents\":[\n";
  bool first = true;
  for (const Span& s : spans) {
    if (!first) out << ",\n";
    first = false;
    char line[512];
    std::snprintf(line, sizeof line,
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"user\":\"%s\","
                  "\"req\":%llu}}",
                  s.layer, static_cast<unsigned long long>(s.req),
                  static_cast<double>(s.start_ns - base) / 1000.0,
                  static_cast<double>(s.end_ns - s.start_ns) / 1000.0,
                  s.key.c_str(), static_cast<unsigned long long>(s.req));
    out << line;
  }
  out << "\n]}\n";
}

// --- Store taps ----------------------------------------------------------------

StoreTap::StoreTap(std::unique_ptr<repo::CredentialStore> inner,
                   const char* get_layer, const char* put_layer)
    : inner_(std::move(inner)), get_layer_(get_layer), put_layer_(put_layer) {}

void StoreTap::put(const repo::CredentialRecord& record) {
  if (!spans().enabled()) {
    inner_->put(record);
    return;
  }
  const std::int64_t t0 = now_ns();
  if (stamp_puts_) {
    const std::scoped_lock lock(stamp_mutex_);
    stamps_[record.key()] = t0;
  }
  inner_->put(record);
  const std::int64_t t1 = now_ns();
  puts_.fetch_add(1, std::memory_order_relaxed);
  put_ns_.fetch_add(static_cast<std::uint64_t>(t1 - t0),
                    std::memory_order_relaxed);
  if (put_layer_ != nullptr) {
    spans().add({put_layer_, record.username, 0, t0, t1});
  }
  if (on_put_) on_put_(record);
}

std::optional<repo::CredentialRecord> StoreTap::get(
    std::string_view username, std::string_view name) const {
  if (!spans().enabled()) return inner_->get(username, name);
  const std::int64_t t0 = now_ns();
  auto record = inner_->get(username, name);
  const std::int64_t t1 = now_ns();
  gets_.fetch_add(1, std::memory_order_relaxed);
  get_ns_.fetch_add(static_cast<std::uint64_t>(t1 - t0),
                    std::memory_order_relaxed);
  if (get_layer_ != nullptr) {
    spans().add({get_layer_, std::string(username), 0, t0, t1});
  }
  return record;
}

std::optional<std::int64_t> StoreTap::put_stamp(const std::string& key) const {
  const std::scoped_lock lock(stamp_mutex_);
  const auto it = stamps_.find(key);
  if (it == stamps_.end()) return std::nullopt;
  return it->second;
}

StoreTap::Totals StoreTap::totals() const {
  Totals t;
  t.gets = gets_.load();
  t.puts = puts_.load();
  t.get_us = static_cast<double>(get_ns_.load()) / 1000.0;
  t.put_us = static_cast<double>(put_ns_.load()) / 1000.0;
  return t;
}

// --- Virtual organization ------------------------------------------------------

namespace {

constexpr mp::Seconds kYear{365L * 24 * 3600};
constexpr mp::Seconds kStoredProxyLifetime{6L * 24 * 3600};

mp::gsi::Credential enroll(mp::pki::CertificateAuthority& ca,
                           const std::string& dn) {
  auto key = mp::crypto::KeyPair::generate(mp::crypto::KeySpec::ec());
  auto cert = ca.issue(mp::pki::DistinguishedName::parse(dn), key, kYear);
  return {std::move(cert), std::move(key)};
}

}  // namespace

std::string Pki::dn(std::string_view ou, std::string_view cn) {
  return mp::fmt::format("/C=US/O=Grid/OU={}/CN={}", ou, cn);
}

Pki::Pki(std::uint64_t seed, std::size_t portals, std::size_t users)
    : ca_(mp::pki::CertificateAuthority::create(
          mp::pki::DistinguishedName::parse("/C=US/O=Grid/CN=Perfbench CA"),
          mp::crypto::KeySpec::ec())) {
  Rng rng = Rng(seed).fork(0x706b69);
  host_ = enroll(ca_, dn("Services", "myproxy.example.org"));
  replica_host_ = enroll(ca_, dn("Services", kReplicaCn));
  for (std::size_t i = 0; i < portals; ++i) {
    portals_.push_back(
        enroll(ca_, dn("Portals", mp::fmt::format("portal{}-{}", i,
                                                  token(rng, 6)))));
  }
  users_.resize(users);
  for (std::size_t i = 0; i < users; ++i) {
    users_[i].cn = mp::fmt::format("user{}-{}", i, token(rng, 8));
  }
  // Key generation and signing dominate; spread them over the cores.
  const std::size_t threads = generator_threads();
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([this, t, threads] {
      for (std::size_t i = t; i < users_.size(); i += threads) {
        User& u = users_[i];
        u.eec = enroll(ca_, dn("People", u.cn));
        mp::gsi::ProxyOptions options;
        options.lifetime = kStoredProxyLifetime;
        u.proxy = mp::gsi::create_proxy(u.eec, options);
      }
    });
  }
  for (auto& w : workers) w.join();
}

mp::pki::TrustStore Pki::trust() const {
  mp::pki::TrustStore store;
  store.add_root(ca_.certificate());
  return store;
}

// --- Server stack --------------------------------------------------------------

mp::Config shipped_config(bool replicated) {
  mp::Config config = mp::Config::load("etc/myproxy-server.config");
  for (const char* key : {"rate_limit_rps", "rate_limit_burst",
                          "preauth_rate_limit_rps",
                          "preauth_rate_limit_burst"}) {
    config.set(key, "1000000");
  }
  config.set("metrics_port", "0");
  if (replicated) {
    config.set("replication_role", "primary");
    config.set("replication_sync_mode", "fsync");
    config.set("replica_acl", Pki::dn("Services", kReplicaCn));
  }
  return config;
}

namespace {

repo::FileStoreOptions store_options(const mp::Config& config,
                                     repo::SyncMode sync) {
  repo::FileStoreOptions options;
  options.shard_count = static_cast<std::size_t>(config.get_int_or(
      "store_shards", static_cast<std::int64_t>(options.shard_count)));
  options.sync_mode = sync;
  options.scan_threads =
      static_cast<std::size_t>(config.get_int_or("store_scan_threads", 0));
  return options;
}

repo::RepositoryPolicy repository_policy(const mp::Config& config) {
  repo::RepositoryPolicy policy;
  policy.max_stored_lifetime = mp::Seconds(config.get_int_or(
      "max_cred_lifetime", mp::kDefaultRepositoryLifetime.count()));
  policy.max_delegation_lifetime =
      mp::Seconds(config.get_int_or("max_proxy_lifetime", 24 * 3600));
  policy.default_delegation_lifetime = mp::Seconds(config.get_int_or(
      "default_proxy_lifetime", mp::kDefaultDelegatedLifetime.count()));
  policy.kdf_iterations = static_cast<unsigned>(config.get_int_or(
      "kdf_iterations", mp::crypto::kDefaultKdfIterations));
  policy.passphrase_policy.set_min_length(static_cast<std::size_t>(
      config.get_int_or("passphrase_min_length", 6)));
  return policy;
}

/// The ServerConfig fields myproxy-server reads from its config file, as
/// tools/myproxy_server_main.cpp reads them. Not read here: storage_dir,
/// replication_journal and replication_state_file (the stack places them
/// in its scratch directory), audit_log_file, metrics_bind_any,
/// replication_primary and the cluster_* keys; nor does this copy add the
/// tool's "*" defaults for empty accepted_credentials/authorized_retrievers
/// or reject an unknown delegation_key_type. Of these keys
/// etc/myproxy-server.config sets only storage_dir, which the benchmark
/// replaces by design.
mp::server::ServerConfig server_config_from(const mp::Config& config) {
  mp::server::ServerConfig sc;
  const auto count = [&config](std::string_view key, std::size_t fallback) {
    return static_cast<std::size_t>(
        config.get_int_or(key, static_cast<std::int64_t>(fallback)));
  };
  sc.worker_threads = count("worker_threads", sc.worker_threads);
  sc.handshake_timeout = mp::Millis(
      config.get_int_or("handshake_timeout_ms", sc.handshake_timeout.count()));
  sc.request_timeout = mp::Millis(
      config.get_int_or("request_timeout_ms", sc.request_timeout.count()));
  sc.max_connections = count("max_connections", sc.max_connections);
  sc.io_model = mp::server::io_model_from_string(
      config.get_or("io_model", std::string(to_string(sc.io_model))));
  sc.reactor_threads = count("reactor_threads", sc.reactor_threads);
  if (config.get_or("delegation_key_type", "ec") == "rsa") {
    sc.delegation_key_spec = mp::crypto::KeySpec::rsa(static_cast<unsigned>(
        config.get_int_or("delegation_key_bits", 2048)));
  } else {
    sc.delegation_key_spec = mp::crypto::KeySpec::ec();
  }
  sc.keygen_pool_size = count("keygen_pool_size", sc.keygen_pool_size);
  sc.keygen_pool_refill_threads =
      count("keygen_pool_refill_threads", sc.keygen_pool_refill_threads);
  sc.tls_session_resumption =
      config.get_int_or("tls_session_resumption",
                        sc.tls_session_resumption ? 1 : 0) != 0;
  sc.tls_session_timeout = mp::Seconds(config.get_int_or(
      "tls_session_timeout_s", sc.tls_session_timeout.count()));
  sc.sweep_interval = mp::Seconds(
      config.get_int_or("sweep_interval_s", sc.sweep_interval.count()));
  for (const auto& p : config.get_all("accepted_credentials")) {
    sc.accepted_credentials.add(p);
  }
  for (const auto& p : config.get_all("authorized_retrievers")) {
    sc.authorized_retrievers.add(p);
  }
  for (const auto& p : config.get_all("authorized_renewers")) {
    sc.authorized_renewers.add(p);
  }
  for (const auto& p : config.get_all("replica_acl")) sc.replica_acl.add(p);
  sc.replication_batch = count("replication_batch", sc.replication_batch);
  sc.admission = mp::server::admission_limits_from_config(config);
  sc.metrics_enabled = config.get_int_or("metrics_enabled", 0) != 0;
  sc.metrics_port =
      static_cast<std::uint16_t>(config.get_int_or("metrics_port", 0));
  sc.metrics_bind_address =
      config.get_or("metrics_bind_address", sc.metrics_bind_address);
  return sc;
}

}  // namespace

Stack::Stack(const Pki& pki, mp::Config config, StackOptions options)
    : pki_(pki), config_(std::move(config)), options_(std::move(options)) {
  fs::create_directories(options_.dir / "store");
  auto front = std::make_unique<StoreTap>(
      std::make_unique<repo::FileCredentialStore>(
          options_.dir / "store",
          store_options(config_, repo::SyncMode::kNone)),
      "store.front.get", "store.front.put");
  front_ = front.get();
  repo_ = std::make_shared<repo::Repository>(std::move(front),
                                             repository_policy(config_));
}

void Stack::serve() {
  // Close the preload store, then open the directory again the way the
  // server tool does: file store (startup index scan) -> journal -> cache.
  front_->reset(nullptr);
  const fs::path store_dir = options_.dir / "store";
  std::unique_ptr<repo::CredentialStore> store =
      std::make_unique<repo::FileCredentialStore>(
          store_dir,
          store_options(config_, repo::sync_mode_from_string(
                                     config_.get_or("store_sync_mode",
                                                    "fsync"))));
  if (options_.traced) {
    auto tap = std::make_unique<StoreTap>(std::move(store), "store.back.get",
                                          "store.back.put");
    back_ = tap.get();
    store = std::move(tap);
  }
  const auto role = mp::replication::replication_role_from_string(
      config_.get_or("replication_role", "standalone"));
  if (role == mp::replication::ReplicationRole::kPrimary) {
    const std::string journal_path = (options_.dir / "journal.log").string();
    journal_ = std::make_shared<mp::replication::ReplicationJournal>(
        journal_path,
        repo::sync_mode_from_string(
            config_.get_or("replication_sync_mode", "fsync")));
    store = std::make_unique<mp::replication::ReplicatedStore>(
        std::move(store), journal_, journal_path + ".watermark");
    if (options_.traced) {
      auto tap = std::make_unique<StoreTap>(
          std::move(store), "store.journal.get", "store.journal.put");
      tap->stamp_puts();
      above_journal_ = tap.get();
      store = std::move(tap);
    }
  }
  const auto cache_shards =
      static_cast<std::size_t>(config_.get_int_or("store_cache_shards", 8));
  if (cache_shards > 0) {
    store = std::make_unique<repo::CachedCredentialStore>(std::move(store),
                                                          cache_shards);
  }
  front_->reset(std::move(store));

  server_config_ = server_config_from(config_);
  server_config_.replication_role = role;
  server_config_.journal = journal_;
  server_ = std::make_unique<mp::server::MyProxyServer>(
      pki_.host(), pki_.trust(), repo_, server_config_);
  server_->start();

  if (role != mp::replication::ReplicationRole::kPrimary) return;
  const fs::path replica_dir = options_.dir / "replica";
  fs::create_directories(replica_dir);
  std::unique_ptr<repo::CredentialStore> replica_store =
      std::make_unique<repo::FileCredentialStore>(
          replica_dir / "store",
          store_options(config_, repo::sync_mode_from_string(
                                     config_.get_or("store_sync_mode",
                                                    "fsync"))));
  if (options_.traced && above_journal_ != nullptr) {
    // Replica side: no spans (its puts run outside any client op), only
    // the arrival time against the primary's stamp.
    auto tap = std::make_unique<StoreTap>(std::move(replica_store), nullptr,
                                          nullptr);
    tap->on_put([this](const repo::CredentialRecord& record) {
      if (const auto stamp = above_journal_->put_stamp(record.key())) {
        const std::scoped_lock lock(lag_mutex_);
        lags_ms_.push_back(static_cast<double>(now_ns() - *stamp) / 1e6);
      }
    });
    replica_store = std::move(tap);
  }
  replica_repo_ = std::make_shared<repo::Repository>(
      std::move(replica_store), repository_policy(config_));
  mp::server::ServerConfig rc = server_config_from(config_);
  rc.metrics_enabled = false;
  rc.replication_role = mp::replication::ReplicationRole::kReplica;
  rc.replication_primary_port = server_->port();
  rc.replication_state_file = replica_dir / "replica.state";
  replica_ = std::make_unique<mp::server::MyProxyServer>(
      pki_.replica_host(), pki_.trust(), replica_repo_, rc);
  replica_->start();
}

bool Stack::drain_replica(mp::Millis timeout) const {
  if (replica_ == nullptr) return true;
  const auto deadline = Clock::now() + timeout;
  const auto* session = replica_->replica_session();
  while (session == nullptr ||
         session->stats().snapshots_installed.load() == 0) {
    if (Clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    session = replica_->replica_session();
  }
  const auto left = std::chrono::duration_cast<mp::Millis>(
      deadline - Clock::now());
  return session->wait_for_sequence(journal_->last_sequence(),
                                    std::max(left, mp::Millis(1)));
}

std::vector<double> Stack::replica_lags_ms() const {
  const std::scoped_lock lock(lag_mutex_);
  return lags_ms_;
}

Stack::~Stack() {
  if (replica_ != nullptr) replica_->stop();
  if (server_ != nullptr) server_->stop();
}

}  // namespace perfbench
