// The repository stack under test, the in-memory span log, and the
// CredentialStore taps the traced run inserts between its layers.
//
// The stack is what tools/myproxy_server_main.cpp builds from
// etc/myproxy-server.config, with the benchmark's deviations applied on top
// (see shipped_config()).
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "core.hpp"
#include "gsi/credential.hpp"
#include "pki/certificate_authority.hpp"
#include "pki/trust_store.hpp"
#include "replication/journal.hpp"
#include "repository/repository.hpp"
#include "server/myproxy_server.hpp"

namespace perfbench {

namespace mp = myproxy;

// --- Spans ---------------------------------------------------------------------

std::int64_t now_ns();

/// One timed call. Client ops carry their request id; store-tap spans are
/// recorded with req == 0 and joined to a client op afterwards by username
/// and interval (join_spans).
struct Span {
  const char* layer = "";
  std::string key;  ///< username the call concerned
  std::uint64_t req = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Spans kept in memory for the traced phase, written out at the end.
class SpanLog {
 public:
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  void add(Span span);
  [[nodiscard]] std::vector<Span> take();

 private:
  std::atomic<bool> enabled_{false};
  std::mutex mutex_;
  std::vector<Span> spans_;
};

SpanLog& spans();

/// Assign every store span the request id of the client op with the same
/// username whose interval contains it; spans that match none keep req 0.
void join_spans(std::vector<Span>& spans);

/// Self time per layer (span duration minus the part covered by deeper
/// spans of the same request), in microseconds per client op.
std::map<std::string, double> self_time_us_per_op(const std::vector<Span>& spans);

/// Chrome trace-event JSON (chrome://tracing, Perfetto).
void write_trace(const std::vector<Span>& spans,
                 const std::filesystem::path& path);

// --- Store taps ----------------------------------------------------------------

/// Pass-through CredentialStore that, while spans() is enabled, counts and
/// times get/put and records a span per call (none when the layer name is
/// null). The inner store can be swapped, which is how the benchmark
/// preloads through the same Repository (and so the same master key) that
/// later serves: preload runs over a commit-sync-off store, then the served
/// stack opens the directory fresh underneath the tap.
class StoreTap final : public mp::repository::CredentialStore {
 public:
  using PutHook = std::function<void(const mp::repository::CredentialRecord&)>;

  StoreTap(std::unique_ptr<mp::repository::CredentialStore> inner,
           const char* get_layer, const char* put_layer);

  void reset(std::unique_ptr<mp::repository::CredentialStore> inner) {
    inner_ = std::move(inner);
  }

  /// Remember the start time of every put by key (replication lag base).
  void stamp_puts() { stamp_puts_ = true; }
  [[nodiscard]] std::optional<std::int64_t> put_stamp(
      const std::string& key) const;

  /// Called after each put while spans() is enabled.
  void on_put(PutHook hook) { on_put_ = std::move(hook); }

  struct Totals {
    std::uint64_t gets = 0;
    std::uint64_t puts = 0;
    double get_us = 0.0;
    double put_us = 0.0;
  };
  [[nodiscard]] Totals totals() const;

  void put(const mp::repository::CredentialRecord& record) override;
  [[nodiscard]] std::optional<mp::repository::CredentialRecord> get(
      std::string_view username, std::string_view name) const override;
  bool remove(std::string_view username, std::string_view name) override {
    return inner_->remove(username, name);
  }
  std::size_t remove_all(std::string_view username) override {
    return inner_->remove_all(username);
  }
  [[nodiscard]] std::vector<mp::repository::CredentialRecord> list(
      std::string_view username) const override {
    return inner_->list(username);
  }
  [[nodiscard]] std::size_t size() const override { return inner_->size(); }
  std::size_t sweep_expired() override { return inner_->sweep_expired(); }
  [[nodiscard]] std::vector<std::string> usernames() const override {
    return inner_->usernames();
  }

 private:
  std::unique_ptr<mp::repository::CredentialStore> inner_;
  const char* get_layer_;
  const char* put_layer_;
  bool stamp_puts_ = false;
  PutHook on_put_;
  mutable std::atomic<std::uint64_t> gets_{0};
  std::atomic<std::uint64_t> puts_{0};
  mutable std::atomic<std::uint64_t> get_ns_{0};
  std::atomic<std::uint64_t> put_ns_{0};
  mutable std::mutex stamp_mutex_;
  std::map<std::string, std::int64_t> stamps_;
};

// --- Virtual organization ------------------------------------------------------

/// CA plus the identities a workload needs. Names come from the seed; keys
/// come from OpenSSL's generator (they do not change what the server does).
struct User {
  std::string cn;
  mp::gsi::Credential eec;
  mp::gsi::Credential proxy;  ///< six-day proxy: what gets stored / used
};

class Pki {
 public:
  Pki(std::uint64_t seed, std::size_t portals, std::size_t users);

  [[nodiscard]] mp::pki::TrustStore trust() const;
  [[nodiscard]] const mp::gsi::Credential& host() const { return host_; }
  [[nodiscard]] const mp::gsi::Credential& replica_host() const {
    return replica_host_;
  }
  [[nodiscard]] const std::vector<mp::gsi::Credential>& portals() const {
    return portals_;
  }
  [[nodiscard]] const std::vector<User>& users() const { return users_; }
  [[nodiscard]] static std::string dn(std::string_view ou, std::string_view cn);

 private:
  mp::pki::CertificateAuthority ca_;
  mp::gsi::Credential host_;
  mp::gsi::Credential replica_host_;
  std::vector<mp::gsi::Credential> portals_;
  std::vector<User> users_;
};

inline constexpr std::string_view kReplicaCn = "myproxy-replica.example.org";

// --- Server stack --------------------------------------------------------------

/// etc/myproxy-server.config with the benchmark's deviations: admission
/// rates above the offered load (every loopback client shares one address
/// and few identities), the metrics listener on an ephemeral port, and —
/// for the replicated workload — primary role with an fsync'd journal.
/// Read from the current directory, the root of the checkout.
mp::Config shipped_config(bool replicated);

struct StackOptions {
  std::filesystem::path dir;  ///< fresh scratch directory for this stack
  bool traced = false;        ///< taps between the store layers
};

/// Repository + MyProxyServer assembled as the server tool does, plus one
/// in-process replica when the config makes the server a primary.
/// Construction opens the repository over a commit-sync-off store for
/// preload; serve() reopens the directory with the shipped store stack and
/// starts the server(s).
class Stack {
 public:
  Stack(const Pki& pki, mp::Config config, StackOptions options);
  ~Stack();
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  [[nodiscard]] mp::repository::Repository& repository() { return *repo_; }

  void serve();

  [[nodiscard]] std::uint16_t port() const { return server_->port(); }
  [[nodiscard]] mp::server::MyProxyServer& server() { return *server_; }
  [[nodiscard]] mp::repository::Repository* replica_repository() {
    return replica_repo_.get();
  }
  /// Wait until the replica has installed its snapshot and applied the
  /// journal tip.
  [[nodiscard]] bool drain_replica(mp::Millis timeout) const;

  [[nodiscard]] const StoreTap& front() const { return *front_; }
  [[nodiscard]] const StoreTap* above_journal() const { return above_journal_; }
  [[nodiscard]] const StoreTap* back() const { return back_; }
  /// Traced user_init: for each replicated put that landed at the replica,
  /// how long after the primary began that put.
  [[nodiscard]] std::vector<double> replica_lags_ms() const;

  /// Values in effect, for the provenance record.
  [[nodiscard]] const mp::server::ServerConfig& server_config() const {
    return server_config_;
  }
  [[nodiscard]] const mp::Config& config() const { return config_; }

 private:
  const Pki& pki_;
  mp::Config config_;
  StackOptions options_;
  StoreTap* front_ = nullptr;
  StoreTap* above_journal_ = nullptr;
  StoreTap* back_ = nullptr;
  mutable std::mutex lag_mutex_;
  std::vector<double> lags_ms_;
  std::shared_ptr<mp::replication::ReplicationJournal> journal_;
  std::shared_ptr<mp::repository::Repository> repo_;
  std::shared_ptr<mp::repository::Repository> replica_repo_;
  mp::server::ServerConfig server_config_;
  std::unique_ptr<mp::server::MyProxyServer> server_;
  std::unique_ptr<mp::server::MyProxyServer> replica_;
};

}  // namespace perfbench
