// Replica-side replication engine.
//
// Runs inside a myproxy-server configured with replication_role=replica: a
// background thread connects to the primary over mutually authenticated
// TLS (the replica's host credential must be on the primary's replica_acl),
// bootstraps from a copy of the primary's store (replication/shipper.hpp)
// when it has no usable offset, then tails the primary's journal, applying
// batched entries to the local store and acking applied offsets. The local
// server meanwhile serves read-only traffic from the same store.
//
// Crash consistency: the last-applied sequence is persisted to a state
// file *after* the snapshot is fully installed (and after each applied
// batch), via temp-file + rename. A crash between snapshot install and the
// state write leaves no state file, so the next start requests a fresh
// snapshot — partially installed state is never trusted or tailed from.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <mutex>
#include <thread>

#include "common/clock.hpp"
#include "gsi/credential.hpp"
#include "pki/trust_store.hpp"
#include "replication/wire.hpp"
#include "repository/credential_store.hpp"
#include "tls/tls_channel.hpp"

namespace myproxy::replication {

struct ReplicaConfig {
  /// Port of the primary myproxy-server (replication_primary).
  std::uint16_t primary_port = 0;

  /// Where the last-applied sequence is persisted; empty disables
  /// persistence (every start bootstraps with a full snapshot).
  std::filesystem::path state_file;

  /// Reconnect backoff (doubles up to 5 s after repeated failures).
  Millis reconnect_backoff{300};
};

/// Counters mirrored into the STATS command by the server.
struct ReplicaStats {
  std::atomic<std::uint64_t> snapshots_installed{0};
  std::atomic<std::uint64_t> ops_applied{0};
  std::atomic<std::uint64_t> reconnects{0};
  std::atomic<std::uint64_t> last_applied_sequence{0};
  /// Gauge: primary journal tip minus last applied, from the newest batch.
  std::atomic<std::uint64_t> lag{0};
  std::atomic<bool> connected{false};
};

class ReplicaSession {
 public:
  /// Observer hook for replication lifecycle events ("replica-connected",
  /// "snapshot-installed", "replica-disconnected"); the server feeds these
  /// into its audit log. Called from the session thread.
  using EventCallback =
      std::function<void(std::string_view event, std::string_view detail)>;

  /// `store` is the replica server's own credential store; entries are
  /// applied to it directly. It must outlive the session.
  ReplicaSession(gsi::Credential credential, pki::TrustStore trust_store,
                 repository::CredentialStore& store, ReplicaConfig config,
                 EventCallback on_event = {});
  ~ReplicaSession();

  ReplicaSession(const ReplicaSession&) = delete;
  ReplicaSession& operator=(const ReplicaSession&) = delete;

  void start();
  void stop();

  [[nodiscard]] const ReplicaStats& stats() const { return stats_; }

  /// Block until the replica has applied `sequence` (true) or `timeout`
  /// elapses (false). Tests and the failover bench use this to detect
  /// "caught up".
  [[nodiscard]] bool wait_for_sequence(std::uint64_t sequence,
                                       Millis timeout) const;

 private:
  void run();
  /// One connection lifetime: dial, sync (snapshot or tail), stream until
  /// error or stop. Throws on transport/protocol failure.
  void sync_once();
  /// Wipe the store, apply the primary's store copy, then adopt
  /// `snapshot_sequence` and persist it.
  void install_snapshot(net::Channel& channel,
                        std::uint64_t snapshot_sequence);
  void persist_state(std::uint64_t sequence);
  void emit(std::string_view event, std::string_view detail);
  /// Interruptible sleep; returns false when stop() was requested.
  [[nodiscard]] bool sleep_for(Millis duration);

  gsi::Credential credential_;
  pki::TrustStore trust_store_;
  tls::TlsContext tls_context_;
  repository::CredentialStore& store_;
  ReplicaConfig config_;
  EventCallback on_event_;

  std::thread thread_;
  std::atomic<bool> stopping_{false};
  mutable std::mutex mutex_;
  mutable std::condition_variable cv_;
  /// Socket of the live stream, -1 between connections (guarded by
  /// mutex_): stop() shuts it down so a blocked receive() returns at once.
  int stream_fd_ = -1;

  ReplicaStats stats_;
};

}  // namespace myproxy::replication
