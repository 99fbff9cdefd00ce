#include "replication/replica_session.hpp"

#include <sys/socket.h>

#include "common/error.hpp"
#include "common/format.hpp"
#include "common/logging.hpp"
#include "common/strings.hpp"
#include "net/socket.hpp"
#include "protocol/message.hpp"
#include "replication/shipper.hpp"

namespace myproxy::replication {

namespace {

constexpr std::string_view kLogComponent = "replication";

/// Deadline for dialing the primary, and per-read deadline on the stream.
/// The primary heartbeats every second, so a silent connection this old is
/// dead and worth re-dialing.
constexpr Millis kConnectTimeout{5000};
constexpr Millis kIoTimeout{5000};
constexpr Millis kMaxReconnectBackoff{5000};

}  // namespace

ReplicaSession::ReplicaSession(gsi::Credential credential,
                               pki::TrustStore trust_store,
                               repository::CredentialStore& store,
                               ReplicaConfig config, EventCallback on_event)
    : credential_(std::move(credential)),
      trust_store_(std::move(trust_store)),
      tls_context_(tls::TlsContext::make(credential_)),
      store_(store),
      config_(std::move(config)),
      on_event_(std::move(on_event)) {
  if (!config_.state_file.empty()) {
    stats_.last_applied_sequence.store(
        read_sequence_file(config_.state_file), std::memory_order_relaxed);
  }
}

ReplicaSession::~ReplicaSession() { stop(); }

void ReplicaSession::start() {
  if (thread_.joinable()) return;
  stopping_.store(false);
  thread_ = std::thread([this] { run(); });
}

void ReplicaSession::stop() {
  if (!stopping_.exchange(true)) {
    const std::scoped_lock lock(mutex_);
    if (stream_fd_ >= 0) (void)::shutdown(stream_fd_, SHUT_RDWR);
    cv_.notify_all();
  }
  if (thread_.joinable()) thread_.join();
}

bool ReplicaSession::wait_for_sequence(std::uint64_t sequence,
                                       Millis timeout) const {
  std::unique_lock lock(mutex_);
  return cv_.wait_for(lock, timeout, [&] {
    return stats_.last_applied_sequence.load(std::memory_order_relaxed) >=
           sequence;
  });
}

void ReplicaSession::emit(std::string_view event, std::string_view detail) {
  if (on_event_) on_event_(event, detail);
}

bool ReplicaSession::sleep_for(Millis duration) {
  std::unique_lock lock(mutex_);
  return !cv_.wait_for(lock, duration, [this] { return stopping_.load(); });
}

void ReplicaSession::run() {
  Millis backoff = config_.reconnect_backoff;
  while (!stopping_.load()) {
    try {
      sync_once();
      backoff = config_.reconnect_backoff;  // the connection did real work
    } catch (const std::exception& e) {
      stats_.connected.store(false, std::memory_order_relaxed);
      if (stopping_.load()) break;
      stats_.reconnects.fetch_add(1, std::memory_order_relaxed);
      emit("replica-disconnected", e.what());
      log::warn(kLogComponent,
                "replication stream to primary port {} failed ({}); "
                "retrying in {} ms",
                config_.primary_port, e.what(), backoff.count());
      if (!sleep_for(backoff)) break;
      backoff = std::min(backoff * 2, kMaxReconnectBackoff);
    }
  }
  stats_.connected.store(false, std::memory_order_relaxed);
}

void ReplicaSession::sync_once() {
  auto channel = tls::TlsChannel::connect(
      tls_context_, net::tcp_connect(config_.primary_port, kConnectTimeout),
      kIoTimeout);
  {
    const std::scoped_lock lock(mutex_);
    if (stopping_.load()) return;
    stream_fd_ = channel->fd();
  }
  struct Unregister {
    ReplicaSession& session;
    ~Unregister() {
      const std::scoped_lock lock(session.mutex_);
      session.stream_fd_ = -1;
    }
  } unregister{*this};
  // Mutual authentication (§5.1): the primary must prove it is the
  // repository we were configured to follow before we accept its records.
  const pki::VerifiedIdentity primary =
      trust_store_.verify(channel->peer_chain());

  protocol::Request request;
  request.command = protocol::Command::kReplicaSync;
  request.sequence =
      stats_.last_applied_sequence.load(std::memory_order_relaxed);
  channel->send(request.serialize());
  const protocol::Response response =
      protocol::Response::parse(channel->receive());
  if (!response.ok()) {
    throw Error(ErrorCode::kProtocol,
                fmt::format("primary refused replica sync: {}",
                            response.error));
  }

  const auto mode = response.fields.find("MODE");
  if (mode == response.fields.end()) {
    throw ProtocolError("replica sync response missing MODE");
  }
  if (mode->second == "snapshot") {
    const auto seq = response.fields.find("SNAPSHOT_SEQ");
    const auto snapshot_seq = seq == response.fields.end()
                                  ? std::nullopt
                                  : strings::parse_u64(seq->second);
    if (!snapshot_seq.has_value()) {
      throw ProtocolError("snapshot response without a valid SNAPSHOT_SEQ");
    }
    install_snapshot(*channel, *snapshot_seq);
  } else if (mode->second != "tail") {
    throw ProtocolError(
        fmt::format("unknown replica sync mode '{}'", mode->second));
  }

  stats_.connected.store(true, std::memory_order_relaxed);
  emit("replica-connected",
       fmt::format("primary '{}' port {} mode {}", primary.identity.str(),
                   config_.primary_port, mode->second));
  log::info(kLogComponent,
            "tailing primary on port {} from sequence {}",
            config_.primary_port,
            stats_.last_applied_sequence.load(std::memory_order_relaxed));

  while (!stopping_.load()) {
    const Batch batch = decode_batch(channel->receive());
    std::uint64_t applied =
        stats_.last_applied_sequence.load(std::memory_order_relaxed);
    std::size_t fresh = 0;
    for (const auto& entry : batch.entries) {
      // Entries at or below our offset are snapshot overlap; applying them
      // would regress newer state, so skip instead (apply is idempotent
      // only when replayed through to the tip).
      if (entry.sequence <= applied) continue;
      apply_entry(store_, entry);
      applied = entry.sequence;
      ++fresh;
    }
    stats_.ops_applied.fetch_add(fresh, std::memory_order_relaxed);
    {
      const std::scoped_lock lock(mutex_);
      stats_.last_applied_sequence.store(applied,
                                         std::memory_order_relaxed);
      stats_.lag.store(batch.primary_last_sequence > applied
                           ? batch.primary_last_sequence - applied
                           : 0,
                       std::memory_order_relaxed);
    }
    cv_.notify_all();
    if (fresh > 0) persist_state(applied);
    channel->send(encode_ack(applied));
  }
  channel->close();
}

void ReplicaSession::install_snapshot(net::Channel& channel,
                                      std::uint64_t snapshot_sequence) {
  // Wipe whatever partial or stale state this store holds: the snapshot is
  // authoritative, and a record deleted on the primary must not survive
  // here. The state file is untouched until the copy's end frame arrives
  // and agrees, so a crash or a protocol error anywhere in this function
  // re-runs the full bootstrap.
  for (const auto& username : store_.usernames()) {
    store_.remove_all(username);
  }
  const CopyEnd end = receive_shipment(channel, store_);
  if (end.sequence != snapshot_sequence) {
    throw ProtocolError(fmt::format(
        "snapshot announced sequence {} but its copy ended at {}",
        snapshot_sequence, end.sequence));
  }
  // Counters first: anyone woken by the sequence advancing below must
  // already see this bootstrap reflected in the stats.
  stats_.snapshots_installed.fetch_add(1, std::memory_order_relaxed);
  {
    const std::scoped_lock lock(mutex_);
    stats_.last_applied_sequence.store(snapshot_sequence,
                                       std::memory_order_relaxed);
  }
  cv_.notify_all();
  persist_state(snapshot_sequence);
  emit("snapshot-installed",
       fmt::format("{} record(s), sequence {}", end.entries,
                   snapshot_sequence));
  log::info(kLogComponent,
            "installed snapshot: {} record(s) through sequence {}",
            end.entries, snapshot_sequence);
}

void ReplicaSession::persist_state(std::uint64_t sequence) {
  if (config_.state_file.empty()) return;
  const std::string error = write_sequence_file(config_.state_file, sequence);
  if (!error.empty()) {
    log::warn(kLogComponent, "cannot persist replica state to '{}': {}",
              config_.state_file.string(), error);
  }
}

}  // namespace myproxy::replication
