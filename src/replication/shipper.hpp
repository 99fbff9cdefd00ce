// Copy-then-tail shipper, the one path that copies a credential store to a
// peer. REPLICA_SYNC ships the whole store and then follows the journal;
// MIGRATE ships one shard, then drains the journal up to a bounded tip.
// Frames are replication/wire.hpp's. The cursor is the journal tip taken
// before the copy reads the store: ReplicatedStore's stripes make the copy
// hold every operation up to it, and later ones that leak into the copy
// are shipped again by the tail, whose replay in journal order converges.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "net/channel.hpp"
#include "replication/journal.hpp"
#include "replication/wire.hpp"

namespace myproxy::replication {

class Shipper {
 public:
  /// Ships to `peer` at most `batch_limit` entries per acked BATCH frame,
  /// for the usernames `filter` accepts (all when it is empty).
  Shipper(const ReplicationJournal& journal, net::Channel& peer,
          std::size_t batch_limit,
          std::function<bool(std::string_view)> filter = {});

  /// Journal sequence shipped through.
  [[nodiscard]] std::uint64_t cursor() const { return cursor_; }
  /// Entries shipped so far.
  [[nodiscard]] std::uint64_t shipped() const { return shipped_; }
  /// Tail from `cursor` without a copy (a replica resuming at its offset).
  void seek(std::uint64_t cursor) { cursor_ = cursor; }

  /// Ship every accepted record as a put entry with sequence 0, holding
  /// one batch at a time.
  void copy(const repository::CredentialStore& store);
  /// Ship the accepted journal entries up to the tip seen at entry.
  void drain();
  /// End the shipment with COPY_END (the cursor and the entries shipped)
  /// and wait for its ack.
  void finish();
  /// Ship journal entries as they arrive, and an empty heartbeat batch
  /// after a quiet second, until `stopping` is set or the peer fails
  /// (IoError). `on_ack(acked, entries)` runs after each batch.
  void follow(const std::atomic<bool>& stopping,
              const std::function<void(std::uint64_t, std::size_t)>& on_ack);

 private:
  /// The next journal entries after the cursor that pass the filter; the
  /// cursor moves past every entry read.
  std::vector<JournalEntry> next();
  /// One BATCH frame, without waiting for its ack.
  void post(std::vector<JournalEntry> entries);
  /// One BATCH frame; returns the peer's ack.
  std::uint64_t send(std::vector<JournalEntry> entries);

  const ReplicationJournal& journal_;
  net::Channel& peer_;
  std::size_t batch_limit_;
  std::function<bool(std::string_view)> filter_;
  std::uint64_t cursor_;
  std::uint64_t shipped_ = 0;
};

/// Receiving end of a shipment: apply every entry of each batch to `store`
/// in order, acking every frame with the running entry count, through
/// COPY_END. Throws ProtocolError on any other frame or when the end
/// frame's count differs.
CopyEnd receive_shipment(net::Channel& peer,
                         repository::CredentialStore& store);

}  // namespace myproxy::replication
