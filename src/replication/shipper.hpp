// Copy-then-tail shipper, the one path that copies a credential store to a
// peer. REPLICA_SYNC ships the whole store and then follows the journal;
// MIGRATE ships one shard, then drains the journal up to a bounded tip.
// Frames are replication/wire.hpp's, filled by its BatchBuilder, so a copy
// and a tail cut frames by the same rule. The tail reads the journal file
// back from the shipper's own cursor, which starts at the journal tip taken
// before the copy reads the store: ReplicatedStore's stripes make the copy
// hold every operation up to it, and later ones that leak into the copy
// are shipped again by the tail, whose replay in journal order converges.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string_view>

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
  [[nodiscard]] std::uint64_t cursor() const { return cursor_.sequence; }
  /// Entries shipped so far.
  [[nodiscard]] std::uint64_t shipped() const { return shipped_; }
  /// Tail from `sequence` without a copy (a replica resuming at its
  /// offset); scans the journal from its start once.
  void seek(std::uint64_t sequence) { cursor_ = journal_.seek(sequence); }

  /// Ship every accepted record as a put entry with sequence 0, holding
  /// one batch at a time.
  void copy(const repository::CredentialStore& store);
  /// Ship the accepted journal entries up to the tip seen at entry.
  void drain();
  /// End the shipment with COPY_END (the cursor and the entries shipped)
  /// and wait for its ack.
  void finish();
  /// Ship journal entries as they arrive, and an empty heartbeat batch
  /// after a quiet second, until `stopping` is set (with the journal's
  /// wake_waiters(), so it returns at once) or the peer fails (IoError).
  /// `on_ack(acked, entries)` runs after each batch.
  void follow(const std::atomic<bool>& stopping,
              const std::function<void(std::uint64_t, std::size_t)>& on_ack);

 private:
  /// Fill the frame with the journal entries after the cursor, through
  /// sequence `last`, that pass the filter; the cursor moves past every
  /// entry read.
  void fill(std::uint64_t last);
  /// Send the frame, without waiting for its ack.
  void post();
  /// Send the frame; returns the peer's ack.
  std::uint64_t send();

  const ReplicationJournal& journal_;
  net::Channel& peer_;
  std::function<bool(std::string_view)> filter_;
  BatchBuilder frame_;
  ReplicationJournal::Cursor cursor_;
  std::uint64_t shipped_ = 0;
};

/// Receiving end of a shipment: apply every entry of each batch to `store`
/// in order, acking every frame with the running entry count, through
/// COPY_END. Throws ProtocolError on any other frame or when the end
/// frame's count differs.
CopyEnd receive_shipment(net::Channel& peer,
                         repository::CredentialStore& store);

}  // namespace myproxy::replication
