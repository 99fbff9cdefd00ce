// Wire framing for the replication stream (docs/PROTOCOL.md, "Replication
// sub-protocol"), shared by REPLICA_SYNC and MIGRATE_INSTALL. After the
// request/response exchange the connection stays open and alternates:
//   sender:    one batch message  "BATCH <primary_last_seq> <count>\n"
//              followed by <count> journal entry lines, each
//              "E <seq> <type> <base64> <fnv1a64-hex>\n" exactly as the
//              journal file holds it (count may be 0: a heartbeat carrying
//              the primary's tip so the replica can track its lag)
//   receiver:  one ack message    "ACK <n>\n"
// Messages ride the usual 4-byte length-framed channel. The receiver
// verifies every entry's checksum and refuses the batch when one fails.
// A shipment (replication/shipper.hpp) copies a store as batches of put
// entries with sequence 0, then ends with the acked frame
// "COPY_END <seq> <entries>\n": the receiver now holds every journaled
// operation through <seq>, and <entries> entries were sent.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "replication/journal.hpp"

namespace myproxy::replication {

/// Role a server plays in a replication pair (replication_role config key).
enum class ReplicationRole {
  kStandalone,  ///< no replication (the default)
  kPrimary,     ///< journals writes and serves REPLICA_SYNC streams
  kReplica,     ///< read-only; tails a primary and redirects writes to it
};

[[nodiscard]] std::string_view to_string(ReplicationRole role) noexcept;
[[nodiscard]] ReplicationRole replication_role_from_string(
    std::string_view text);

struct Batch {
  std::uint64_t primary_last_sequence = 0;
  std::vector<JournalEntry> entries;
};

[[nodiscard]] Batch decode_batch(std::string_view message);

/// A BATCH frame being filled, the one batching rule of a store copy and
/// a journal tail: it takes entry lines until it holds `limit` of them or
/// the next would take the frame past net::kMaxMessageSize.
class BatchBuilder {
 public:
  explicit BatchBuilder(std::size_t limit);

  /// Add one entry line (without its newline); false, adding nothing,
  /// when the frame is full. An empty frame takes any line.
  bool add(std::string_view line);

  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }

  /// The frame, announcing `primary_last_sequence`; the builder is left
  /// empty.
  [[nodiscard]] std::string take(std::uint64_t primary_last_sequence);

 private:
  std::size_t limit_;
  std::size_t count_ = 0;
  std::string lines_;
};

[[nodiscard]] std::string encode_ack(std::uint64_t last_applied);
[[nodiscard]] std::uint64_t decode_ack(std::string_view message);

/// The end frame of a shipment.
struct CopyEnd {
  std::uint64_t sequence = 0;
  std::uint64_t entries = 0;
};

[[nodiscard]] std::string encode_copy_end(const CopyEnd& end);
/// nullopt when `message` is not an end frame; throws when it is a
/// malformed one.
[[nodiscard]] std::optional<CopyEnd> decode_copy_end(std::string_view message);

}  // namespace myproxy::replication
