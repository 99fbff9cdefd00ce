// Wire framing for the replication stream (docs/PROTOCOL.md, "Replication
// sub-protocol"), shared by REPLICA_SYNC and MIGRATE_INSTALL. After the
// request/response exchange the connection stays open and alternates:
//   sender:    one batch message  "BATCH <primary_last_seq> <count>\n"
//              followed by <count> entry lines "E <seq> <type> <base64>\n"
//              (count may be 0: a heartbeat carrying the primary's tip so
//              the replica can track its lag)
//   receiver:  one ack message    "ACK <n>\n"
// Messages ride the usual 4-byte length-framed channel; TLS provides
// integrity, so entries are not re-checksummed on the wire (the journal
// checksums protect the at-rest copy).
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

[[nodiscard]] std::string encode_batch(const Batch& batch);
[[nodiscard]] Batch decode_batch(std::string_view message);

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
