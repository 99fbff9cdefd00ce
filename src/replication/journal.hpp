// Write-ahead replication journal for the credential store.
//
// The repository is the single online home of every user's delegated
// credentials (paper §4-§5), which makes it a single point of failure for
// every portal built on top of it. The journal is the primary half of the
// fix: every store mutation (put / remove / remove_all — which covers
// pass-phrase changes and OTP advances, since both commit through
// CredentialStore::put) is appended here as a sequenced, checksummed record
// *before* it is applied, and replicas tail the sequence over mutually
// authenticated TLS.
//
// The file is the only copy of the journal: readers (the shipper, the
// watermark replay) pread it back from a cursor, so memory stays bounded
// however long the journal grows. Durability follows the store's
// discipline: SyncMode::kNone trusts the page cache, kFsync issues
// fdatasync per append.
//
// On-disk format (text, one record per line, debuggable with tail/grep):
//   myproxy-journal-v1
//   E <sequence> <type> <base64(payload)> <fnv1a64-hex>
// The same entry line carries entries on the wire (replication/wire.hpp).
// A torn tail — the crash happened mid-append — fails the checksum or line
// framing; open() truncates the file back to the last intact record and the
// next append continues the sequence from there.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

#include "common/clock.hpp"
#include "repository/credential_store.hpp"

namespace myproxy::replication {

/// What a journal entry does to the store.
enum class OpType : int {
  kPut = 1,        ///< payload = CredentialRecord::serialize()
  kRemove = 2,     ///< payload = CredentialRecord::make_key(username, name)
  kRemoveAll = 3,  ///< payload = username
};

struct JournalEntry {
  std::uint64_t sequence = 0;
  OpType type = OpType::kPut;
  std::string payload;
};

/// The entry line, without its newline: "E <seq> <type> <base64(payload)>
/// <fnv1a64-hex>", the checksum covering everything before it.
[[nodiscard]] std::string encode_line(const JournalEntry& entry);

/// Parse one entry line (without its newline); nullopt when it is torn,
/// malformed or fails its checksum.
[[nodiscard]] std::optional<JournalEntry> decode_line(std::string_view line);

/// Bytes a journal read fetches per pread; a read holds one such chunk
/// (more only while a single line is longer).
inline constexpr std::size_t kJournalReadChunk = 64 * 1024;

/// Apply one journal entry to a store (idempotent: re-applying a suffix of
/// the journal after a crash converges to the same state). Shared by the
/// primary's recovery replay, the replica's tail loop and the receiving end
/// of a store copy. Throws ParseError on a malformed payload.
void apply_entry(repository::CredentialStore& store, const JournalEntry& entry);

/// Username a journal entry touches, decoded from its payload the same way
/// apply_entry reads it (the shipper filters a shard's entries by it).
/// Throws ParseError on a malformed payload.
[[nodiscard]] std::string entry_username(const JournalEntry& entry);

/// Replace the file at `path` with `sequence` (temp file + rename, never
/// fsynced). Returns why that failed; empty on success. The primary's
/// watermark and the replica's state file both use it.
std::string write_sequence_file(const std::filesystem::path& path,
                                std::uint64_t sequence);

/// The sequence write_sequence_file stored at `path`; 0 when it is
/// missing or unreadable.
[[nodiscard]] std::uint64_t read_sequence_file(
    const std::filesystem::path& path);

class ReplicationJournal {
 public:
  /// A reader's position: every entry through `sequence` has been read and
  /// the next line starts at byte `offset`.
  struct Cursor {
    std::uint64_t sequence = 0;
    std::uint64_t offset = 0;
  };

  /// Sees each entry a read reaches and its line (without the newline);
  /// returning false stops the read before that entry.
  using Visitor =
      std::function<bool(const JournalEntry& entry, std::string_view line)>;

  /// Opens (or creates) the journal at `path`, recovering a torn tail if
  /// the previous writer died mid-append.
  explicit ReplicationJournal(
      std::filesystem::path path,
      repository::SyncMode sync_mode = repository::SyncMode::kNone);
  ~ReplicationJournal();

  ReplicationJournal(const ReplicationJournal&) = delete;
  ReplicationJournal& operator=(const ReplicationJournal&) = delete;

  /// Append one entry; assigns and returns its sequence number. Durable per
  /// the sync mode by the time the call returns.
  std::uint64_t append(OpType type, std::string payload);

  /// Sequence of the newest entry (0 = journal empty).
  [[nodiscard]] std::uint64_t last_sequence() const;

  /// Cursor past the newest entry.
  [[nodiscard]] Cursor tip() const;

  /// Cursor past entry `sequence` (the tip when `sequence` is beyond it),
  /// found by counting lines from the start of the file. Throws IoError
  /// when the file ends first.
  [[nodiscard]] Cursor seek(std::uint64_t sequence) const;

  /// Visit the entries after `cursor`, oldest first, up to the end the
  /// journal had when the call began, moving `cursor` past each entry
  /// `visit` accepts. Throws IoError when the file cannot be read, a line
  /// fails its checksum, or the file ends before that end (it was
  /// truncated under the journal).
  void read(Cursor& cursor, const Visitor& visit) const;

  /// Block until an entry with sequence > `after` exists (true), or
  /// `timeout` elapses, or `stop` is set and wake_waiters() runs (false).
  /// Wakes promptly on append.
  [[nodiscard]] bool wait_for_entries(
      std::uint64_t after, Millis timeout,
      const std::atomic<bool>* stop = nullptr) const;

  /// Make every wait_for_entries() call re-check its stop flag now.
  void wake_waiters() const;

  /// Bytes discarded by torn-tail recovery at open (tests/operator logs).
  [[nodiscard]] std::uint64_t recovered_bytes() const {
    return recovered_bytes_;
  }

 private:
  void recover();

  std::filesystem::path path_;
  repository::SyncMode sync_mode_;
  int fd_ = -1;

  mutable std::mutex mutex_;
  mutable std::condition_variable cv_;
  std::uint64_t last_sequence_ = 0;
  std::uint64_t end_offset_ = 0;  ///< bytes of intact lines in the file
  std::uint64_t recovered_bytes_ = 0;
};

}  // namespace myproxy::replication
