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
// Durability reuses the store's discipline: SyncMode::kNone trusts the page
// cache, kFsync issues fdatasync per append, and kGroup batches concurrent
// appenders' flushes through a GroupCommitter exactly like the sharded
// store's group-commit PUT path.
//
// On-disk format (text, one record per line, debuggable with tail/grep):
//   myproxy-journal-v1
//   E <sequence> <type> <base64(payload)> <fnv1a64-hex>
// A torn tail — the crash happened mid-append — fails the checksum or line
// framing; open() truncates the file back to the last intact record and the
// next append continues the sequence from there.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "repository/credential_store.hpp"
#include "repository/group_commit.hpp"

namespace myproxy::replication {

/// What a journal entry does to the store.
enum class OpType : int {
  kPut = 1,        ///< payload = CredentialRecord::serialize()
  kRemove = 2,     ///< payload = CredentialRecord::make_key(username, name)
  kRemoveAll = 3,  ///< payload = username
};

[[nodiscard]] std::string_view to_string(OpType type) noexcept;

struct JournalEntry {
  std::uint64_t sequence = 0;
  OpType type = OpType::kPut;
  std::string payload;
};

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

  /// Sequence of the oldest entry this journal still holds;
  /// last_sequence() + 1 when empty.
  [[nodiscard]] std::uint64_t first_sequence() const;

  /// Entries with sequence > `after`, oldest first, at most `limit`.
  [[nodiscard]] std::vector<JournalEntry> entries_after(
      std::uint64_t after, std::size_t limit) const;

  /// Block until an entry with sequence > `after` exists (true) or
  /// `timeout` elapses (false). Wakes promptly on append.
  [[nodiscard]] bool wait_for_entries(std::uint64_t after,
                                      Millis timeout) const;

  /// Bytes discarded by torn-tail recovery at open (tests/operator logs).
  [[nodiscard]] std::uint64_t recovered_bytes() const {
    return recovered_bytes_;
  }

  [[nodiscard]] const std::filesystem::path& path() const { return path_; }

  /// Group-commit batcher counters (meaningful when sync_mode == kGroup).
  [[nodiscard]] const repository::GroupCommitter& committer() const {
    return committer_;
  }

 private:
  void recover();

  std::filesystem::path path_;
  repository::SyncMode sync_mode_;
  int fd_ = -1;

  mutable std::mutex mutex_;
  mutable std::condition_variable cv_;
  std::vector<JournalEntry> entries_;  ///< full in-memory copy, oldest first
  std::uint64_t last_sequence_ = 0;
  std::uint64_t recovered_bytes_ = 0;
  mutable repository::GroupCommitter committer_;
};

}  // namespace myproxy::replication
