// Storage backends for the credential repository.
//
// A record is one delegated (or long-term, §6.1) credential held on the
// user's behalf, together with the metadata the paper attaches to it:
// owner identity, retrieval restrictions (max delegated lifetime,
// per-credential retriever/renewer ACLs), and the authentication state
// (the at-rest encryption envelope doubles as the pass-phrase check, §5.1;
// OTP chains for §6.3).
//
// Backends:
//  * MemoryCredentialStore — tests and benchmarks.
//  * FileCredentialStore — the production layout: one file per record,
//    fanned out over hashed shard directories with striped reader/writer
//    locks, an in-memory metadata index built by a parallel scan at
//    startup, and configurable commit durability (none / fsync). A store
//    written by the legacy flat layout is migrated into the sharded layout
//    transparently on first open.
//  * FlatFileCredentialStore — the legacy flat layout behind one global
//    mutex. Kept as the migration source, the myproxy-admin-query
//    compatibility path, and the baseline the store-scale benchmark
//    measures the sharded store against.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/clock.hpp"
#include "repository/otp.hpp"

namespace myproxy::repository {

/// How a record's credential bytes are protected at rest.
enum class Sealing {
  /// Pass-phrase envelope (PBKDF2 + AES-GCM); decryption success *is* the
  /// pass-phrase check (§5.1). The default.
  kPassphrase,
  /// Sealed under the repository master key; authentication happens via a
  /// pass-phrase digest, an OTP chain, or the renewer ACL. Used for
  /// OTP-armed (§6.3) and renewable (§6.6) credentials, whose retrieval
  /// secret rotates or is absent.
  kMasterKey,
  /// Plaintext (the encryption-at-rest ablation only; authentication via
  /// pass-phrase digest).
  kPlain,
};

[[nodiscard]] std::string_view to_string(Sealing sealing) noexcept;
[[nodiscard]] Sealing sealing_from_string(std::string_view text);

/// How far a committed PUT is pushed toward the platter before the call
/// returns (store_sync_mode).
enum class SyncMode {
  kNone,   ///< rename only; a host crash may lose the last writes
  kFsync,  ///< fdatasync(temp) before and fsync(shard dir) after the rename
};

[[nodiscard]] std::string_view to_string(SyncMode mode) noexcept;
[[nodiscard]] SyncMode sync_mode_from_string(std::string_view text);

struct CredentialRecord {
  std::string username;  ///< repository account name (user-chosen, §4.1)
  std::string name;      ///< wallet slot; empty = the default credential

  std::string owner_dn;  ///< Grid DN that stored the credential

  /// Credential PEM bytes, protected per `sealing`.
  std::vector<std::uint8_t> blob;
  Sealing sealing = Sealing::kPassphrase;

  /// hex(SHA-256(aad:pass phrase)) for kMasterKey / kPlain records that
  /// still authenticate retrievals by pass phrase.
  std::optional<std::string> passphrase_digest;

  TimePoint created_at{};
  TimePoint not_after{};  ///< stored credential's own expiry

  /// §4.1 retrieval restriction: longest proxy the repository may delegate
  /// from this credential.
  Seconds max_delegation_lifetime{kDefaultDelegatedLifetime};

  /// Per-credential DN patterns narrowing the server-wide retriever /
  /// renewer ACLs; empty = inherit the server ACL unchanged.
  std::vector<std::string> retriever_patterns;
  std::vector<std::string> renewer_patterns;

  /// Every proxy delegated from this credential is a limited proxy.
  bool always_limited = false;

  /// Restriction policy ("rights=...") embedded into every delegation
  /// from this credential (§6.5).
  std::optional<std::string> restriction;

  /// Comma-separated task tags for wallet selection (§6.2).
  std::string task_tags;

  /// OTP state when auth_mode is OTP (§6.3).
  std::optional<OtpState> otp;

  /// Unique key of a (username, name) pair within a store. Usernames are
  /// user-chosen bytes, so the separator is a control character no shell
  /// or form field produces.
  [[nodiscard]] static std::string make_key(std::string_view username,
                                            std::string_view name);

  /// Unique key of this record within a store.
  [[nodiscard]] std::string key() const { return make_key(username, name); }

  [[nodiscard]] bool expired() const { return now() > not_after; }

  /// Text serialization used by the file stores.
  [[nodiscard]] std::string serialize() const;
  static CredentialRecord parse(std::string_view text);
};

class CredentialStore {
 public:
  virtual ~CredentialStore() = default;

  /// Insert or replace the record with the same (username, name).
  virtual void put(const CredentialRecord& record) = 0;

  [[nodiscard]] virtual std::optional<CredentialRecord> get(
      std::string_view username, std::string_view name) const = 0;

  /// Remove one record; returns false if it did not exist.
  virtual bool remove(std::string_view username, std::string_view name) = 0;

  /// Remove all of a user's records; returns how many were removed.
  virtual std::size_t remove_all(std::string_view username) = 0;

  /// All records for `username` (the user's wallet, §6.2).
  [[nodiscard]] virtual std::vector<CredentialRecord> list(
      std::string_view username) const = 0;

  [[nodiscard]] virtual std::size_t size() const = 0;

  /// Delete expired records; returns how many were swept.
  virtual std::size_t sweep_expired() = 0;

  /// Every username with at least one record, sorted. Used by admin tooling
  /// and by replication (a bootstrapping replica wipes its store before
  /// installing a snapshot).
  [[nodiscard]] virtual std::vector<std::string> usernames() const = 0;
};

class MemoryCredentialStore final : public CredentialStore {
 public:
  void put(const CredentialRecord& record) override;
  [[nodiscard]] std::optional<CredentialRecord> get(
      std::string_view username, std::string_view name) const override;
  bool remove(std::string_view username, std::string_view name) override;
  std::size_t remove_all(std::string_view username) override;
  [[nodiscard]] std::vector<CredentialRecord> list(
      std::string_view username) const override;
  [[nodiscard]] std::size_t size() const override;
  std::size_t sweep_expired() override;
  [[nodiscard]] std::vector<std::string> usernames() const override;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, CredentialRecord, std::less<>> records_;
};

/// The legacy flat layout: <dir>/<hex(username)>-<hex(name)>.cred under one
/// global mutex, written via a temp file + rename so a crash never leaves a
/// torn record. list/size/remove_all/sweep_expired re-read the whole
/// directory — O(total records) per call — which is exactly the wall the
/// sharded store exists to remove. Kept for migration fabrication in tests,
/// as the store-scale benchmark baseline, and for operators still pointing
/// tools at an unmigrated directory.
class FlatFileCredentialStore final : public CredentialStore {
 public:
  explicit FlatFileCredentialStore(std::filesystem::path directory);

  void put(const CredentialRecord& record) override;
  [[nodiscard]] std::optional<CredentialRecord> get(
      std::string_view username, std::string_view name) const override;
  bool remove(std::string_view username, std::string_view name) override;
  std::size_t remove_all(std::string_view username) override;
  [[nodiscard]] std::vector<CredentialRecord> list(
      std::string_view username) const override;
  [[nodiscard]] std::size_t size() const override;
  std::size_t sweep_expired() override;
  [[nodiscard]] std::vector<std::string> usernames() const override;

  [[nodiscard]] const std::filesystem::path& directory() const {
    return directory_;
  }

 private:
  [[nodiscard]] std::filesystem::path record_path(
      std::string_view username, std::string_view name) const;

  std::filesystem::path directory_;
  mutable std::mutex mutex_;
};

struct FileStoreOptions {
  /// Shard directory fanout. Fixed at store creation: the directory
  /// remembers its fanout in a layout marker, and later opens follow the
  /// marker rather than this knob.
  std::size_t shard_count = 16;

  SyncMode sync_mode = SyncMode::kNone;

  /// Threads for the startup index scan; 0 = one per core (capped at 8).
  std::size_t scan_threads = 0;
};

/// The production store: one file per record at
/// <dir>/<shard>/<hex(username)>-<hex(name)>.cred with
/// shard = fnv1a64(username) % fanout.
///
/// Concurrency: one std::shared_mutex per shard. All of a user's records
/// live in one shard (the hash covers the username only), so every
/// operation touches exactly one stripe; PUTs and GETs for different users
/// proceed in parallel, and GETs for the same user share the lock.
///
/// Index: the constructor scans the directory once (parallel ThreadPool
/// scan) into an in-memory metadata index — per shard, username → slot →
/// {file, expiry, sealing} plus an expiry-ordered multimap. After startup
/// the index is authoritative: get/list touch only the named user's files,
/// size() is a counter read, and sweep_expired() walks only the expired
/// prefix of the expiry map instead of parsing every record. Mutations
/// update index and disk under the same shard lock, so the index never
/// drifts.
///
/// Migration: legacy flat-layout records found at the top level (or records
/// sharded under a different fanout) are re-homed into their shard
/// directory during the scan. Orphaned *.tmp files — a writer died between
/// temp write and rename-commit — are reaped; they were never committed.
class FileCredentialStore final : public CredentialStore {
 public:
  explicit FileCredentialStore(std::filesystem::path directory,
                               FileStoreOptions options = {});
  ~FileCredentialStore() override;

  FileCredentialStore(const FileCredentialStore&) = delete;
  FileCredentialStore& operator=(const FileCredentialStore&) = delete;

  void put(const CredentialRecord& record) override;
  [[nodiscard]] std::optional<CredentialRecord> get(
      std::string_view username, std::string_view name) const override;
  bool remove(std::string_view username, std::string_view name) override;
  std::size_t remove_all(std::string_view username) override;
  [[nodiscard]] std::vector<CredentialRecord> list(
      std::string_view username) const override;
  [[nodiscard]] std::size_t size() const override;
  std::size_t sweep_expired() override;

  [[nodiscard]] const std::filesystem::path& directory() const {
    return directory_;
  }

  /// Fanout actually in effect (from the layout marker).
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }

  [[nodiscard]] SyncMode sync_mode() const { return sync_mode_; }

  /// Every username with at least one record, sorted (admin tooling).
  [[nodiscard]] std::vector<std::string> usernames() const override;

  /// What the startup scan found (tests, operator logging).
  struct ScanReport {
    std::size_t indexed = 0;     ///< records in the index
    std::size_t migrated = 0;    ///< records re-homed into their shard
    std::size_t reaped_tmp = 0;  ///< orphaned .tmp files deleted
    std::size_t skipped = 0;     ///< unreadable/duplicate files left in place
  };
  [[nodiscard]] const ScanReport& scan_report() const { return scan_report_; }

 private:
  struct IndexEntry {
    std::string file_name;      ///< within the shard directory
    std::int64_t not_after = 0;  ///< unix seconds (sweep ordering)
    Sealing sealing = Sealing::kPassphrase;
  };

  struct Shard {
    mutable std::shared_mutex mutex;
    std::filesystem::path dir;
    int dir_fd = -1;
    /// username → slot name → entry.
    std::unordered_map<std::string, std::map<std::string, IndexEntry>> users;
    /// not_after → (username, slot): sweep touches only the expired prefix.
    std::multimap<std::int64_t, std::pair<std::string, std::string>>
        by_expiry;
  };

  [[nodiscard]] Shard& shard_for(std::string_view username) const;

  /// Read the fanout pinned by the layout marker, writing it (from
  /// `configured`) on first open of a directory.
  [[nodiscard]] std::size_t pinned_fanout(std::size_t configured);

  /// Build the index: parallel scan of shard directories, then migration
  /// of any top-level legacy records.
  void scan(std::size_t scan_threads);

  /// Parse one record file and fold it into the index, migrating it into
  /// its shard directory when it lives elsewhere. Thread-safe.
  void index_file(const std::filesystem::path& path);

  /// Insert/replace an index entry. Caller holds the shard's unique lock.
  void index_insert(Shard& shard, const std::string& username,
                    const std::string& name, IndexEntry entry);

  /// Drop the by_expiry entry matching (not_after, username, name). Caller
  /// holds the shard's unique lock.
  static void erase_expiry(Shard& shard, std::int64_t not_after,
                           std::string_view username, std::string_view name);

  /// fdatasync a freshly written temp file (honoring sync_mode_).
  void sync_file(const std::filesystem::path& path);

  /// fsync a shard directory after rename/unlink (honoring sync_mode_).
  void sync_dir(const Shard& shard);

  std::filesystem::path directory_;
  SyncMode sync_mode_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::size_t> size_{0};
  std::atomic<std::uint64_t> tmp_seq_{0};
  ScanReport scan_report_;
  /// Guards scan_report_ during the parallel scan (read-only afterwards).
  std::mutex scan_mutex_;
};

}  // namespace myproxy::repository
