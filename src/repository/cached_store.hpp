// Read-through cache in front of a CredentialStore.
//
// The portal workload (§3.2) retrieves the same few credentials over and
// over. A FileCredentialStore GET finds the record's file in its in-memory
// index under that shard's shared lock, then opens, reads and parses the
// file. CachedCredentialStore keeps recently read records in memory behind
// its own sharded locks, so a repeat retrieval skips the file read and the
// record parse; retrievals of different users proceed on different shards.
// It caches records, not parsed certificates (see DESIGN.md fast path).
//
// Consistency: every mutation (put / remove / remove_all / sweep_expired)
// goes to the backing store *while holding the affected shard lock(s)* and
// updates or drops the cached entry before releasing, and a read miss
// fills the cache under the same lock — so a reader can never re-insert a
// record that a concurrent pass-phrase change, OTP advance, or destroy has
// already replaced. Records are cached exactly as the backing store holds
// them: the blob stays inside its at-rest envelope (§5.1), so the cache
// never holds unsealed key material.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "repository/credential_store.hpp"

namespace myproxy::repository {

class CachedCredentialStore final : public CredentialStore {
 public:
  struct Stats {
    std::uint64_t hits = 0;           ///< get() served from memory
    std::uint64_t misses = 0;         ///< get() read the backing store
    std::uint64_t invalidations = 0;  ///< cached entries dropped/replaced
  };

  /// Wraps `backing`. `shards` buckets keys by hash (more shards = less
  /// lock contention); `max_entries_per_shard` bounds memory — a full
  /// shard is cleared before inserting (the workload is a small working
  /// set, so wholesale eviction is simpler than LRU and just as effective).
  explicit CachedCredentialStore(std::unique_ptr<CredentialStore> backing,
                                 std::size_t shards = 8,
                                 std::size_t max_entries_per_shard = 256);

  void put(const CredentialRecord& record) override;
  [[nodiscard]] std::optional<CredentialRecord> get(
      std::string_view username, std::string_view name) const override;
  bool remove(std::string_view username, std::string_view name) override;
  std::size_t remove_all(std::string_view username) override;
  [[nodiscard]] std::vector<CredentialRecord> list(
      std::string_view username) const override;
  [[nodiscard]] std::size_t size() const override;
  std::size_t sweep_expired() override;
  [[nodiscard]] std::vector<std::string> usernames() const override {
    return backing_->usernames();
  }

  [[nodiscard]] Stats stats() const;

  /// Cached entries currently in memory (tests).
  [[nodiscard]] std::size_t cached_entries() const;

  [[nodiscard]] const CredentialStore& backing() const { return *backing_; }

 private:
  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<std::string, CredentialRecord> entries;
  };

  [[nodiscard]] Shard& shard_for(std::string_view key) const;

  /// Take every shard lock (in index order) for whole-store mutations.
  [[nodiscard]] std::vector<std::unique_lock<std::mutex>> lock_all() const;

  std::unique_ptr<CredentialStore> backing_;
  const std::size_t max_entries_per_shard_;
  mutable std::vector<Shard> shards_;

  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  mutable std::atomic<std::uint64_t> invalidations_{0};
};

}  // namespace myproxy::repository
