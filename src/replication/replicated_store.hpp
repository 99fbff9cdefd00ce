// CredentialStore decorator that write-ahead journals every mutation.
//
// Wraps the primary's real store (sharded file store, optionally behind the
// read cache) so that every put / remove / remove_all — which includes
// pass-phrase changes and OTP advances, both of which commit through put()
// — is appended to the ReplicationJournal *before* it is applied. Replicas
// tail the journal; the write-ahead order guarantees they can never learn
// an operation the journal lost.
//
// Consistency machinery:
//  * Striped per-username locks are held across append + apply, so the
//    journal order and the store order agree for any single key (operations
//    on different users commute, so cross-stripe ordering is irrelevant).
//  * A watermark file records a sequence through which the inner store is
//    known to contain every journaled operation. On open, entries past the
//    watermark are re-applied (idempotently), which repairs the crash
//    window where an operation was journaled but the process died before
//    the store apply — the WAL contract.
//  * Snapshot reads (the primary streaming its store to a bootstrapping
//    replica) go through get()/list(), which take the same stripes shared;
//    a snapshot taken after observing journal sequence S therefore contains
//    every operation with sequence <= S.
#pragma once

#include <array>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <vector>

#include "replication/journal.hpp"
#include "repository/credential_store.hpp"

namespace myproxy::replication {

class ReplicatedStore final : public repository::CredentialStore {
 public:
  /// Wraps `inner`; appends to `journal` ahead of every mutation. An empty
  /// `watermark_path` disables watermark persistence (the full journal is
  /// replayed on every open — fine for tests and memory stores).
  ReplicatedStore(std::unique_ptr<repository::CredentialStore> inner,
                  std::shared_ptr<ReplicationJournal> journal,
                  std::filesystem::path watermark_path = {});
  ~ReplicatedStore() override;

  void put(const repository::CredentialRecord& record) override;
  [[nodiscard]] std::optional<repository::CredentialRecord> get(
      std::string_view username, std::string_view name) const override;
  bool remove(std::string_view username, std::string_view name) override;
  std::size_t remove_all(std::string_view username) override;
  [[nodiscard]] std::vector<repository::CredentialRecord> list(
      std::string_view username) const override;
  [[nodiscard]] std::size_t size() const override;
  std::size_t sweep_expired() override;
  [[nodiscard]] std::vector<std::string> usernames() const override;

  [[nodiscard]] const ReplicationJournal& journal() const {
    return *journal_;
  }

  /// Operations re-applied from the journal at open (crash recovery).
  [[nodiscard]] std::uint64_t replayed() const { return replayed_; }

 private:
  [[nodiscard]] std::shared_mutex& stripe_for(std::string_view username) const;

  /// Journal `payload` then run `apply` under the username's stripe.
  template <typename Apply>
  auto journaled(std::string_view username, OpType type, std::string payload,
                 Apply&& apply) -> decltype(apply());

  /// Called after an append+apply pair completes; advances the watermark
  /// once every operation below it has been applied.
  void note_applied(std::uint64_t sequence);
  void write_watermark(std::uint64_t sequence);

  std::unique_ptr<repository::CredentialStore> inner_;
  std::shared_ptr<ReplicationJournal> journal_;
  std::filesystem::path watermark_path_;
  std::uint64_t replayed_ = 0;

  static constexpr std::size_t kStripes = 16;
  mutable std::array<std::shared_mutex, kStripes> stripes_;

  /// Watermark bookkeeping: sequences journaled but not yet applied.
  std::mutex watermark_mutex_;
  std::set<std::uint64_t> in_flight_;
  std::uint64_t highest_journaled_ = 0;
  std::uint64_t watermark_ = 0;
  std::uint64_t ops_since_watermark_write_ = 0;
};

}  // namespace myproxy::replication
