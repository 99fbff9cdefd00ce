#include "replication/replicated_store.hpp"

#include "common/error.hpp"
#include "common/format.hpp"
#include "common/logging.hpp"
#include "common/strings.hpp"

namespace myproxy::replication {

namespace {

constexpr std::string_view kLogComponent = "replication";

/// Write the watermark every this many completed operations (plus once at
/// clean shutdown). Smaller = shorter crash-recovery replay; the write is a
/// temp-file rename, never fsynced — a stale watermark only means more
/// idempotent replay.
constexpr std::uint64_t kWatermarkEvery = 256;

using strings::fnv1a64;

}  // namespace

ReplicatedStore::ReplicatedStore(
    std::unique_ptr<repository::CredentialStore> inner,
    std::shared_ptr<ReplicationJournal> journal,
    std::filesystem::path watermark_path)
    : inner_(std::move(inner)),
      journal_(std::move(journal)),
      watermark_path_(std::move(watermark_path)) {
  if (inner_ == nullptr || journal_ == nullptr) {
    throw Error(ErrorCode::kInternal,
                "ReplicatedStore requires a store and a journal");
  }
  // Crash recovery: re-apply every journaled operation the store is not
  // known to contain, read back from the journal file a chunk at a time.
  // apply order = journal order, ending at the tip, so a replayed prefix
  // of stale operations converges onto the current state.
  const std::uint64_t watermark =
      watermark_path_.empty() ? 0 : read_sequence_file(watermark_path_);
  auto cursor = journal_->seek(watermark);
  journal_->read(cursor, [this](const JournalEntry& entry, std::string_view) {
    apply_entry(*inner_, entry);
    ++replayed_;
    return true;
  });
  watermark_ = cursor.sequence;
  highest_journaled_ = watermark_;
  if (replayed_ > 0) {
    log::info(kLogComponent,
              "replayed {} journaled operation(s) past watermark {}",
              replayed_, watermark);
    write_watermark(watermark_);
  }
}

ReplicatedStore::~ReplicatedStore() {
  try {
    const std::scoped_lock lock(watermark_mutex_);
    write_watermark(in_flight_.empty() ? highest_journaled_
                                       : *in_flight_.begin() - 1);
  } catch (const std::exception&) {
    // A missing watermark only costs replay time on the next open.
  }
}

std::shared_mutex& ReplicatedStore::stripe_for(
    std::string_view username) const {
  return stripes_[fnv1a64(username) % kStripes];
}

template <typename Apply>
auto ReplicatedStore::journaled(std::string_view username, OpType type,
                                std::string payload, Apply&& apply)
    -> decltype(apply()) {
  const std::unique_lock stripe(stripe_for(username));
  const std::uint64_t sequence = journal_->append(type, std::move(payload));
  {
    const std::scoped_lock lock(watermark_mutex_);
    in_flight_.insert(sequence);
    if (sequence > highest_journaled_) highest_journaled_ = sequence;
  }
  // If the apply throws, the sequence stays in flight, the watermark never
  // passes it, and the next open replays it — journal and store reconverge.
  auto result = apply();
  note_applied(sequence);
  return result;
}

void ReplicatedStore::note_applied(std::uint64_t sequence) {
  std::uint64_t to_write = 0;
  {
    const std::scoped_lock lock(watermark_mutex_);
    in_flight_.erase(sequence);
    watermark_ = in_flight_.empty() ? highest_journaled_
                                    : *in_flight_.begin() - 1;
    if (++ops_since_watermark_write_ >= kWatermarkEvery) {
      ops_since_watermark_write_ = 0;
      to_write = watermark_;
    }
  }
  if (to_write > 0) write_watermark(to_write);
}

void ReplicatedStore::write_watermark(std::uint64_t sequence) {
  // Best effort: the worst case is a longer replay.
  if (!watermark_path_.empty()) {
    (void)write_sequence_file(watermark_path_, sequence);
  }
}

void ReplicatedStore::put(const repository::CredentialRecord& record) {
  journaled(record.username, OpType::kPut, record.serialize(), [&] {
    inner_->put(record);
    return 0;
  });
}

std::optional<repository::CredentialRecord> ReplicatedStore::get(
    std::string_view username, std::string_view name) const {
  const std::shared_lock stripe(stripe_for(username));
  return inner_->get(username, name);
}

bool ReplicatedStore::remove(std::string_view username,
                             std::string_view name) {
  return journaled(username, OpType::kRemove,
                   repository::CredentialRecord::make_key(username, name),
                   [&] { return inner_->remove(username, name); });
}

std::size_t ReplicatedStore::remove_all(std::string_view username) {
  return journaled(username, OpType::kRemoveAll, std::string(username),
                   [&] { return inner_->remove_all(username); });
}

std::vector<repository::CredentialRecord> ReplicatedStore::list(
    std::string_view username) const {
  const std::shared_lock stripe(stripe_for(username));
  return inner_->list(username);
}

std::size_t ReplicatedStore::size() const { return inner_->size(); }

std::size_t ReplicatedStore::sweep_expired() {
  // Expiry is enforced independently on every node (primary and replicas
  // share the records' absolute not_after instants), so sweeps are not
  // journaled — replicas run their own expiry sweeps.
  return inner_->sweep_expired();
}

std::vector<std::string> ReplicatedStore::usernames() const {
  // Barrier on every stripe (shared, in index order): a mutation journaled
  // before this call holds its stripe exclusively until applied, so after
  // acquiring all stripes the inner store contains every such operation.
  // The snapshot path depends on this — it reads last_sequence() first,
  // then usernames(), and promises the snapshot covers all ops <= that
  // sequence.
  std::array<std::shared_lock<std::shared_mutex>, kStripes> locks;
  for (std::size_t i = 0; i < kStripes; ++i) {
    locks[i] = std::shared_lock(stripes_[i]);
  }
  return inner_->usernames();
}

}  // namespace myproxy::replication
