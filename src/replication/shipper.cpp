#include "replication/shipper.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "common/format.hpp"

namespace myproxy::replication {

Shipper::Shipper(const ReplicationJournal& journal, net::Channel& peer,
                 std::size_t batch_limit,
                 std::function<bool(std::string_view)> filter)
    : journal_(journal),
      peer_(peer),
      batch_limit_(std::max<std::size_t>(batch_limit, 1)),
      filter_(std::move(filter)),
      cursor_(journal.last_sequence()) {}

void Shipper::post(std::vector<JournalEntry> entries) {
  shipped_ += entries.size();
  peer_.send(encode_batch({journal_.last_sequence(), std::move(entries)}));
}

std::uint64_t Shipper::send(std::vector<JournalEntry> entries) {
  post(std::move(entries));
  return decode_ack(peer_.receive());
}

void Shipper::copy(const repository::CredentialStore& store) {
  // Each batch's ack is read only after the next batch is sent, so the peer
  // applies one batch while this side reads and serializes the next. Sent
  // batches are not kept: this side still holds at most one.
  std::vector<JournalEntry> batch;
  std::size_t bytes = 0;
  bool unacked = false;
  const auto flush = [&] {
    post(std::exchange(batch, {}));
    bytes = 0;
    if (unacked) (void)decode_ack(peer_.receive());
    unacked = true;
  };
  for (const auto& username : store.usernames()) {
    if (filter_ && !filter_(username)) continue;
    for (const auto& record : store.list(username)) {
      batch.push_back({0, OpType::kPut, record.serialize()});
      bytes += batch.back().payload.size();
      // Base64 grows payloads by a third; half the frame cap leaves room.
      if (batch.size() >= batch_limit_ || bytes >= net::kMaxMessageSize / 2) {
        flush();
      }
    }
  }
  if (!batch.empty()) flush();
  if (unacked) (void)decode_ack(peer_.receive());
}

std::vector<JournalEntry> Shipper::next() {
  auto entries = journal_.entries_after(cursor_, batch_limit_);
  if (!entries.empty()) cursor_ = entries.back().sequence;
  std::erase_if(entries, [this](const JournalEntry& entry) {
    return filter_ && !filter_(entry_username(entry));
  });
  return entries;
}

void Shipper::drain() {
  const std::uint64_t tip = journal_.last_sequence();
  while (cursor_ < tip) {
    const std::uint64_t before = cursor_;
    auto entries = next();
    if (cursor_ == before) break;
    if (!entries.empty()) (void)send(std::move(entries));
  }
}

void Shipper::finish() {
  peer_.send(encode_copy_end({cursor_, shipped_}));
  (void)decode_ack(peer_.receive());
}

void Shipper::follow(
    const std::atomic<bool>& stopping,
    const std::function<void(std::uint64_t, std::size_t)>& on_ack) {
  while (!stopping.load()) {
    (void)journal_.wait_for_entries(cursor_, Millis(1000));
    auto entries = next();
    const std::size_t count = entries.size();
    on_ack(send(std::move(entries)), count);
  }
}

CopyEnd receive_shipment(net::Channel& peer,
                         repository::CredentialStore& store) {
  std::uint64_t applied = 0;
  while (true) {
    const std::string frame = peer.receive();
    if (const auto end = decode_copy_end(frame)) {
      if (end->entries != applied) {
        throw ProtocolError(fmt::format(
            "shipment ended after {} entries but announced {}", applied,
            end->entries));
      }
      peer.send(encode_ack(applied));
      return *end;
    }
    for (const auto& entry : decode_batch(frame).entries) {
      apply_entry(store, entry);
      ++applied;
    }
    peer.send(encode_ack(applied));
  }
}

}  // namespace myproxy::replication
