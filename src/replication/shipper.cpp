#include "replication/shipper.hpp"

#include <utility>

#include "common/error.hpp"
#include "common/format.hpp"

namespace myproxy::replication {

namespace {

/// A follower with nothing to ship sends an empty batch this often.
constexpr Millis kHeartbeat{1000};

}  // namespace

Shipper::Shipper(const ReplicationJournal& journal, net::Channel& peer,
                 std::size_t batch_limit,
                 std::function<bool(std::string_view)> filter)
    : journal_(journal),
      peer_(peer),
      filter_(std::move(filter)),
      frame_(batch_limit),
      cursor_(journal.tip()) {}

void Shipper::post() {
  shipped_ += frame_.size();
  peer_.send(frame_.take(journal_.last_sequence()));
}

std::uint64_t Shipper::send() {
  post();
  return decode_ack(peer_.receive());
}

void Shipper::copy(const repository::CredentialStore& store) {
  // Each batch's ack is read only after the next batch is sent, so the peer
  // applies one batch while this side reads and serializes the next. Sent
  // batches are not kept: this side still holds at most one.
  bool unacked = false;
  const auto flush = [&] {
    post();
    if (unacked) (void)decode_ack(peer_.receive());
    unacked = true;
  };
  for (const auto& username : store.usernames()) {
    if (filter_ && !filter_(username)) continue;
    for (const auto& record : store.list(username)) {
      const std::string line = encode_line({0, OpType::kPut,
                                            record.serialize()});
      if (!frame_.add(line)) {
        flush();
        (void)frame_.add(line);
      }
    }
  }
  if (!frame_.empty()) flush();
  if (unacked) (void)decode_ack(peer_.receive());
}

void Shipper::fill(std::uint64_t last) {
  journal_.read(cursor_, [&](const JournalEntry& entry,
                             std::string_view line) {
    if (entry.sequence > last) return false;
    if (filter_ && !filter_(entry_username(entry))) return true;
    return frame_.add(line);
  });
}

void Shipper::drain() {
  const std::uint64_t tip = journal_.last_sequence();
  while (cursor_.sequence < tip) {
    fill(tip);
    if (!frame_.empty()) (void)send();
  }
}

void Shipper::finish() {
  peer_.send(encode_copy_end({cursor_.sequence, shipped_}));
  (void)decode_ack(peer_.receive());
}

void Shipper::follow(
    const std::atomic<bool>& stopping,
    const std::function<void(std::uint64_t, std::size_t)>& on_ack) {
  while (true) {
    (void)journal_.wait_for_entries(cursor_.sequence, kHeartbeat, &stopping);
    if (stopping.load()) return;
    fill(journal_.last_sequence());
    const std::size_t count = frame_.size();
    on_ack(send(), count);
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
