// Unit tests for the replication subsystem's journal, wire framing,
// journaling store decorator and copy-then-tail shipper — including the
// crash windows (a torn journal tail, a store that died between journal
// append and store apply) and hostile bytes from a peer.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <thread>

#include "common/error.hpp"
#include "common/mutation.hpp"
#include "common/strings.hpp"
#include "net/socket.hpp"
#include "replication/journal.hpp"
#include "replication/replicated_store.hpp"
#include "replication/shipper.hpp"
#include "replication/wire.hpp"

namespace myproxy::replication {
namespace {

repository::CredentialRecord make_record(std::string username,
                                         std::string name = "") {
  repository::CredentialRecord record;
  record.username = std::move(username);
  record.name = std::move(name);
  record.owner_dn = "/O=Grid/CN=" + record.username;
  record.blob = {1, 2, 3, 4, 5};
  record.sealing = repository::Sealing::kPassphrase;
  record.created_at = now();
  record.not_after = now() + Seconds(3600);
  return record;
}

class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag) {
    path_ = std::filesystem::temp_directory_path() /
            ("myproxy-repl-" + tag + "-" +
             std::to_string(::getpid()));
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  [[nodiscard]] std::filesystem::path operator/(const char* name) const {
    return path_ / name;
  }

 private:
  std::filesystem::path path_;
};

/// Entries after `after`, read back from the journal file.
std::vector<JournalEntry> entries_after(const ReplicationJournal& journal,
                                        std::uint64_t after) {
  std::vector<JournalEntry> out;
  auto cursor = journal.seek(after);
  journal.read(cursor, [&](const JournalEntry& entry, std::string_view) {
    out.push_back(entry);
    return true;
  });
  return out;
}

/// `batch` as a BATCH frame, built the way the shipper builds one.
std::string batch_frame(const Batch& batch) {
  BatchBuilder builder(batch.entries.size());
  for (const auto& entry : batch.entries) {
    EXPECT_TRUE(builder.add(encode_line(entry)));
  }
  return builder.take(batch.primary_last_sequence);
}

TEST(ReplicationJournal, AppendAssignsDenseSequencesAndSurvivesReopen) {
  const ScratchDir dir("journal-reopen");
  const auto path = dir / "journal.log";
  {
    ReplicationJournal journal(path);
    EXPECT_EQ(journal.last_sequence(), 0u);
    EXPECT_EQ(journal.append(OpType::kPut, "payload-1"), 1u);
    EXPECT_EQ(journal.append(OpType::kRemove, "payload-2"), 2u);
    EXPECT_EQ(journal.append(OpType::kRemoveAll, ""), 3u);
    EXPECT_EQ(journal.last_sequence(), 3u);
  }
  ReplicationJournal journal(path);
  EXPECT_EQ(journal.last_sequence(), 3u);
  EXPECT_EQ(journal.recovered_bytes(), 0u);
  const auto entries = entries_after(journal, 0);
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].sequence, 1u);
  EXPECT_EQ(entries[0].type, OpType::kPut);
  EXPECT_EQ(entries[0].payload, "payload-1");
  EXPECT_EQ(entries[1].payload, "payload-2");
  EXPECT_EQ(entries[2].type, OpType::kRemoveAll);
  EXPECT_TRUE(entries[2].payload.empty());

  const auto tail = entries_after(journal, 2);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].sequence, 3u);
  // A read stops before the first entry its visitor refuses.
  auto cursor = journal.seek(1);
  journal.read(cursor, [](const JournalEntry& entry, std::string_view) {
    return entry.sequence < 3;
  });
  EXPECT_EQ(cursor.sequence, 2u);
}

TEST(ReplicationJournal, ReopeningAnEmptyJournalKeepsLaterEntries) {
  // A primary restarted before its first write, then written to and
  // restarted again, keeps every entry.
  const ScratchDir dir("journal-empty-reopen");
  const auto path = dir / "journal.log";
  { const ReplicationJournal journal(path); }
  {
    ReplicationJournal journal(path);
    EXPECT_EQ(journal.recovered_bytes(), 0u);
    EXPECT_EQ(journal.append(OpType::kPut, "kept"), 1u);
  }
  const ReplicationJournal journal(path);
  EXPECT_EQ(journal.recovered_bytes(), 0u);
  EXPECT_EQ(journal.last_sequence(), 1u);
}

TEST(ReplicationJournal, TruncatedTailIsDiscardedAndSequenceContinues) {
  const ScratchDir dir("journal-torn");
  const auto path = dir / "journal.log";
  {
    ReplicationJournal journal(path);
    (void)journal.append(OpType::kPut, "kept-1");
    (void)journal.append(OpType::kPut, "kept-2");
  }
  // Simulate a crash mid-append: a record line with no trailing newline
  // and no checksum.
  {
    std::ofstream out(path, std::ios::app | std::ios::binary);
    out << "E 3 1 a2VwdC0z";
  }
  ReplicationJournal journal(path);
  EXPECT_GT(journal.recovered_bytes(), 0u);
  EXPECT_EQ(journal.last_sequence(), 2u);
  EXPECT_EQ(journal.append(OpType::kPut, "after-crash"), 3u);
  const auto entries = entries_after(journal, 0);
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[2].payload, "after-crash");
}

TEST(ReplicationJournal, CorruptedChecksumTruncatesToLastIntactRecord) {
  const ScratchDir dir("journal-checksum");
  const auto path = dir / "journal.log";
  {
    ReplicationJournal journal(path);
    (void)journal.append(OpType::kPut, "kept");
    (void)journal.append(OpType::kPut, "to-be-corrupted");
  }
  // Flip one byte inside the last record's base64 payload.
  auto size = std::filesystem::file_size(path);
  {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(static_cast<std::streamoff>(size) - 24);
    file.put('!');
  }
  ReplicationJournal journal(path);
  EXPECT_GT(journal.recovered_bytes(), 0u);
  EXPECT_EQ(journal.last_sequence(), 1u);
  const auto entries = entries_after(journal, 0);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].payload, "kept");
}

TEST(ReplicationJournal, WaitForEntriesWakesOnAppend) {
  const ScratchDir dir("journal-wait");
  ReplicationJournal journal(dir / "journal.log");
  EXPECT_FALSE(journal.wait_for_entries(0, Millis(10)));
  std::thread appender([&journal] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    (void)journal.append(OpType::kPut, "wake");
  });
  EXPECT_TRUE(journal.wait_for_entries(0, Millis(2000)));
  appender.join();
}

TEST(ReplicationWire, BatchRoundTripPreservesEntriesAndBinaryPayloads) {
  Batch batch;
  batch.primary_last_sequence = 42;
  batch.entries.push_back({7, OpType::kPut, std::string("a\0b\nc", 5)});
  batch.entries.push_back({8, OpType::kRemoveAll, ""});

  const Batch back = decode_batch(batch_frame(batch));
  EXPECT_EQ(back.primary_last_sequence, 42u);
  ASSERT_EQ(back.entries.size(), 2u);
  EXPECT_EQ(back.entries[0].sequence, 7u);
  EXPECT_EQ(back.entries[0].type, OpType::kPut);
  EXPECT_EQ(back.entries[0].payload, std::string("a\0b\nc", 5));
  EXPECT_EQ(back.entries[1].sequence, 8u);
  EXPECT_TRUE(back.entries[1].payload.empty());
}

TEST(ReplicationWire, HeartbeatIsAnEmptyBatch) {
  Batch heartbeat;
  heartbeat.primary_last_sequence = 9;
  const Batch back = decode_batch(batch_frame(heartbeat));
  EXPECT_EQ(back.primary_last_sequence, 9u);
  EXPECT_TRUE(back.entries.empty());
}

TEST(ReplicationWire, AckRoundTripAndGarbageRejected) {
  EXPECT_EQ(decode_ack(encode_ack(123)), 123u);
  EXPECT_THROW((void)decode_ack("BATCH 1 0\n"), Error);
  EXPECT_THROW((void)decode_batch("ACK 5\n"), Error);
}

TEST(ReplicationWire, CopyEndRoundTripAndGarbageRejected) {
  const auto back = decode_copy_end(encode_copy_end({17, 50}));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->sequence, 17u);
  EXPECT_EQ(back->entries, 50u);
  EXPECT_FALSE(decode_copy_end(batch_frame({})).has_value());
  EXPECT_FALSE(decode_copy_end("ACK 5\n").has_value());
  EXPECT_THROW((void)decode_copy_end("COPY_END 17\n"), ProtocolError);
  EXPECT_THROW((void)decode_copy_end("COPY_END -1 2\n"), ProtocolError);
}

TEST(ReplicationWire, BatchEntryLineIsTheJournalLine) {
  // A BATCH entry line is byte for byte the journal's line, checksum
  // included, and the receiver refuses one whose checksum fails.
  const ScratchDir dir("wire-line");
  const auto path = dir / "journal.log";
  const JournalEntry entry{1, OpType::kPut, std::string("x\0y\nz", 5)};
  {
    ReplicationJournal journal(path);
    ASSERT_EQ(journal.append(entry.type, entry.payload), 1u);
  }
  std::ifstream in(path, std::ios::binary);
  std::string header;
  std::string line;
  ASSERT_TRUE(std::getline(in, header));
  ASSERT_TRUE(std::getline(in, line));

  const std::string frame = "BATCH 7 1\n" + line + "\n";
  EXPECT_EQ(batch_frame({7, {entry}}), frame);
  const Batch back = decode_batch(frame);
  ASSERT_EQ(back.entries.size(), 1u);
  EXPECT_EQ(back.entries[0].sequence, 1u);
  EXPECT_EQ(back.entries[0].payload, entry.payload);

  std::string forged = line;
  forged.back() = forged.back() == '0' ? '1' : '0';
  EXPECT_THROW((void)decode_batch("BATCH 7 1\n" + forged + "\n"),
               ProtocolError);
  // The entry line of the previous wire format carried no checksum.
  EXPECT_THROW((void)decode_batch("BATCH 7 1\n" +
                                  line.substr(0, line.rfind(' ')) + "\n"),
               ProtocolError);
}

TEST(ReplicationJournal, EntryUsernameDecodesEveryOpType) {
  const auto put = make_record("alice", "wallet");
  EXPECT_EQ(entry_username({1, OpType::kPut, put.serialize()}), "alice");
  EXPECT_EQ(entry_username({2, OpType::kRemove,
                            repository::CredentialRecord::make_key("bob",
                                                                   "x")}),
            "bob");
  EXPECT_EQ(entry_username({3, OpType::kRemoveAll, "carol"}), "carol");
  // A remove without its key separator is as malformed here as it is to
  // apply_entry: neither may guess the username.
  const JournalEntry keyless{4, OpType::kRemove, "dave"};
  EXPECT_THROW((void)entry_username(keyless), ParseError);
  repository::MemoryCredentialStore store;
  EXPECT_THROW(apply_entry(store, keyless), ParseError);
}

/// Every record of `store`, serialized, in (username, name) order.
std::vector<std::string> contents(const repository::CredentialStore& store) {
  std::vector<std::string> out;
  for (const auto& username : store.usernames()) {
    for (const auto& record : store.list(username)) {
      out.push_back(record.serialize());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Plain channel that remembers the largest batch it received.
class BatchSizeChannel final : public net::Channel {
 public:
  explicit BatchSizeChannel(net::Socket socket) : inner_(std::move(socket)) {}
  void send(std::string_view message) override { inner_.send(message); }
  std::string receive() override {
    std::string frame = inner_.receive();
    if (!decode_copy_end(frame).has_value()) {
      largest = std::max(largest, decode_batch(frame).entries.size());
    }
    return frame;
  }
  void close() noexcept override { inner_.close(); }
  std::size_t largest = 0;

 private:
  net::PlainChannel inner_;
};

TEST(ReplicationShipper, CopiesInBoundedBatchesThenDrainsTheFilteredTail) {
  const ScratchDir dir("shipper");
  auto journal = std::make_shared<ReplicationJournal>(dir / "journal.log");
  ReplicatedStore source(
      std::make_unique<repository::MemoryCredentialStore>(), journal);
  for (int i = 0; i < 20; ++i) {
    source.put(make_record("keep-" + std::to_string(i)));
    source.put(make_record("skip-" + std::to_string(i)));
  }
  const auto keep = [](std::string_view username) {
    return username.starts_with("keep-");
  };

  auto [a, b] = net::socket_pair();
  net::PlainChannel sender(std::move(a));
  BatchSizeChannel receiver(std::move(b));
  repository::MemoryCredentialStore target;
  CopyEnd end;
  std::thread peer([&] { end = receive_shipment(receiver, target); });

  Shipper shipper(*journal, sender, 3, keep);
  EXPECT_EQ(shipper.cursor(), 40u);
  shipper.copy(source);
  EXPECT_EQ(shipper.shipped(), 20u);
  // Writes after the cursor reach the target only through the tail.
  source.put(make_record("keep-new"));
  source.put(make_record("skip-new"));
  (void)source.remove_all("keep-0");
  shipper.drain();
  EXPECT_EQ(shipper.cursor(), journal->last_sequence());
  shipper.finish();
  peer.join();

  EXPECT_EQ(end.sequence, journal->last_sequence());
  EXPECT_EQ(end.entries, 22u);
  EXPECT_EQ(shipper.shipped(), 22u);
  EXPECT_EQ(receiver.largest, 3u);
  std::vector<std::string> expected;
  for (const auto& username : source.usernames()) {
    if (!keep(username)) continue;
    for (const auto& record : source.list(username)) {
      expected.push_back(record.serialize());
    }
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(contents(target), expected);
  EXPECT_EQ(target.size(), 20u);  // keep-0 gone, keep-new arrived
}

TEST(ReplicationShipper, CopyCutsFramesBelowTheMessageCap) {
  // 40 records of 64 KiB: one frame of replication_batch (here 1000)
  // entries would be ~3.4 MiB of base64, over the channel's 1 MiB cap.
  repository::MemoryCredentialStore source;
  for (int i = 0; i < 40; ++i) {
    auto record = make_record("big-" + std::to_string(i));
    record.blob.assign(64 * 1024, static_cast<std::uint8_t>(i));
    source.put(record);
  }
  const ScratchDir dir("shipper-cap");
  const ReplicationJournal journal(dir / "journal.log");
  auto [a, b] = net::socket_pair();
  net::PlainChannel sender(std::move(a));
  BatchSizeChannel receiver(std::move(b));
  repository::MemoryCredentialStore target;
  std::thread peer([&] {
    try {
      (void)receive_shipment(receiver, target);
    } catch (const Error&) {
    }
  });
  Shipper shipper(journal, sender, 1000);
  EXPECT_NO_THROW({
    shipper.copy(source);
    shipper.finish();
  });
  sender.close();  // releases the peer if the copy failed
  peer.join();
  EXPECT_EQ(target.size(), 40u);
  EXPECT_LT(receiver.largest, 40u);
}

TEST(ReplicationShipper, TailCutsFramesBelowTheMessageCap) {
  // The journal tail of 40 RSA-sized 64 KiB records, shipped with
  // replication_batch 1000: one frame of all of them would be ~3.4 MiB.
  const ScratchDir dir("shipper-tail-cap");
  auto journal = std::make_shared<ReplicationJournal>(dir / "journal.log");
  ReplicatedStore source(
      std::make_unique<repository::MemoryCredentialStore>(), journal);
  auto [a, b] = net::socket_pair();
  net::PlainChannel sender(std::move(a));
  BatchSizeChannel receiver(std::move(b));
  repository::MemoryCredentialStore target;
  std::thread peer([&] {
    try {
      (void)receive_shipment(receiver, target);
    } catch (const Error&) {
    }
  });
  Shipper shipper(*journal, sender, 1000);
  for (int i = 0; i < 40; ++i) {
    auto record = make_record("big-" + std::to_string(i));
    record.blob.assign(64 * 1024, static_cast<std::uint8_t>(i));
    source.put(record);
  }
  EXPECT_NO_THROW({
    shipper.drain();
    shipper.finish();
  });
  sender.close();  // releases the peer if the drain failed
  peer.join();
  EXPECT_EQ(target.size(), 40u);
  EXPECT_GT(receiver.largest, 1u);
  EXPECT_LT(receiver.largest, 40u);
}

TEST(ReplicationShipper, JournalFileCutUnderTheJournalFailsReadsAndDrains) {
  // A file truncated under a running journal (a log rotation, say) must
  // fail its readers, not leave a drain or a tail spinning at a cursor
  // that can never move.
  const ScratchDir dir("journal-cut");
  const auto path = dir / "journal.log";
  ReplicationJournal journal(path);
  for (int i = 1; i <= 2; ++i) (void)journal.append(OpType::kRemoveAll, "u");
  auto [a, b] = net::socket_pair();
  net::PlainChannel sender(std::move(a));
  Shipper shipper(journal, sender, 100);
  for (int i = 3; i <= 4; ++i) (void)journal.append(OpType::kRemoveAll, "u");
  const auto cut = std::filesystem::file_size(path);
  for (int i = 5; i <= 10; ++i) (void)journal.append(OpType::kRemoveAll, "u");
  std::filesystem::resize_file(path, cut);

  EXPECT_THROW((void)journal.seek(6), IoError);
  auto cursor = journal.seek(1);
  EXPECT_THROW(journal.read(cursor, [](const JournalEntry&,
                                       std::string_view) { return true; }),
               IoError);
  EXPECT_EQ(cursor.sequence, 4u);
  EXPECT_THROW(shipper.drain(), IoError);
}

TEST(ReplicationShipper, ReceiveShipmentRefusesTheRecordPerFrameSnapshot) {
  // The snapshot format this replaced sent one bare record per frame
  // after a SNAPSHOT_COUNT response field; a receiver must fail on it, not
  // half-install it.
  auto [a, b] = net::socket_pair();
  net::PlainChannel sender(std::move(a));
  net::PlainChannel receiver(std::move(b));
  sender.send(make_record("alice").serialize());
  repository::MemoryCredentialStore target;
  EXPECT_THROW((void)receive_shipment(receiver, target), ProtocolError);
  EXPECT_EQ(target.size(), 0u);
}

TEST(ReplicationShipper, ReceiveShipmentRefusesAnEndFrameThatMiscounts) {
  auto [a, b] = net::socket_pair();
  net::PlainChannel sender(std::move(a));
  net::PlainChannel receiver(std::move(b));
  Batch batch;
  batch.entries.push_back({0, OpType::kPut, make_record("alice").serialize()});
  sender.send(batch_frame(batch));
  sender.send(encode_copy_end({5, 2}));
  repository::MemoryCredentialStore target;
  EXPECT_THROW((void)receive_shipment(receiver, target), ProtocolError);
  EXPECT_EQ(decode_ack(sender.receive()), 1u);
}

// Hostile input: bytes a peer sends on the replication stream, mutated
// deterministically (tests/common/mutation.hpp). Each case must decode or
// apply, or throw a myproxy::Error — never crash or throw anything else.
constexpr std::uint32_t kMutationCases = 1000;

template <typename Consume>
void survives_mutations(const std::string& valid, const std::string& donor,
                        Consume&& consume) {
  const auto input = encoding::to_bytes(valid);
  const auto other = encoding::to_bytes(donor);
  for (std::uint32_t i = 0; i < kMutationCases; ++i) {
    const std::string mutated =
        encoding::to_string(mutation::mutate(input, other, i));
    try {
      consume(mutated);
    } catch (const Error&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << "case " << i << " threw a non-myproxy error: "
                    << e.what();
    }
  }
}

Batch sample_batch() {
  Batch batch;
  batch.primary_last_sequence = 1234;
  batch.entries.push_back({1231, OpType::kPut,
                           make_record("alice", "wallet").serialize()});
  batch.entries.push_back(
      {1232, OpType::kRemove,
       repository::CredentialRecord::make_key("bob", "x")});
  batch.entries.push_back({1233, OpType::kRemoveAll, "carol"});
  return batch;
}

TEST(ReplicationHostileInput, DecodeBatchSurvivesMutations) {
  Batch donor;
  donor.primary_last_sequence = 9;
  donor.entries.push_back({0, OpType::kPut, make_record("dave").serialize()});
  survives_mutations(batch_frame(sample_batch()), batch_frame(donor),
                     [](const std::string& text) {
                       (void)decode_batch(text);
                     });
}

TEST(ReplicationHostileInput, DecodeAckSurvivesMutations) {
  survives_mutations(encode_ack(18446744073709551615ULL), encode_ack(7),
                     [](const std::string& text) { (void)decode_ack(text); });
}

TEST(ReplicationHostileInput, DecodeCopyEndSurvivesMutations) {
  survives_mutations(encode_copy_end({4096, 1024}), batch_frame({}),
                     [](const std::string& text) {
                       (void)decode_copy_end(text);
                     });
}

TEST(ReplicationHostileInput, ApplyEntrySurvivesMutations) {
  // Mutate the payload of each op type and apply it to a memory store.
  const std::string donor = make_record("erin", "other").serialize();
  for (const JournalEntry& valid : sample_batch().entries) {
    repository::MemoryCredentialStore store;
    survives_mutations(valid.payload, donor, [&](const std::string& payload) {
      apply_entry(store, {valid.sequence, valid.type, payload});
    });
  }
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(ReplicationHostileInput, JournalRecoverySurvivesMutations) {
  // A journal file torn or bit-rotted on disk. Opening it must never crash
  // or throw anything but IoError; it keeps a dense prefix of the entries
  // written and continues the sequence right after it. Payloads are long
  // and disjoint from the donor's, so no splice can forge a whole line.
  const ScratchDir dir("journal-mutations");
  std::vector<JournalEntry> originals;
  {
    ReplicationJournal journal(dir / "valid.log");
    ReplicationJournal donor(dir / "donor.log");
    for (int i = 0; i < 6; ++i) {
      JournalEntry entry{0, static_cast<OpType>(1 + i % 3),
                         std::string(40, static_cast<char>('a' + i))};
      entry.sequence = journal.append(entry.type, entry.payload);
      originals.push_back(entry);
      (void)donor.append(OpType::kPut,
                         std::string(40, static_cast<char>('A' + i)));
    }
  }
  const auto valid = encoding::to_bytes(read_file(dir / "valid.log"));
  const auto donor = encoding::to_bytes(read_file(dir / "donor.log"));
  const auto path = dir / "mutated.log";
  for (std::uint32_t i = 0; i < kMutationCases; ++i) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << encoding::to_string(mutation::mutate(valid, donor, i));
    }
    try {
      ReplicationJournal journal(path);
      const auto recovered = entries_after(journal, 0);
      ASSERT_LE(recovered.size(), originals.size()) << "case " << i;
      for (std::size_t j = 0; j < recovered.size(); ++j) {
        EXPECT_EQ(recovered[j].sequence, originals[j].sequence) << i;
        EXPECT_EQ(recovered[j].type, originals[j].type) << i;
        EXPECT_EQ(recovered[j].payload, originals[j].payload) << i;
      }
      EXPECT_EQ(journal.last_sequence(), recovered.size()) << "case " << i;
      EXPECT_EQ(journal.append(OpType::kRemoveAll, "next"),
                recovered.size() + 1)
          << "case " << i;
      EXPECT_EQ(entries_after(journal, 0).size(), recovered.size() + 1)
          << "case " << i;
    } catch (const IoError&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << "case " << i << " threw " << e.what();
    }
  }
}

TEST(ReplicationStore, MutationsAreJournaledInOrder) {
  const ScratchDir dir("store-order");
  auto journal = std::make_shared<ReplicationJournal>(dir / "journal.log");
  ReplicatedStore store(
      std::make_unique<repository::MemoryCredentialStore>(), journal);

  store.put(make_record("alice"));
  store.put(make_record("bob", "compute"));
  EXPECT_TRUE(store.remove("alice", ""));
  EXPECT_EQ(store.remove_all("bob"), 1u);

  EXPECT_EQ(journal->last_sequence(), 4u);
  const auto entries = entries_after(*journal, 0);
  ASSERT_EQ(entries.size(), 4u);
  EXPECT_EQ(entries[0].type, OpType::kPut);
  EXPECT_EQ(entries[2].type, OpType::kRemove);
  EXPECT_EQ(entries[3].type, OpType::kRemoveAll);
  EXPECT_EQ(entries[3].payload, "bob");
  EXPECT_EQ(store.size(), 0u);
}

TEST(ReplicationStore, JournalReplayRebuildsStoreLostBeforeApply) {
  const ScratchDir dir("store-replay");
  auto journal = std::make_shared<ReplicationJournal>(dir / "journal.log");
  {
    ReplicatedStore store(
        std::make_unique<repository::MemoryCredentialStore>(), journal,
        dir / "watermark");
    store.put(make_record("alice"));
    store.put(make_record("bob"));
    EXPECT_TRUE(store.remove("bob", ""));
  }
  // The memory store's contents died with the process; the journal did
  // not. A missing watermark means "assume nothing applied" — replay all.
  std::filesystem::remove(dir / "watermark");
  ReplicatedStore rebuilt(
      std::make_unique<repository::MemoryCredentialStore>(), journal,
      dir / "watermark");
  EXPECT_EQ(rebuilt.replayed(), 3u);
  EXPECT_EQ(rebuilt.size(), 1u);
  ASSERT_TRUE(rebuilt.get("alice", "").has_value());
  EXPECT_FALSE(rebuilt.get("bob", "").has_value());
}

TEST(ReplicationStore, IntactWatermarkSkipsReplay) {
  const ScratchDir dir("store-watermark");
  auto journal = std::make_shared<ReplicationJournal>(dir / "journal.log");
  {
    ReplicatedStore store(
        std::make_unique<repository::MemoryCredentialStore>(), journal,
        dir / "watermark");
    store.put(make_record("alice"));
  }  // destructor persists the watermark at the applied tip
  ReplicatedStore reopened(
      std::make_unique<repository::MemoryCredentialStore>(), journal,
      dir / "watermark");
  EXPECT_EQ(reopened.replayed(), 0u);
}

TEST(ReplicationStore, WatermarkReplaySpansSeveralReadChunks) {
  // The replay past the watermark reads the journal file back a chunk at
  // a time; this tail is several chunks long.
  const ScratchDir dir("store-replay-chunks");
  auto journal = std::make_shared<ReplicationJournal>(dir / "journal.log");
  std::vector<std::string> expected;
  {
    ReplicatedStore store(
        std::make_unique<repository::MemoryCredentialStore>(), journal);
    for (int i = 0; i < 5; ++i) {
      store.put(make_record("early-" + std::to_string(i)));
    }
    repository::MemoryCredentialStore late;
    for (int i = 0; i < 400; ++i) {
      auto record = make_record("late-" + std::to_string(i % 150));
      record.blob.assign(512, static_cast<std::uint8_t>(i));
      if (i % 7 == 6) {
        (void)store.remove_all(record.username);
        (void)late.remove_all(record.username);
      } else {
        store.put(record);
        late.put(record);
      }
    }
    expected = contents(late);
  }
  ASSERT_GT(std::filesystem::file_size(dir / "journal.log"),
            3 * kJournalReadChunk);
  // The store died with everything after sequence 5 unapplied.
  ASSERT_TRUE(write_sequence_file(dir / "watermark", 5).empty());
  ReplicatedStore rebuilt(
      std::make_unique<repository::MemoryCredentialStore>(), journal,
      dir / "watermark");
  EXPECT_EQ(rebuilt.replayed(), journal->last_sequence() - 5);
  EXPECT_EQ(contents(rebuilt), expected);
}

TEST(ReplicationJournal, ReadersRaceAppenders) {
  // Four appenders and a reader that follows them to the tip: the reader
  // sees every sequence once, in order, each line passing its checksum,
  // and each appender's entries in the order it wrote them.
  const ScratchDir dir("journal-race");
  ReplicationJournal journal(dir / "journal.log");
  constexpr int kAppenders = 4;
  constexpr int kPerAppender = 200;
  constexpr std::uint64_t kTotal = kAppenders * kPerAppender;
  std::vector<std::thread> appenders;
  for (int w = 0; w < kAppenders; ++w) {
    appenders.emplace_back([&journal, w] {
      for (int i = 0; i < kPerAppender; ++i) {
        (void)journal.append(OpType::kPut,
                             std::to_string(w) + " " + std::to_string(i));
      }
    });
  }
  std::vector<int> next(kAppenders, 0);
  std::uint64_t last = 0;
  auto cursor = journal.seek(0);
  while (cursor.sequence < kTotal) {
    ASSERT_TRUE(journal.wait_for_entries(cursor.sequence, Millis(10000)));
    journal.read(cursor, [&](const JournalEntry& entry,
                             std::string_view line) {
      EXPECT_EQ(entry.sequence, last + 1);
      last = entry.sequence;
      const auto decoded = decode_line(line);
      EXPECT_TRUE(decoded.has_value() && decoded->payload == entry.payload);
      const auto fields = strings::split(entry.payload, ' ');
      const auto writer = static_cast<std::size_t>(std::stoi(fields.at(0)));
      EXPECT_EQ(std::stoi(fields.at(1)), next.at(writer)++);
      return true;
    });
  }
  for (auto& appender : appenders) appender.join();
  EXPECT_EQ(last, kTotal);
  EXPECT_EQ(journal.last_sequence(), kTotal);
}

TEST(ReplicationConcurrencyTest, ParallelMutationsKeepJournalAndStoreAgreed) {
  const ScratchDir dir("store-threads");
  auto journal = std::make_shared<ReplicationJournal>(dir / "journal.log");
  ReplicatedStore store(
      std::make_unique<repository::MemoryCredentialStore>(), journal);

  constexpr int kWriters = 4;
  constexpr int kOpsPerWriter = 50;
  std::vector<std::thread> threads;
  threads.reserve(kWriters + 2);
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&store, w] {
      const std::string user = "user-" + std::to_string(w);
      for (int i = 0; i < kOpsPerWriter; ++i) {
        store.put(make_record(user, "slot-" + std::to_string(i % 5)));
      }
    });
  }
  std::atomic<bool> done{false};
  threads.emplace_back([&store, &done] {
    while (!done.load()) {
      (void)store.usernames();  // all-stripes snapshot barrier
      (void)store.list("user-0");
    }
  });
  threads.emplace_back([&store, &done] {
    while (!done.load()) {
      (void)store.get("user-1", "slot-1");
      (void)store.size();
    }
  });
  for (int w = 0; w < kWriters; ++w) threads[static_cast<std::size_t>(w)].join();
  done.store(true);
  threads[kWriters].join();
  threads[kWriters + 1].join();

  EXPECT_EQ(journal->last_sequence(),
            static_cast<std::uint64_t>(kWriters * kOpsPerWriter));
  EXPECT_EQ(store.size(), static_cast<std::size_t>(kWriters * 5));
  EXPECT_EQ(store.usernames().size(), static_cast<std::size_t>(kWriters));
}

TEST(ReplicationConcurrencyTest, ReplayedStoreMatchesParallelHistory) {
  // Writers race on the SAME keys; whatever order the journal recorded is
  // the order replay applies, so a rebuilt store must equal the original.
  const ScratchDir dir("store-race-replay");
  auto journal = std::make_shared<ReplicationJournal>(dir / "journal.log");
  auto original = std::make_unique<ReplicatedStore>(
      std::make_unique<repository::MemoryCredentialStore>(), journal);

  std::vector<std::thread> threads;
  for (int w = 0; w < 3; ++w) {
    threads.emplace_back([&store = *original, w] {
      for (int i = 0; i < 30; ++i) {
        if (i % 7 == 3) {
          (void)store.remove("shared", "slot");
        } else {
          auto record = make_record("shared", "slot");
          record.owner_dn = "/O=Grid/CN=writer-" + std::to_string(w);
          store.put(record);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const auto expected = original->get("shared", "slot");
  original.reset();

  ReplicatedStore rebuilt(
      std::make_unique<repository::MemoryCredentialStore>(), journal);
  const auto actual = rebuilt.get("shared", "slot");
  EXPECT_EQ(expected.has_value(), actual.has_value());
  if (expected.has_value() && actual.has_value()) {
    EXPECT_EQ(expected->owner_dn, actual->owner_dn);
  }
}

}  // namespace
}  // namespace myproxy::replication
