#include "replication/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <charconv>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/encoding.hpp"
#include "common/error.hpp"
#include "common/format.hpp"
#include "common/logging.hpp"
#include "common/strings.hpp"

namespace myproxy::replication {

namespace {

constexpr std::string_view kLogComponent = "replication";
constexpr std::string_view kJournalHeader = "myproxy-journal-v1";

/// Same stable hash the sharded store uses for shard placement; here it
/// detects torn or bit-rotted journal lines.
using strings::fnv1a64;

std::string checksum_hex(std::uint64_t sequence, OpType type,
                         std::string_view encoded_payload) {
  const std::uint64_t sum = fnv1a64(fmt::format(
      "{} {} {}", sequence, static_cast<int>(type), encoded_payload));
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  std::uint64_t v = sum;
  for (std::size_t i = 16; i-- > 0; v >>= 4) out[i] = kDigits[v & 0xf];
  return out;
}

std::string encode_line(const JournalEntry& entry) {
  const std::string encoded = encoding::base64_encode(entry.payload);
  return fmt::format("E {} {} {} {}\n", entry.sequence,
                     static_cast<int>(entry.type), encoded,
                     checksum_hex(entry.sequence, entry.type, encoded));
}

/// Parse one journal line; nullopt when the line is torn or corrupt.
std::optional<JournalEntry> decode_line(std::string_view line) {
  const auto parts = strings::split(line, ' ');
  if (parts.size() != 5 || parts[0] != "E") return std::nullopt;
  JournalEntry entry;
  const auto parse_u64 = [](std::string_view text, std::uint64_t& out) {
    const auto [ptr, ec] =
        std::from_chars(text.data(), text.data() + text.size(), out);
    return ec == std::errc() && ptr == text.data() + text.size();
  };
  std::uint64_t type_raw = 0;
  if (!parse_u64(parts[1], entry.sequence) || !parse_u64(parts[2], type_raw)) {
    return std::nullopt;
  }
  if (type_raw < 1 || type_raw > 3) return std::nullopt;
  entry.type = static_cast<OpType>(type_raw);
  if (parts[4] != checksum_hex(entry.sequence, entry.type, parts[3])) {
    return std::nullopt;
  }
  try {
    entry.payload = encoding::base64_decode_string(parts[3]);
  } catch (const ParseError&) {
    return std::nullopt;
  }
  return entry;
}

}  // namespace

std::string_view to_string(OpType type) noexcept {
  switch (type) {
    case OpType::kPut:
      return "put";
    case OpType::kRemove:
      return "remove";
    case OpType::kRemoveAll:
      return "remove-all";
  }
  return "?";
}

namespace {

/// (username, credential name) of a kRemove payload, make_key(username,
/// name): the '\x1e' separator is a control byte no username or slot name
/// can contain.
std::pair<std::string_view, std::string_view> remove_key(
    std::string_view payload) {
  const auto sep = payload.find('\x1e');
  if (sep == std::string_view::npos) {
    throw ParseError("journal remove entry missing key separator");
  }
  return {payload.substr(0, sep), payload.substr(sep + 1)};
}

ParseError unknown_type(OpType type) {
  return ParseError(
      fmt::format("unknown journal op type {}", static_cast<int>(type)));
}

}  // namespace

void apply_entry(repository::CredentialStore& store,
                 const JournalEntry& entry) {
  switch (entry.type) {
    case OpType::kPut:
      store.put(repository::CredentialRecord::parse(entry.payload));
      return;
    case OpType::kRemove: {
      const auto [username, name] = remove_key(entry.payload);
      store.remove(username, name);
      return;
    }
    case OpType::kRemoveAll:
      store.remove_all(entry.payload);
      return;
  }
  throw unknown_type(entry.type);
}

std::string entry_username(const JournalEntry& entry) {
  switch (entry.type) {
    case OpType::kPut:
      return repository::CredentialRecord::parse(entry.payload).username;
    case OpType::kRemove:
      return std::string(remove_key(entry.payload).first);
    case OpType::kRemoveAll:
      return entry.payload;
  }
  throw unknown_type(entry.type);
}

std::string write_sequence_file(const std::filesystem::path& path,
                                std::uint64_t sequence) {
  const std::filesystem::path tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out << sequence << '\n';
    if (!out) return fmt::format("cannot write '{}'", tmp.string());
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  return ec ? ec.message() : std::string();
}

std::uint64_t read_sequence_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::uint64_t sequence = 0;
  in >> sequence;
  return in.fail() ? 0 : sequence;
}

ReplicationJournal::ReplicationJournal(std::filesystem::path path,
                                       repository::SyncMode sync_mode)
    : path_(std::move(path)), sync_mode_(sync_mode) {
  std::filesystem::create_directories(path_.parent_path());
  recover();
  fd_ = ::open(path_.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC,
               0600);
  if (fd_ < 0) {
    throw IoError(fmt::format("cannot open journal '{}'", path_.string()));
  }
  if (entries_.empty() && last_sequence_ == 0) {
    const std::string header = std::string(kJournalHeader) + "\n";
    if (::write(fd_, header.data(), header.size()) !=
        static_cast<ssize_t>(header.size())) {
      throw IoError(fmt::format("cannot initialize journal '{}'",
                                path_.string()));
    }
  }
}

ReplicationJournal::~ReplicationJournal() {
  if (fd_ >= 0) ::close(fd_);
}

void ReplicationJournal::recover() {
  std::ifstream in(path_, std::ios::binary);
  if (!in) return;  // fresh journal
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string content = buffer.str();

  std::size_t good_end = 0;  // byte offset past the last intact line
  std::size_t pos = 0;
  bool have_header = false;
  while (pos < content.size()) {
    const std::size_t nl = content.find('\n', pos);
    if (nl == std::string::npos) break;  // torn tail: no newline committed
    const std::string_view line(content.data() + pos, nl - pos);
    if (!have_header) {
      if (line != kJournalHeader) break;
      have_header = true;
    } else {
      auto entry = decode_line(line);
      // Stop at the first bad or out-of-order line: everything after a torn
      // record is unordered debris from a crashed append. Sequences must be
      // dense (entries_after() indexes on that).
      if (!entry.has_value() ||
          (!entries_.empty() && entry->sequence != last_sequence_ + 1)) {
        break;
      }
      last_sequence_ = entry->sequence;
      entries_.push_back(std::move(*entry));
    }
    pos = nl + 1;
    good_end = pos;
  }

  if (good_end < content.size()) {
    recovered_bytes_ = content.size() - good_end;
    log::warn(kLogComponent,
              "journal '{}': discarding {} torn byte(s) past sequence {}",
              path_.string(), recovered_bytes_, last_sequence_);
    std::filesystem::resize_file(path_, good_end);
  }
}

std::uint64_t ReplicationJournal::append(OpType type, std::string payload) {
  JournalEntry entry;
  entry.type = type;
  entry.payload = std::move(payload);
  {
    const std::scoped_lock lock(mutex_);
    entry.sequence = ++last_sequence_;
    const std::string line = encode_line(entry);
    if (::write(fd_, line.data(), line.size()) !=
        static_cast<ssize_t>(line.size())) {
      // The sequence number is burned either way; a short write leaves a
      // torn tail that the next open truncates.
      throw IoError(fmt::format("journal append failed ('{}')",
                                path_.string()));
    }
    entries_.push_back(entry);
  }
  // Flush outside the append lock so concurrent appenders can batch their
  // fsyncs through the group committer (same discipline as the store).
  switch (sync_mode_) {
    case repository::SyncMode::kNone:
      break;
    case repository::SyncMode::kFsync:
      if (::fdatasync(fd_) != 0) {
        throw IoError(fmt::format("journal fdatasync failed ('{}')",
                                  path_.string()));
      }
      break;
    case repository::SyncMode::kGroup:
      committer_.sync({fd_}, /*data_only=*/true);
      break;
  }
  cv_.notify_all();
  return entry.sequence;
}

std::uint64_t ReplicationJournal::last_sequence() const {
  const std::scoped_lock lock(mutex_);
  return last_sequence_;
}

std::uint64_t ReplicationJournal::first_sequence() const {
  const std::scoped_lock lock(mutex_);
  return entries_.empty() ? last_sequence_ + 1 : entries_.front().sequence;
}

std::vector<JournalEntry> ReplicationJournal::entries_after(
    std::uint64_t after, std::size_t limit) const {
  const std::scoped_lock lock(mutex_);
  std::vector<JournalEntry> out;
  if (entries_.empty() || limit == 0) return out;
  // Entries are dense (sequence i lives at index i - first): index directly
  // instead of scanning.
  const std::uint64_t first = entries_.front().sequence;
  const std::uint64_t start = after < first ? first : after + 1;
  if (start > last_sequence_) return out;
  for (std::size_t i = static_cast<std::size_t>(start - first);
       i < entries_.size() && out.size() < limit; ++i) {
    out.push_back(entries_[i]);
  }
  return out;
}

bool ReplicationJournal::wait_for_entries(std::uint64_t after,
                                          Millis timeout) const {
  std::unique_lock lock(mutex_);
  return cv_.wait_for(lock, timeout,
                      [&] { return last_sequence_ > after; });
}

}  // namespace myproxy::replication
