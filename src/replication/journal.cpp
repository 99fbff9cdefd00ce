#include "replication/journal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
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

/// The one line scanner behind recovery, seeks and reads: calls
/// `on_line(line, next)` for each complete line of `fd` in [offset, end),
/// `next` being the offset past its newline, reading kJournalReadChunk
/// bytes at a time. Stops at the first line `on_line` refuses and returns
/// the offset past the last line it accepted.
template <typename OnLine>
std::uint64_t scan_lines(int fd, std::uint64_t offset, std::uint64_t end,
                         OnLine&& on_line) {
  std::string buffer;        // file bytes from `offset` on
  std::size_t start = 0;     // index of the next line in `buffer`
  std::size_t searched = 0;  // bytes from `start` known to hold no newline
  while (true) {
    const std::size_t nl = buffer.find('\n', start + searched);
    if (nl != std::string::npos) {
      const std::string_view line(buffer.data() + start, nl - start);
      if (!on_line(line, offset + nl + 1)) return offset + start;
      start = nl + 1;
      searched = 0;
      continue;
    }
    searched = buffer.size() - start;
    const std::uint64_t at = offset + buffer.size();
    if (at >= end) return offset + start;
    buffer.erase(0, start);
    offset += start;
    start = 0;
    const std::size_t have = buffer.size();
    const auto want = static_cast<std::size_t>(
        std::min<std::uint64_t>(kJournalReadChunk, end - at));
    buffer.resize(have + want);
    const ssize_t got =
        ::pread(fd, buffer.data() + have, want, static_cast<off_t>(at));
    if (got < 0 && errno != EINTR) {
      throw IoError(fmt::format("journal read failed: {}",
                                std::strerror(errno)));
    }
    buffer.resize(have + static_cast<std::size_t>(std::max<ssize_t>(got, 0)));
    if (got == 0) return offset;  // the file ends before `end`
  }
}

/// What a read or seek throws when the file ends before the end offset
/// the journal published: the file was cut under it.
IoError cut_short(const std::filesystem::path& path, std::uint64_t at,
                  std::uint64_t end) {
  return IoError(fmt::format(
      "journal '{}' ends at byte {} before its published end {} (truncated "
      "or rotated while the server ran?)",
      path.string(), at, end));
}

}  // namespace

std::string encode_line(const JournalEntry& entry) {
  const std::string encoded = encoding::base64_encode(entry.payload);
  return fmt::format("E {} {} {} {}", entry.sequence,
                     static_cast<int>(entry.type), encoded,
                     checksum_hex(entry.sequence, entry.type, encoded));
}

std::optional<JournalEntry> decode_line(std::string_view line) {
  const auto parts = strings::split(line, ' ');
  if (parts.size() != 5 || parts[0] != "E") return std::nullopt;
  const auto sequence = strings::parse_u64(parts[1]);
  const auto type = strings::parse_u64(parts[2]);
  if (!sequence.has_value() || !type.has_value() || *type < 1 || *type > 3) {
    return std::nullopt;
  }
  JournalEntry entry;
  entry.sequence = *sequence;
  entry.type = static_cast<OpType>(*type);
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
  fd_ = ::open(path_.c_str(), O_RDWR | O_APPEND | O_CREAT | O_CLOEXEC, 0600);
  if (fd_ < 0) {
    throw IoError(fmt::format("cannot open journal '{}'", path_.string()));
  }
  try {
    recover();
  } catch (...) {
    ::close(fd_);
    throw;
  }
}

ReplicationJournal::~ReplicationJournal() {
  if (fd_ >= 0) ::close(fd_);
}

void ReplicationJournal::recover() {
  struct stat info {};
  if (::fstat(fd_, &info) != 0) {
    throw IoError(fmt::format("cannot stat journal '{}'", path_.string()));
  }
  const auto size = static_cast<std::uint64_t>(info.st_size);
  bool have_header = false;
  // Stop at the first bad or out-of-order line: everything after a torn
  // record is unordered debris from a crashed append. Sequences are dense
  // from 1 (the journal never trims), which seek() relies on.
  end_offset_ = scan_lines(fd_, 0, size, [&](std::string_view line,
                                             std::uint64_t) {
    if (!have_header) return (have_header = line == kJournalHeader);
    const auto entry = decode_line(line);
    if (!entry.has_value() || entry->sequence != last_sequence_ + 1) {
      return false;
    }
    last_sequence_ = entry->sequence;
    return true;
  });

  if (end_offset_ < size) {
    recovered_bytes_ = size - end_offset_;
    log::warn(kLogComponent,
              "journal '{}': discarding {} torn byte(s) past sequence {}",
              path_.string(), recovered_bytes_, last_sequence_);
    if (::ftruncate(fd_, static_cast<off_t>(end_offset_)) != 0) {
      throw IoError(fmt::format("cannot truncate journal '{}'",
                                path_.string()));
    }
  }
  if (end_offset_ == 0) {
    const std::string header = std::string(kJournalHeader) + "\n";
    if (::write(fd_, header.data(), header.size()) !=
        static_cast<ssize_t>(header.size())) {
      throw IoError(fmt::format("cannot initialize journal '{}'",
                                path_.string()));
    }
    end_offset_ = header.size();
  }
}

std::uint64_t ReplicationJournal::append(OpType type, std::string payload) {
  JournalEntry entry;
  entry.type = type;
  entry.payload = std::move(payload);
  {
    const std::scoped_lock lock(mutex_);
    entry.sequence = last_sequence_ + 1;
    const std::string line = encode_line(entry) + "\n";
    if (::write(fd_, line.data(), line.size()) !=
        static_cast<ssize_t>(line.size())) {
      // Cut a short write back off so the next append lands where readers
      // expect it; if even that fails, the next open truncates it.
      (void)::ftruncate(fd_, static_cast<off_t>(end_offset_));
      throw IoError(fmt::format("journal append failed ('{}')",
                                path_.string()));
    }
    last_sequence_ = entry.sequence;
    end_offset_ += line.size();
  }
  // Flush outside the append lock so readers and the next appender are not
  // held behind the device.
  if (sync_mode_ == repository::SyncMode::kFsync && ::fdatasync(fd_) != 0) {
    throw IoError(fmt::format("journal fdatasync failed ('{}')",
                              path_.string()));
  }
  cv_.notify_all();
  return entry.sequence;
}

std::uint64_t ReplicationJournal::last_sequence() const {
  const std::scoped_lock lock(mutex_);
  return last_sequence_;
}

ReplicationJournal::Cursor ReplicationJournal::tip() const {
  const std::scoped_lock lock(mutex_);
  return {last_sequence_, end_offset_};
}

ReplicationJournal::Cursor ReplicationJournal::seek(
    std::uint64_t sequence) const {
  const Cursor end = tip();
  if (sequence >= end.sequence) return end;
  Cursor cursor;
  bool have_header = false;
  cursor.offset = scan_lines(
      fd_, 0, end.offset, [&](std::string_view, std::uint64_t) {
        if (!have_header) return (have_header = true);
        if (cursor.sequence == sequence) return false;
        // recover() and append() keep sequences dense from 1, so line n
        // holds entry n; read() checks each sequence it decodes.
        ++cursor.sequence;
        return true;
      });
  if (cursor.sequence != sequence) {
    throw cut_short(path_, cursor.offset, end.offset);
  }
  return cursor;
}

void ReplicationJournal::read(Cursor& cursor, const Visitor& visit) const {
  const std::uint64_t end = tip().offset;
  bool refused = false;
  const std::uint64_t stopped = scan_lines(
      fd_, cursor.offset, end, [&](std::string_view line,
                                   std::uint64_t next) {
        auto entry = decode_line(line);
        if (!entry.has_value() || entry->sequence != cursor.sequence + 1) {
          throw IoError(fmt::format(
              "journal '{}' is corrupt after sequence {}", path_.string(),
              cursor.sequence));
        }
        if (!visit(*entry, line)) {
          refused = true;
          return false;
        }
        cursor = {entry->sequence, next};
        return true;
      });
  // A cut file would otherwise leave `cursor` where it is, and a drain or
  // a tail would spin on it.
  if (!refused && stopped < end) throw cut_short(path_, stopped, end);
}

bool ReplicationJournal::wait_for_entries(
    std::uint64_t after, Millis timeout,
    const std::atomic<bool>* stop) const {
  std::unique_lock lock(mutex_);
  (void)cv_.wait_for(lock, timeout, [&] {
    return last_sequence_ > after || (stop != nullptr && stop->load());
  });
  return last_sequence_ > after;
}

void ReplicationJournal::wake_waiters() const {
  const std::scoped_lock lock(mutex_);
  cv_.notify_all();
}

}  // namespace myproxy::replication
