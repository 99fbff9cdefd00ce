#include "repository/credential_store.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include "common/encoding.hpp"
#include "common/error.hpp"
#include "common/format.hpp"
#include "common/logging.hpp"
#include "common/strings.hpp"
#include "common/thread_pool.hpp"

namespace myproxy::repository {

namespace {

constexpr std::string_view kLogComponent = "store";
constexpr std::string_view kLayoutMarker = "shard-layout";
constexpr std::string_view kLayoutTag = "myproxy-shard-layout-v1";

void append_line(std::string& out, std::string_view key,
                 std::string_view value) {
  if (value.find('\n') != std::string_view::npos) {
    throw ParseError(fmt::format("record field '{}' contains newline", key));
  }
  out += key;
  out += ' ';
  out += value;
  out += '\n';
}

/// Stable across processes and platforms — the on-disk shard of a username
/// must never depend on the run-time behaviour of std::hash. The cluster
/// layer partitions usernames with the same function (strings::fnv1a64).
using strings::fnv1a64;

/// Two lowercase hex digits per shard index ("00".."ff"; wider only past a
/// 256-way fanout). myproxy::fmt has no width/zero-pad specs, so spell it out.
std::string shard_dir_name(std::size_t index) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string name;
  for (std::size_t v = index; v != 0; v /= 16) {
    name.insert(name.begin(), kDigits[v % 16]);
  }
  while (name.size() < 2) name.insert(name.begin(), '0');
  return name;
}

/// Hex-encode to keep arbitrary usernames file-system safe. Shared by the
/// flat and sharded layouts, which is what makes migration a rename.
std::string record_file_name(std::string_view username,
                             std::string_view name) {
  return fmt::format("{}-{}.cred",
                     encoding::hex_encode(encoding::to_bytes(username)),
                     encoding::hex_encode(encoding::to_bytes(name)));
}

std::optional<std::string> read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Write record text to a fresh owner-only temp file.
void write_record_file(const std::filesystem::path& tmp,
                       const CredentialRecord& record) {
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw IoError(fmt::format("cannot write {}", tmp.string()));
    out << record.serialize();
    if (!out.flush()) {
      throw IoError(fmt::format("flush failed for {}", tmp.string()));
    }
  }
  std::error_code ec;
  std::filesystem::permissions(
      tmp,
      std::filesystem::perms::owner_read | std::filesystem::perms::owner_write,
      std::filesystem::perm_options::replace, ec);
}

void make_private_directory(const std::filesystem::path& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    throw IoError(fmt::format("cannot create storage directory {}: {}",
                              dir.string(), ec.message()));
  }
  // Restrict to the owner, as the original server does for its repository
  // directory.
  std::filesystem::permissions(dir, std::filesystem::perms::owner_all,
                               std::filesystem::perm_options::replace, ec);
}

}  // namespace

std::string_view to_string(Sealing sealing) noexcept {
  switch (sealing) {
    case Sealing::kPassphrase:
      return "passphrase";
    case Sealing::kMasterKey:
      return "master-key";
    case Sealing::kPlain:
      return "plain";
  }
  return "?";
}

Sealing sealing_from_string(std::string_view text) {
  if (text == "passphrase") return Sealing::kPassphrase;
  if (text == "master-key") return Sealing::kMasterKey;
  if (text == "plain") return Sealing::kPlain;
  throw ParseError(fmt::format("unknown sealing mode '{}'", text));
}

std::string_view to_string(SyncMode mode) noexcept {
  switch (mode) {
    case SyncMode::kNone:
      return "none";
    case SyncMode::kFsync:
      return "fsync";
  }
  return "?";
}

SyncMode sync_mode_from_string(std::string_view text) {
  if (text == "none") return SyncMode::kNone;
  if (text == "fsync") return SyncMode::kFsync;
  throw ParseError(fmt::format("unknown sync mode '{}' (none|fsync)", text));
}

std::string CredentialRecord::make_key(std::string_view username,
                                       std::string_view name) {
  std::string key;
  key.reserve(username.size() + 1 + name.size());
  key.append(username);
  key.push_back('\x1e');
  key.append(name);
  return key;
}

std::string CredentialRecord::serialize() const {
  std::string out = "myproxy-record-v1\n";
  append_line(out, "username", encoding::base64_encode(username));
  append_line(out, "name", encoding::base64_encode(name));
  append_line(out, "owner_dn", owner_dn);
  append_line(out, "sealing", to_string(sealing));
  if (passphrase_digest.has_value()) {
    append_line(out, "passphrase_digest", *passphrase_digest);
  }
  append_line(out, "created_at", std::to_string(to_unix(created_at)));
  append_line(out, "not_after", std::to_string(to_unix(not_after)));
  append_line(out, "max_delegation_lifetime",
              std::to_string(max_delegation_lifetime.count()));
  for (const auto& pattern : retriever_patterns) {
    append_line(out, "retriever", pattern);
  }
  for (const auto& pattern : renewer_patterns) {
    append_line(out, "renewer", pattern);
  }
  if (always_limited) append_line(out, "always_limited", "1");
  if (restriction.has_value()) append_line(out, "restriction", *restriction);
  if (!task_tags.empty()) append_line(out, "task_tags", task_tags);
  if (otp.has_value()) {
    append_line(out, "otp_current", otp->current_hex);
    append_line(out, "otp_remaining", std::to_string(otp->remaining));
  }
  append_line(out, "blob", encoding::base64_encode(blob));
  return out;
}

namespace {

/// Strict numeric record field: "12abc" or a stray sign is a corrupt
/// record, not a number to salvage.
std::int64_t record_i64(std::string_view key, std::string_view value) {
  const auto parsed = strings::parse_i64(value);
  if (!parsed.has_value()) {
    throw ParseError(fmt::format(
        "credential record field '{}' is not a number: '{}'", key, value));
  }
  return *parsed;
}

/// A record timestamp: whole seconds that a TimePoint can hold. Anything
/// beyond overflows its nanosecond count, so it is a corrupt record too.
TimePoint record_time(std::string_view key, std::string_view value) {
  constexpr std::int64_t kMaxSeconds =
      std::chrono::duration_cast<Seconds>(TimePoint::max().time_since_epoch())
          .count();
  const std::int64_t seconds = record_i64(key, value);
  if (seconds > kMaxSeconds || seconds < -kMaxSeconds) {
    throw ParseError(fmt::format(
        "credential record field '{}' is out of range: '{}'", key, value));
  }
  return from_unix(seconds);
}

std::uint64_t record_u64(std::string_view key, std::string_view value) {
  const auto parsed = strings::parse_u64(value);
  if (!parsed.has_value()) {
    throw ParseError(fmt::format(
        "credential record field '{}' is not a number: '{}'", key, value));
  }
  return *parsed;
}

}  // namespace

CredentialRecord CredentialRecord::parse(std::string_view text) {
  const auto lines = strings::split(text, '\n');
  if (lines.empty() || strings::trim(lines[0]) != "myproxy-record-v1") {
    throw ParseError("credential record missing version header");
  }
  CredentialRecord record;
  std::optional<std::string> otp_current;
  std::optional<std::uint32_t> otp_remaining;
  bool have_blob = false;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    // Do not trim the whole line: a field value may legitimately be empty
    // (e.g. the default wallet slot's base64-encoded "" name).
    std::string_view line = lines[i];
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (strings::trim(line).empty()) continue;
    const std::size_t space = line.find(' ');
    const std::string_view key =
        space == std::string_view::npos ? line : line.substr(0, space);
    const std::string_view value =
        space == std::string_view::npos ? std::string_view{}
                                        : line.substr(space + 1);
    if (key == "username") {
      record.username = encoding::base64_decode_string(value);
    } else if (key == "name") {
      record.name = encoding::base64_decode_string(value);
    } else if (key == "owner_dn") {
      record.owner_dn = value;
    } else if (key == "sealing") {
      record.sealing = sealing_from_string(value);
    } else if (key == "passphrase_digest") {
      record.passphrase_digest = std::string(value);
    } else if (key == "created_at") {
      record.created_at = record_time(key, value);
    } else if (key == "not_after") {
      record.not_after = record_time(key, value);
    } else if (key == "max_delegation_lifetime") {
      record.max_delegation_lifetime = Seconds(record_i64(key, value));
    } else if (key == "retriever") {
      record.retriever_patterns.emplace_back(value);
    } else if (key == "renewer") {
      record.renewer_patterns.emplace_back(value);
    } else if (key == "always_limited") {
      record.always_limited = (value == "1");
    } else if (key == "restriction") {
      record.restriction = std::string(value);
    } else if (key == "task_tags") {
      record.task_tags = value;
    } else if (key == "otp_current") {
      otp_current = std::string(value);
    } else if (key == "otp_remaining") {
      otp_remaining = static_cast<std::uint32_t>(record_u64(key, value));
    } else if (key == "blob") {
      record.blob = encoding::base64_decode(value);
      have_blob = true;
    } else {
      throw ParseError(fmt::format("unknown record field '{}'", key));
    }
  }
  if (!have_blob) throw ParseError("credential record missing blob");
  if (otp_current.has_value() != otp_remaining.has_value()) {
    throw ParseError("credential record has partial OTP state");
  }
  if (otp_current.has_value()) {
    record.otp = OtpState{*otp_current, *otp_remaining};
  }
  return record;
}

// --- MemoryCredentialStore --------------------------------------------------

void MemoryCredentialStore::put(const CredentialRecord& record) {
  const std::scoped_lock lock(mutex_);
  records_[record.key()] = record;
}

std::optional<CredentialRecord> MemoryCredentialStore::get(
    std::string_view username, std::string_view name) const {
  const std::scoped_lock lock(mutex_);
  const auto it = records_.find(CredentialRecord::make_key(username, name));
  if (it == records_.end()) return std::nullopt;
  return it->second;
}

bool MemoryCredentialStore::remove(std::string_view username,
                                   std::string_view name) {
  const std::scoped_lock lock(mutex_);
  return records_.erase(CredentialRecord::make_key(username, name)) != 0;
}

std::size_t MemoryCredentialStore::remove_all(std::string_view username) {
  const std::scoped_lock lock(mutex_);
  std::size_t removed = 0;
  for (auto it = records_.begin(); it != records_.end();) {
    if (it->second.username == username) {
      it = records_.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  return removed;
}

std::vector<CredentialRecord> MemoryCredentialStore::list(
    std::string_view username) const {
  const std::scoped_lock lock(mutex_);
  std::vector<CredentialRecord> out;
  for (const auto& [key, record] : records_) {
    if (record.username == username) out.push_back(record);
  }
  return out;
}

std::size_t MemoryCredentialStore::size() const {
  const std::scoped_lock lock(mutex_);
  return records_.size();
}

std::size_t MemoryCredentialStore::sweep_expired() {
  const std::scoped_lock lock(mutex_);
  std::size_t swept = 0;
  for (auto it = records_.begin(); it != records_.end();) {
    if (it->second.expired()) {
      it = records_.erase(it);
      ++swept;
    } else {
      ++it;
    }
  }
  return swept;
}

std::vector<std::string> MemoryCredentialStore::usernames() const {
  const std::scoped_lock lock(mutex_);
  std::vector<std::string> out;
  for (const auto& [key, record] : records_) {
    if (out.empty() || out.back() != record.username) {
      out.push_back(record.username);
    }
  }
  return out;
}

// --- FlatFileCredentialStore ------------------------------------------------

FlatFileCredentialStore::FlatFileCredentialStore(
    std::filesystem::path directory)
    : directory_(std::move(directory)) {
  make_private_directory(directory_);
}

std::filesystem::path FlatFileCredentialStore::record_path(
    std::string_view username, std::string_view name) const {
  return directory_ / record_file_name(username, name);
}

void FlatFileCredentialStore::put(const CredentialRecord& record) {
  const std::scoped_lock lock(mutex_);
  const auto path = record_path(record.username, record.name);
  const auto tmp = std::filesystem::path(path.string() + ".tmp");
  write_record_file(tmp, record);
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    throw IoError(fmt::format("cannot commit record {}: {}", path.string(),
                              ec.message()));
  }
}

std::optional<CredentialRecord> FlatFileCredentialStore::get(
    std::string_view username, std::string_view name) const {
  const std::scoped_lock lock(mutex_);
  const auto text = read_file(record_path(username, name));
  if (!text.has_value()) return std::nullopt;
  return CredentialRecord::parse(*text);
}

bool FlatFileCredentialStore::remove(std::string_view username,
                                     std::string_view name) {
  const std::scoped_lock lock(mutex_);
  std::error_code ec;
  return std::filesystem::remove(record_path(username, name), ec) && !ec;
}

std::size_t FlatFileCredentialStore::remove_all(std::string_view username) {
  const std::scoped_lock lock(mutex_);
  const std::string prefix =
      encoding::hex_encode(encoding::to_bytes(username)) + "-";
  std::size_t removed = 0;
  try {
    for (const auto& entry :
         std::filesystem::directory_iterator(directory_)) {
      if (!entry.path().filename().string().starts_with(prefix)) continue;
      std::error_code ec;
      if (!std::filesystem::remove(entry.path(), ec)) continue;
      if (ec) {
        throw IoError(fmt::format("cannot remove record {}: {}",
                                  entry.path().string(), ec.message()));
      }
      ++removed;
    }
  } catch (const std::filesystem::filesystem_error& e) {
    // A partial result here would silently leave the user's records behind
    // after a DESTROY --all.
    throw IoError(fmt::format("cannot iterate storage directory {}: {}",
                              directory_.string(), e.what()));
  }
  return removed;
}

std::vector<CredentialRecord> FlatFileCredentialStore::list(
    std::string_view username) const {
  const std::scoped_lock lock(mutex_);
  const std::string prefix =
      encoding::hex_encode(encoding::to_bytes(username)) + "-";
  std::vector<CredentialRecord> out;
  try {
    for (const auto& entry :
         std::filesystem::directory_iterator(directory_)) {
      if (!entry.path().filename().string().starts_with(prefix)) continue;
      const auto text = read_file(entry.path());
      if (!text.has_value()) continue;
      out.push_back(CredentialRecord::parse(*text));
    }
  } catch (const std::filesystem::filesystem_error& e) {
    throw IoError(fmt::format("cannot iterate storage directory {}: {}",
                              directory_.string(), e.what()));
  }
  return out;
}

std::size_t FlatFileCredentialStore::size() const {
  const std::scoped_lock lock(mutex_);
  std::size_t count = 0;
  try {
    for (const auto& entry :
         std::filesystem::directory_iterator(directory_)) {
      if (entry.path().extension() == ".cred") ++count;
    }
  } catch (const std::filesystem::filesystem_error& e) {
    throw IoError(fmt::format("cannot iterate storage directory {}: {}",
                              directory_.string(), e.what()));
  }
  return count;
}

std::size_t FlatFileCredentialStore::sweep_expired() {
  const std::scoped_lock lock(mutex_);
  std::size_t swept = 0;
  std::vector<std::filesystem::path> doomed;
  try {
    for (const auto& entry :
         std::filesystem::directory_iterator(directory_)) {
      if (entry.path().extension() != ".cred") continue;
      const auto text = read_file(entry.path());
      if (!text.has_value()) continue;
      try {
        if (CredentialRecord::parse(*text).expired()) {
          doomed.push_back(entry.path());
        }
      } catch (const Error&) {
        // Unreadable record: leave it for operator inspection.
      }
    }
  } catch (const std::filesystem::filesystem_error& e) {
    throw IoError(fmt::format("cannot iterate storage directory {}: {}",
                              directory_.string(), e.what()));
  }
  for (const auto& path : doomed) {
    std::error_code ec;
    if (std::filesystem::remove(path, ec) && !ec) ++swept;
  }
  return swept;
}

std::vector<std::string> FlatFileCredentialStore::usernames() const {
  const std::scoped_lock lock(mutex_);
  std::set<std::string> unique;
  try {
    for (const auto& entry :
         std::filesystem::directory_iterator(directory_)) {
      if (entry.path().extension() != ".cred") continue;
      const std::string file = entry.path().filename().string();
      const std::size_t dash = file.find('-');
      if (dash == std::string::npos) continue;
      try {
        unique.insert(
            encoding::to_string(encoding::hex_decode(file.substr(0, dash))));
      } catch (const Error&) {
        // Foreign file name: not one of ours.
      }
    }
  } catch (const std::filesystem::filesystem_error& e) {
    throw IoError(fmt::format("cannot iterate storage directory {}: {}",
                              directory_.string(), e.what()));
  }
  return {unique.begin(), unique.end()};
}

// --- FileCredentialStore ----------------------------------------------------

FileCredentialStore::FileCredentialStore(std::filesystem::path directory,
                                         FileStoreOptions options)
    : directory_(std::move(directory)), sync_mode_(options.sync_mode) {
  make_private_directory(directory_);

  const std::size_t fanout =
      pinned_fanout(std::max<std::size_t>(1, options.shard_count));
  shards_.reserve(fanout);
  for (std::size_t i = 0; i < fanout; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->dir = directory_ / shard_dir_name(i);
    make_private_directory(shard->dir);
    shard->dir_fd =
        ::open(shard->dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (shard->dir_fd < 0) {
      throw IoError(fmt::format("cannot open shard directory {}: {}",
                                shard->dir.string(), std::strerror(errno)));
    }
    shards_.push_back(std::move(shard));
  }

  std::size_t scan_threads = options.scan_threads;
  if (scan_threads == 0) {
    scan_threads = std::min<std::size_t>(
        8, std::max<unsigned>(1, std::thread::hardware_concurrency()));
  }
  scan(scan_threads);

  if (scan_report_.indexed > 0 || scan_report_.migrated > 0 ||
      scan_report_.reaped_tmp > 0) {
    log::info(kLogComponent,
              "indexed {} record(s) across {} shard(s) ({} migrated from "
              "the legacy layout, {} orphaned temp file(s) reaped)",
              scan_report_.indexed, shards_.size(), scan_report_.migrated,
              scan_report_.reaped_tmp);
  }
}

FileCredentialStore::~FileCredentialStore() {
  for (const auto& shard : shards_) {
    if (shard->dir_fd >= 0) ::close(shard->dir_fd);
  }
}

FileCredentialStore::Shard& FileCredentialStore::shard_for(
    std::string_view username) const {
  return *shards_[fnv1a64(username) % shards_.size()];
}

std::size_t FileCredentialStore::pinned_fanout(std::size_t configured) {
  const std::filesystem::path marker =
      directory_ / std::string(kLayoutMarker);
  if (const auto text = read_file(marker); text.has_value()) {
    std::istringstream in(*text);
    std::string tag;
    std::string key;
    std::size_t fanout = 0;
    in >> tag >> key >> fanout;
    if (tag != kLayoutTag || key != "fanout" || fanout == 0) {
      throw ParseError(fmt::format("corrupt shard layout marker {}",
                                   marker.string()));
    }
    return fanout;
  }
  // First open of this directory: pin the configured fanout so later opens
  // (possibly with a different config) keep hashing records to the same
  // shard directories.
  std::ofstream out(marker, std::ios::trunc);
  if (!out || !(out << kLayoutTag << " fanout " << configured << '\n')
                   .flush()) {
    throw IoError(
        fmt::format("cannot write layout marker {}", marker.string()));
  }
  std::error_code ec;
  std::filesystem::permissions(
      marker,
      std::filesystem::perms::owner_read | std::filesystem::perms::owner_write,
      std::filesystem::perm_options::replace, ec);
  return configured;
}

void FileCredentialStore::scan(std::size_t scan_threads) {
  // Shared first-error slot: worker tasks must not throw across threads.
  std::mutex error_mutex;
  std::string first_error;
  const auto record_error = [&](std::string message) {
    const std::scoped_lock lock(error_mutex);
    if (first_error.empty()) first_error = std::move(message);
  };
  const auto guarded_index_file = [&](const std::filesystem::path& path) {
    try {
      index_file(path);
    } catch (const Error& e) {
      record_error(e.what());
    }
  };

  std::vector<std::filesystem::path> subdirs;
  std::vector<std::filesystem::path> legacy_records;
  try {
    for (const auto& entry :
         std::filesystem::directory_iterator(directory_)) {
      if (entry.is_directory()) {
        subdirs.push_back(entry.path());
      } else if (entry.path().extension() == ".tmp") {
        // A writer died between temp write and rename-commit; the record
        // was never committed, so the leftover must never be served.
        std::error_code ec;
        std::filesystem::remove(entry.path(), ec);
        ++scan_report_.reaped_tmp;
      } else if (entry.path().extension() == ".cred") {
        legacy_records.push_back(entry.path());
      }
      // Anything else (the layout marker, operator notes) is left alone.
    }
  } catch (const std::filesystem::filesystem_error& e) {
    throw IoError(fmt::format("cannot iterate storage directory {}: {}",
                              directory_.string(), e.what()));
  }

  ThreadPool pool(scan_threads);

  // Phase 1: index every sharded record. Runs before the legacy phase so
  // that when both layouts hold the same (user, slot) the sharded copy —
  // the one the current code wrote — wins.
  for (const auto& dir : subdirs) {
    pool.submit([this, dir, &record_error, &guarded_index_file] {
      try {
        std::vector<std::filesystem::path> files;
        for (const auto& entry : std::filesystem::directory_iterator(dir)) {
          if (entry.path().extension() == ".tmp") {
            std::error_code ec;
            std::filesystem::remove(entry.path(), ec);
            const std::scoped_lock lock(scan_mutex_);
            ++scan_report_.reaped_tmp;
          } else if (entry.path().extension() == ".cred") {
            files.push_back(entry.path());
          }
        }
        for (const auto& path : files) guarded_index_file(path);
      } catch (const std::filesystem::filesystem_error& e) {
        record_error(fmt::format("cannot iterate shard directory {}: {}",
                                 dir.string(), e.what()));
      }
    });
  }
  pool.wait_idle();

  // Phase 2: migrate legacy flat-layout records into their shards.
  for (const auto& path : legacy_records) {
    pool.submit([path, &guarded_index_file] { guarded_index_file(path); });
  }
  pool.wait_idle();

  if (!first_error.empty()) throw IoError(first_error);
}

void FileCredentialStore::index_file(const std::filesystem::path& path) {
  const auto text = read_file(path);
  if (!text.has_value()) {
    throw IoError(fmt::format("cannot read record file {}", path.string()));
  }
  CredentialRecord record;
  try {
    record = CredentialRecord::parse(*text);
  } catch (const Error& e) {
    // Unreadable record: leave it for operator inspection, never serve it.
    log::warn(kLogComponent, "skipping unparsable record file {}: {}",
              path.string(), e.what());
    const std::scoped_lock lock(scan_mutex_);
    ++scan_report_.skipped;
    return;
  }

  Shard& shard = shard_for(record.username);
  const std::string file_name =
      record_file_name(record.username, record.name);
  const std::filesystem::path target = shard.dir / file_name;

  std::unique_lock lock(shard.mutex);
  const auto user_it = shard.users.find(record.username);
  const bool already_indexed =
      user_it != shard.users.end() &&
      user_it->second.find(record.name) != user_it->second.end();
  if (path != target) {
    if (already_indexed) {
      // A sharded copy of this (user, slot) exists and is newer than this
      // stray/legacy file; leave the duplicate in place for inspection.
      log::warn(kLogComponent,
                "duplicate record file {} shadows the sharded copy; "
                "leaving it in place",
                path.string());
      lock.unlock();
      const std::scoped_lock report_lock(scan_mutex_);
      ++scan_report_.skipped;
      return;
    }
    std::error_code ec;
    std::filesystem::rename(path, target, ec);
    if (ec) {
      throw IoError(fmt::format("cannot migrate record {} to {}: {}",
                                path.string(), target.string(),
                                ec.message()));
    }
  }
  const bool inserted =
      !already_indexed;
  index_insert(shard, record.username, record.name,
               IndexEntry{file_name, to_unix(record.not_after),
                          record.sealing});
  lock.unlock();

  const std::scoped_lock report_lock(scan_mutex_);
  if (inserted) ++scan_report_.indexed;
  if (path != target) ++scan_report_.migrated;
}

void FileCredentialStore::index_insert(Shard& shard,
                                       const std::string& username,
                                       const std::string& name,
                                       IndexEntry entry) {
  auto& names = shard.users[username];
  const auto it = names.find(name);
  const std::int64_t not_after = entry.not_after;
  if (it != names.end()) {
    erase_expiry(shard, it->second.not_after, username, name);
    it->second = std::move(entry);
  } else {
    names.emplace(name, std::move(entry));
    size_.fetch_add(1, std::memory_order_relaxed);
  }
  shard.by_expiry.emplace(not_after, std::make_pair(username, name));
}

void FileCredentialStore::erase_expiry(Shard& shard, std::int64_t not_after,
                                       std::string_view username,
                                       std::string_view name) {
  const auto [begin, end] = shard.by_expiry.equal_range(not_after);
  for (auto it = begin; it != end; ++it) {
    if (it->second.first == username && it->second.second == name) {
      shard.by_expiry.erase(it);
      return;
    }
  }
}

void FileCredentialStore::sync_file(const std::filesystem::path& path) {
  if (sync_mode_ == SyncMode::kNone) return;
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    throw IoError(fmt::format("cannot open {} for sync: {}", path.string(),
                              std::strerror(errno)));
  }
  const int rc = ::fdatasync(fd);
  const int error = errno;
  ::close(fd);
  if (rc != 0) {
    throw IoError(fmt::format("fdatasync failed for {}: {}", path.string(),
                              std::strerror(error)));
  }
}

void FileCredentialStore::sync_dir(const Shard& shard) {
  if (sync_mode_ == SyncMode::kNone) return;
  if (::fsync(shard.dir_fd) != 0) {
    throw IoError(fmt::format("fsync failed for shard directory {}: {}",
                              shard.dir.string(), std::strerror(errno)));
  }
}

void FileCredentialStore::put(const CredentialRecord& record) {
  Shard& shard = shard_for(record.username);
  const std::string file_name =
      record_file_name(record.username, record.name);
  const std::filesystem::path path = shard.dir / file_name;
  // Unique temp name: the write and its fdatasync happen *outside* the
  // shard lock (so same-shard writers only serialize on the cheap
  // rename+index step), which means concurrent puts of the same key must
  // not share a temp file.
  const std::filesystem::path tmp =
      shard.dir / fmt::format("{}.{}.tmp", file_name,
                              tmp_seq_.fetch_add(1,
                                                 std::memory_order_relaxed));
  write_record_file(tmp, record);
  sync_file(tmp);

  {
    const std::unique_lock lock(shard.mutex);
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
      std::error_code ignored;
      std::filesystem::remove(tmp, ignored);
      throw IoError(fmt::format("cannot commit record {}: {}", path.string(),
                                ec.message()));
    }
    index_insert(shard, record.username, record.name,
                 IndexEntry{file_name, to_unix(record.not_after),
                            record.sealing});
  }
  // The rename itself must survive a crash before the put counts as
  // committed.
  sync_dir(shard);
}

std::optional<CredentialRecord> FileCredentialStore::get(
    std::string_view username, std::string_view name) const {
  const Shard& shard = shard_for(username);
  const std::shared_lock lock(shard.mutex);
  const auto user_it = shard.users.find(std::string(username));
  if (user_it == shard.users.end()) return std::nullopt;
  const auto it = user_it->second.find(std::string(name));
  if (it == user_it->second.end()) return std::nullopt;
  const auto text = read_file(shard.dir / it->second.file_name);
  if (!text.has_value()) {
    // Indexed but unreadable is store corruption (mutations hold the
    // exclusive lock, so this cannot be a race) — not "no credentials".
    throw IoError(fmt::format("indexed record file {} is unreadable",
                              (shard.dir / it->second.file_name).string()));
  }
  return CredentialRecord::parse(*text);
}

bool FileCredentialStore::remove(std::string_view username,
                                 std::string_view name) {
  Shard& shard = shard_for(username);
  bool removed = false;
  {
    const std::unique_lock lock(shard.mutex);
    const auto user_it = shard.users.find(std::string(username));
    if (user_it == shard.users.end()) return false;
    const auto it = user_it->second.find(std::string(name));
    if (it == user_it->second.end()) return false;
    std::error_code ec;
    std::filesystem::remove(shard.dir / it->second.file_name, ec);
    if (ec) {
      throw IoError(fmt::format("cannot remove record {}: {}",
                                (shard.dir / it->second.file_name).string(),
                                ec.message()));
    }
    erase_expiry(shard, it->second.not_after, username, name);
    user_it->second.erase(it);
    if (user_it->second.empty()) shard.users.erase(user_it);
    size_.fetch_sub(1, std::memory_order_relaxed);
    removed = true;
  }
  sync_dir(shard);
  return removed;
}

std::size_t FileCredentialStore::remove_all(std::string_view username) {
  Shard& shard = shard_for(username);
  std::size_t removed = 0;
  {
    const std::unique_lock lock(shard.mutex);
    const auto user_it = shard.users.find(std::string(username));
    if (user_it == shard.users.end()) return 0;
    for (auto it = user_it->second.begin(); it != user_it->second.end();) {
      std::error_code ec;
      std::filesystem::remove(shard.dir / it->second.file_name, ec);
      if (ec) {
        throw IoError(fmt::format("cannot remove record {}: {}",
                                  (shard.dir / it->second.file_name).string(),
                                  ec.message()));
      }
      erase_expiry(shard, it->second.not_after, username, it->first);
      it = user_it->second.erase(it);
      size_.fetch_sub(1, std::memory_order_relaxed);
      ++removed;
    }
    shard.users.erase(user_it);
  }
  if (removed > 0) sync_dir(shard);
  return removed;
}

std::vector<CredentialRecord> FileCredentialStore::list(
    std::string_view username) const {
  const Shard& shard = shard_for(username);
  const std::shared_lock lock(shard.mutex);
  std::vector<CredentialRecord> out;
  const auto user_it = shard.users.find(std::string(username));
  if (user_it == shard.users.end()) return out;
  out.reserve(user_it->second.size());
  for (const auto& [name, entry] : user_it->second) {
    const auto text = read_file(shard.dir / entry.file_name);
    if (!text.has_value()) {
      throw IoError(fmt::format("indexed record file {} is unreadable",
                                (shard.dir / entry.file_name).string()));
    }
    out.push_back(CredentialRecord::parse(*text));
  }
  return out;
}

std::size_t FileCredentialStore::size() const {
  return size_.load(std::memory_order_relaxed);
}

std::size_t FileCredentialStore::sweep_expired() {
  const std::int64_t now_unix = to_unix(now());
  std::size_t swept = 0;
  for (const auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::size_t shard_swept = 0;
    {
      const std::unique_lock lock(shard.mutex);
      // Only the expired prefix of the expiry map is visited: the sweep is
      // O(expired + shards), not O(total records).
      while (!shard.by_expiry.empty() &&
             shard.by_expiry.begin()->first < now_unix) {
        const auto expiry_it = shard.by_expiry.begin();
        const auto& [username, name] = expiry_it->second;
        const auto user_it = shard.users.find(username);
        if (user_it != shard.users.end()) {
          const auto it = user_it->second.find(name);
          if (it != user_it->second.end()) {
            std::error_code ec;
            std::filesystem::remove(shard.dir / it->second.file_name, ec);
            if (ec) {
              throw IoError(
                  fmt::format("cannot remove expired record {}: {}",
                              (shard.dir / it->second.file_name).string(),
                              ec.message()));
            }
            user_it->second.erase(it);
            if (user_it->second.empty()) shard.users.erase(user_it);
            size_.fetch_sub(1, std::memory_order_relaxed);
            ++shard_swept;
          }
        }
        shard.by_expiry.erase(expiry_it);
      }
    }
    if (shard_swept > 0) sync_dir(shard);
    swept += shard_swept;
  }
  return swept;
}

std::vector<std::string> FileCredentialStore::usernames() const {
  std::vector<std::string> out;
  for (const auto& shard : shards_) {
    const std::shared_lock lock(shard->mutex);
    for (const auto& [username, names] : shard->users) {
      out.push_back(username);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace myproxy::repository
