#include "replication/wire.hpp"

#include <algorithm>
#include <charconv>

#include "common/error.hpp"
#include "common/format.hpp"
#include "common/strings.hpp"
#include "net/channel.hpp"

namespace myproxy::replication {

namespace {

std::uint64_t parse_u64(std::string_view text, std::string_view what) {
  std::uint64_t out = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), out);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    throw ProtocolError(
        fmt::format("replication {}: bad integer '{}'", what, text));
  }
  return out;
}

}  // namespace

std::string_view to_string(ReplicationRole role) noexcept {
  switch (role) {
    case ReplicationRole::kStandalone:
      return "standalone";
    case ReplicationRole::kPrimary:
      return "primary";
    case ReplicationRole::kReplica:
      return "replica";
  }
  return "?";
}

ReplicationRole replication_role_from_string(std::string_view text) {
  if (text.empty() || text == "standalone" || text == "none") {
    return ReplicationRole::kStandalone;
  }
  if (text == "primary") return ReplicationRole::kPrimary;
  if (text == "replica") return ReplicationRole::kReplica;
  throw ConfigError(
      fmt::format("unknown replication_role '{}' "
                  "(expected standalone, primary, or replica)",
                  text));
}

namespace {

/// Room kept for the "BATCH <tip> <count>\n" header: two 20-digit numbers.
constexpr std::size_t kHeaderRoom = 64;

}  // namespace

Batch decode_batch(std::string_view message) {
  const auto lines = strings::split(message, '\n');
  if (lines.empty()) throw ProtocolError("empty replication batch");
  const auto header = strings::split(lines[0], ' ');
  if (header.size() != 3 || header[0] != "BATCH") {
    throw ProtocolError(
        fmt::format("bad replication batch header '{}'", lines[0]));
  }
  Batch batch;
  batch.primary_last_sequence = parse_u64(header[1], "batch tip");
  const std::uint64_t count = parse_u64(header[2], "batch count");
  for (std::uint64_t i = 0; i < count; ++i) {
    if (i + 1 >= lines.size()) {
      throw ProtocolError("replication batch shorter than its count");
    }
    auto entry = decode_line(lines[i + 1]);
    if (!entry.has_value()) {
      throw ProtocolError(fmt::format(
          "replication batch entry {} is malformed or fails its checksum",
          i));
    }
    batch.entries.push_back(std::move(*entry));
  }
  return batch;
}

BatchBuilder::BatchBuilder(std::size_t limit)
    : limit_(std::max<std::size_t>(limit, 1)) {}

bool BatchBuilder::add(std::string_view line) {
  if (count_ >= limit_ ||
      (count_ > 0 && kHeaderRoom + lines_.size() + line.size() + 1 >
                         net::kMaxMessageSize)) {
    return false;
  }
  lines_ += line;
  lines_ += '\n';
  ++count_;
  return true;
}

std::string BatchBuilder::take(std::uint64_t primary_last_sequence) {
  std::string frame =
      fmt::format("BATCH {} {}\n", primary_last_sequence, count_);
  frame += lines_;
  lines_.clear();
  count_ = 0;
  return frame;
}

std::string encode_ack(std::uint64_t last_applied) {
  return fmt::format("ACK {}\n", last_applied);
}

std::uint64_t decode_ack(std::string_view message) {
  const auto parts =
      strings::split(std::string_view(strings::trim(message)), ' ');
  if (parts.size() != 2 || parts[0] != "ACK") {
    throw ProtocolError("bad replication ack");
  }
  return parse_u64(parts[1], "ack sequence");
}

std::string encode_copy_end(const CopyEnd& end) {
  return fmt::format("COPY_END {} {}\n", end.sequence, end.entries);
}

std::optional<CopyEnd> decode_copy_end(std::string_view message) {
  if (!message.starts_with("COPY_END ")) return std::nullopt;
  const auto parts = strings::split(strings::trim(message), ' ');
  if (parts.size() != 3) throw ProtocolError("bad replication copy end");
  return CopyEnd{parse_u64(parts[1], "copy sequence"),
                 parse_u64(parts[2], "copy entries")};
}

}  // namespace myproxy::replication
