#include "replication/wire.hpp"

#include <charconv>

#include "common/encoding.hpp"
#include "common/error.hpp"
#include "common/format.hpp"
#include "common/strings.hpp"

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

std::string encode_batch(const Batch& batch) {
  std::string out = fmt::format("BATCH {} {}\n", batch.primary_last_sequence,
                                batch.entries.size());
  for (const auto& entry : batch.entries) {
    out += fmt::format("E {} {} {}\n", entry.sequence,
                       static_cast<int>(entry.type),
                       encoding::base64_encode(entry.payload));
  }
  return out;
}

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
    const auto parts = strings::split(lines[i + 1], ' ');
    if (parts.size() != 4 || parts[0] != "E") {
      throw ProtocolError(
          fmt::format("bad replication entry line '{}'", lines[i + 1]));
    }
    JournalEntry entry;
    entry.sequence = parse_u64(parts[1], "entry sequence");
    const std::uint64_t type = parse_u64(parts[2], "entry type");
    if (type < 1 || type > 3) {
      throw ProtocolError(fmt::format("unknown journal op type {}", type));
    }
    entry.type = static_cast<OpType>(type);
    entry.payload = encoding::base64_decode_string(parts[3]);
    batch.entries.push_back(std::move(entry));
  }
  return batch;
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
