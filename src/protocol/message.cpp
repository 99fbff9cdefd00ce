#include "protocol/message.hpp"

#include <array>
#include <charconv>

#include "common/error.hpp"
#include "common/format.hpp"
#include "common/strings.hpp"

namespace myproxy::protocol {

namespace {

void append_field(std::string& out, std::string_view key,
                  std::string_view value) {
  if (value.find('\n') != std::string_view::npos) {
    throw ProtocolError(
        fmt::format("field '{}' contains a newline", key));
  }
  out += key;
  out += '=';
  out += value;
  out += '\n';
}

std::int64_t parse_int(std::string_view key, std::string_view value) {
  std::int64_t out = 0;
  const auto [ptr, ec] =
      std::from_chars(value.data(), value.data() + value.size(), out);
  if (ec != std::errc() || ptr != value.data() + value.size()) {
    throw ProtocolError(
        fmt::format("field '{}' is not an integer: '{}'", key, value));
  }
  return out;
}

Command parse_command(std::string_view value) {
  const std::int64_t n = parse_int("COMMAND", value);
  if (n < 0 || n > static_cast<std::int64_t>(kLastCommand)) {
    throw ProtocolError(fmt::format("unknown command code {}", n));
  }
  return static_cast<Command>(n);
}

/// Whether a command writes the store (see writes_store).
enum class Writes { kNo, kYes, kWithOtp };

/// What client and server both know about each command, one row per
/// Command in value order. MIGRATE and MIGRATE_INSTALL mutate the store
/// but are server-to-server control plane: a migration target applies
/// them directly, so they must never be redirected off a node.
struct CommandRow {
  Command command;
  std::string_view name;
  Writes writes;
};

constexpr std::array<CommandRow, static_cast<std::size_t>(kLastCommand) + 1>
    kCommands = {{
        {Command::kGet, "GET", Writes::kWithOtp},
        {Command::kPut, "PUT", Writes::kYes},
        {Command::kInfo, "INFO", Writes::kNo},
        {Command::kDestroy, "DESTROY", Writes::kYes},
        {Command::kChangePassphrase, "CHANGE_PASSPHRASE", Writes::kYes},
        {Command::kStore, "STORE", Writes::kYes},
        {Command::kRetrieve, "RETRIEVE", Writes::kWithOtp},
        {Command::kList, "LIST", Writes::kNo},
        {Command::kRenew, "RENEW", Writes::kYes},
        {Command::kReplicaSync, "REPLICA_SYNC", Writes::kNo},
        {Command::kStats, "STATS", Writes::kNo},
        {Command::kClusterMap, "CLUSTER_MAP", Writes::kNo},
        {Command::kMigrate, "MIGRATE", Writes::kNo},
        {Command::kMigrateInstall, "MIGRATE_INSTALL", Writes::kNo},
    }};

constexpr bool rows_in_command_order() {
  for (std::size_t i = 0; i < kCommands.size(); ++i) {
    if (static_cast<std::size_t>(kCommands[i].command) != i) return false;
  }
  return true;
}
static_assert(rows_in_command_order());

const CommandRow& row(Command command) {
  return kCommands[static_cast<std::size_t>(command)];
}

}  // namespace

std::string_view to_string(Command command) noexcept {
  return row(command).name;
}

bool writes_store(const Request& request) noexcept {
  switch (row(request.command).writes) {
    case Writes::kYes:
      return true;
    case Writes::kWithOtp:
      return request.auth_mode == AuthMode::kOtp;
    case Writes::kNo:
      break;
  }
  return false;
}

std::string_view to_string(AuthMode mode) noexcept {
  switch (mode) {
    case AuthMode::kPassphrase:
      return "passphrase";
    case AuthMode::kOtp:
      return "otp";
  }
  return "?";
}

std::string Request::serialize() const {
  std::string out;
  append_field(out, "VERSION", kProtocolVersion);
  append_field(out, "COMMAND",
               std::to_string(static_cast<int>(command)));
  append_field(out, "USERNAME", username);
  append_field(out, "PASSPHRASE", passphrase);
  append_field(out, "AUTH_MODE", to_string(auth_mode));
  append_field(out, "LIFETIME", std::to_string(lifetime.count()));
  if (!credential_name.empty()) {
    append_field(out, "CRED_NAME", credential_name);
  }
  if (!new_passphrase.empty()) {
    append_field(out, "NEW_PHRASE", new_passphrase);
  }
  for (const auto& pattern : retriever_patterns) {
    append_field(out, "RETRIEVER", pattern);
  }
  for (const auto& pattern : renewer_patterns) {
    append_field(out, "RENEWER", pattern);
  }
  if (want_limited) append_field(out, "LIMITED", "1");
  if (restriction.has_value()) {
    append_field(out, "RESTRICTION", *restriction);
  }
  if (!task.empty()) append_field(out, "TASK", task);
  // SEQ doubles as the migration epoch on MIGRATE_INSTALL (both are u64
  // stream positions the receiver validates strictly).
  if (command == Command::kReplicaSync ||
      command == Command::kMigrateInstall) {
    append_field(out, "SEQ", std::to_string(sequence));
  }
  if (command == Command::kMigrate || command == Command::kMigrateInstall) {
    append_field(out, "SHARD", std::to_string(shard));
  }
  if (!target.empty()) append_field(out, "TARGET", target);
  return out;
}

Request Request::parse(std::string_view text) {
  Request request;
  bool have_version = false;
  bool have_command = false;
  for (const auto& raw_line : strings::split(text, '\n')) {
    if (raw_line.empty()) continue;
    const std::size_t eq = raw_line.find('=');
    if (eq == std::string::npos) {
      throw ProtocolError(
          fmt::format("malformed request line: '{}'", raw_line));
    }
    const std::string_view key = std::string_view(raw_line).substr(0, eq);
    const std::string_view value = std::string_view(raw_line).substr(eq + 1);
    if (key == "VERSION") {
      if (value != kProtocolVersion) {
        throw ProtocolError(
            fmt::format("unsupported protocol version '{}'", value));
      }
      have_version = true;
    } else if (key == "COMMAND") {
      request.command = parse_command(value);
      have_command = true;
    } else if (key == "USERNAME") {
      request.username = value;
    } else if (key == "PASSPHRASE") {
      request.passphrase = value;
    } else if (key == "AUTH_MODE") {
      if (value == "passphrase") {
        request.auth_mode = AuthMode::kPassphrase;
      } else if (value == "otp") {
        request.auth_mode = AuthMode::kOtp;
      } else {
        throw ProtocolError(fmt::format("unknown auth mode '{}'", value));
      }
    } else if (key == "LIFETIME") {
      const std::int64_t secs = parse_int(key, value);
      if (secs < 0) throw ProtocolError("negative lifetime");
      request.lifetime = Seconds(secs);
    } else if (key == "CRED_NAME") {
      request.credential_name = value;
    } else if (key == "NEW_PHRASE") {
      request.new_passphrase = value;
    } else if (key == "RETRIEVER") {
      request.retriever_patterns.emplace_back(value);
    } else if (key == "RENEWER") {
      request.renewer_patterns.emplace_back(value);
    } else if (key == "LIMITED") {
      request.want_limited = (value == "1");
    } else if (key == "RESTRICTION") {
      request.restriction = std::string(value);
    } else if (key == "TASK") {
      request.task = value;
    } else if (key == "SEQ") {
      const std::int64_t seq = parse_int(key, value);
      if (seq < 0) throw ProtocolError("negative sequence");
      request.sequence = static_cast<std::uint64_t>(seq);
    } else if (key == "SHARD") {
      const std::int64_t shard = parse_int(key, value);
      if (shard < 0 || shard > 0xffffffffLL) {
        throw ProtocolError("shard id out of range");
      }
      request.shard = static_cast<std::uint32_t>(shard);
    } else if (key == "TARGET") {
      request.target = value;
    } else {
      // Unknown keys are ignored for forward compatibility (§6.4 plans a
      // standardized protocol; old servers must tolerate new fields).
    }
  }
  if (!have_version) throw ProtocolError("request missing VERSION");
  if (!have_command) throw ProtocolError("request missing COMMAND");
  return request;
}

std::string Response::serialize() const {
  std::string out;
  append_field(out, "VERSION", kProtocolVersion);
  append_field(out, "RESPONSE", status == Status::kOk ? "0" : "1");
  if (status == Status::kError) append_field(out, "ERROR", error);
  for (const auto& [key, value] : fields) {
    for (const auto& part : strings::split(value, '\x1f')) {
      append_field(out, key, part);
    }
  }
  return out;
}

Response Response::parse(std::string_view text) {
  Response response;
  bool have_version = false;
  bool have_status = false;
  for (const auto& raw_line : strings::split(text, '\n')) {
    if (raw_line.empty()) continue;
    const std::size_t eq = raw_line.find('=');
    if (eq == std::string::npos) {
      throw ProtocolError(
          fmt::format("malformed response line: '{}'", raw_line));
    }
    const std::string key = raw_line.substr(0, eq);
    const std::string_view value = std::string_view(raw_line).substr(eq + 1);
    if (key == "VERSION") {
      if (value != kProtocolVersion) {
        throw ProtocolError(
            fmt::format("unsupported protocol version '{}'", value));
      }
      have_version = true;
    } else if (key == "RESPONSE") {
      if (value == "0") {
        response.status = Status::kOk;
      } else if (value == "1") {
        response.status = Status::kError;
      } else {
        throw ProtocolError(fmt::format("unknown response code '{}'", value));
      }
      have_status = true;
    } else if (key == "ERROR") {
      response.error = value;
    } else {
      auto [it, inserted] = response.fields.try_emplace(key, value);
      if (!inserted) {
        it->second += '\x1f';
        it->second += value;
      }
    }
  }
  if (!have_version) throw ProtocolError("response missing VERSION");
  if (!have_status) throw ProtocolError("response missing RESPONSE");
  return response;
}

}  // namespace myproxy::protocol
