// Structured audit trail for the repository server.
//
// The paper's §5.1 threat analysis leans on *detection*: "the required
// delay allows credentials to expire or for the intrusion to be detected".
// Detection needs a queryable record of who asked for what and whether the
// server said yes. This keeps a bounded in-memory ring (and mirrors to the
// text log); operators export it, tests assert on it.
#pragma once

#include <deque>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.hpp"

namespace myproxy::server {

enum class AuditOutcome {
  kSuccess,
  kAuthenticationFailure,  ///< bad pass phrase / OTP / TLS identity
  kAuthorizationFailure,   ///< ACL or ownership refusal
  kNotFound,
  kError,
};

[[nodiscard]] std::string_view to_string(AuditOutcome outcome) noexcept;

struct AuditEvent {
  TimePoint at{};
  std::string command;   ///< "GET", "PUT", ... or "CONNECT"
  std::string peer_dn;   ///< authenticated Grid identity ("" if none)
  std::string username;  ///< repository account named in the request
  AuditOutcome outcome = AuditOutcome::kSuccess;
  std::string detail;    ///< failure reason (internal wording, not wire)

  /// One-line export form: "<iso-time> <command> peer=<dn> user=<u>
  /// outcome=<o> detail=<d>".
  [[nodiscard]] std::string str() const;

  /// One-line JSON object form (the file sink's record format).
  [[nodiscard]] std::string json() const;
};

class AuditLog {
 public:
  explicit AuditLog(std::size_t capacity = 4096) : capacity_(capacity) {}

  /// Mirror every recorded event to `path` as append-only JSONL, one JSON
  /// object per line (audit_log_file config key). The ring keeps working as
  /// before; the file is the durable export operators feed to their SIEM.
  /// Throws IoError when the file cannot be opened.
  void set_file(const std::filesystem::path& path);

  void record(AuditEvent event);

  /// Newest-last snapshot of the ring.
  [[nodiscard]] std::vector<AuditEvent> events() const;

  /// Events matching an outcome (e.g. all authentication failures —
  /// the intrusion-detection feed).
  [[nodiscard]] std::vector<AuditEvent> events_with(
      AuditOutcome outcome) const;

  /// Failed attempts against `username` since `since` — the signal a
  /// deployment would alarm on (§5.1: an intruder must guess pass phrases
  /// through the server, which is observable).
  [[nodiscard]] std::size_t failures_for(std::string_view username,
                                         TimePoint since) const;

  [[nodiscard]] std::size_t size() const;

 private:
  std::size_t capacity_;
  mutable std::mutex mutex_;
  std::deque<AuditEvent> ring_;
  std::ofstream file_;
};

}  // namespace myproxy::server
