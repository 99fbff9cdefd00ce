#include "server/audit_log.hpp"

#include "common/error.hpp"
#include "common/format.hpp"

namespace myproxy::server {

namespace {

/// Minimal JSON string escaping (quotes, backslashes, control bytes) —
/// enough for DNs, usernames, and error text.
std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += fmt::format("\\u00{}{}",
                             "0123456789abcdef"[(c >> 4) & 0xf],
                             "0123456789abcdef"[c & 0xf]);
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string_view to_string(AuditOutcome outcome) noexcept {
  switch (outcome) {
    case AuditOutcome::kSuccess:
      return "success";
    case AuditOutcome::kAuthenticationFailure:
      return "authentication-failure";
    case AuditOutcome::kAuthorizationFailure:
      return "authorization-failure";
    case AuditOutcome::kNotFound:
      return "not-found";
    case AuditOutcome::kError:
      return "error";
  }
  return "?";
}

std::string AuditEvent::str() const {
  return fmt::format("{} {} peer={} user={} outcome={} detail={}",
                     format_utc(at), command,
                     peer_dn.empty() ? "(unauthenticated)" : peer_dn,
                     username.empty() ? "-" : username, to_string(outcome),
                     detail.empty() ? "-" : detail);
}

std::string AuditEvent::json() const {
  return fmt::format(
      "{{\"at\":\"{}\",\"command\":\"{}\",\"peer\":\"{}\","
      "\"user\":\"{}\",\"outcome\":\"{}\",\"detail\":\"{}\"}}",
      format_utc(at), json_escape(command), json_escape(peer_dn),
      json_escape(username), to_string(outcome), json_escape(detail));
}

void AuditLog::set_file(const std::filesystem::path& path) {
  const std::scoped_lock lock(mutex_);
  file_.open(path, std::ios::app);
  if (!file_) {
    throw IoError(
        fmt::format("cannot open audit log file {}", path.string()));
  }
}

void AuditLog::record(AuditEvent event) {
  const std::scoped_lock lock(mutex_);
  if (file_.is_open()) {
    file_ << event.json() << '\n';
    file_.flush();  // each line must survive a crash right after the event
  }
  ring_.push_back(std::move(event));
  while (ring_.size() > capacity_) ring_.pop_front();
}

std::vector<AuditEvent> AuditLog::events() const {
  const std::scoped_lock lock(mutex_);
  return {ring_.begin(), ring_.end()};
}

std::vector<AuditEvent> AuditLog::events_with(AuditOutcome outcome) const {
  const std::scoped_lock lock(mutex_);
  std::vector<AuditEvent> out;
  for (const auto& event : ring_) {
    if (event.outcome == outcome) out.push_back(event);
  }
  return out;
}

std::size_t AuditLog::failures_for(std::string_view username,
                                   TimePoint since) const {
  const std::scoped_lock lock(mutex_);
  std::size_t count = 0;
  for (const auto& event : ring_) {
    if (event.at >= since && event.username == username &&
        (event.outcome == AuditOutcome::kAuthenticationFailure ||
         event.outcome == AuditOutcome::kAuthorizationFailure)) {
      ++count;
    }
  }
  return count;
}

std::size_t AuditLog::size() const {
  const std::scoped_lock lock(mutex_);
  return ring_.size();
}

}  // namespace myproxy::server
