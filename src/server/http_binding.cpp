#include "server/http_binding.hpp"

#include <algorithm>
#include <utility>
#include <variant>
#include <vector>

#include "common/format.hpp"
#include "common/strings.hpp"

namespace myproxy::server::http_binding {

namespace {

using portal::HttpResponse;
using protocol::Command;
using protocol::Request;
using protocol::Response;

HttpResponse text_response(int status, std::string_view reason,
                           std::string body) {
  return {status, std::string(reason),
          {{"content-type", "text/plain; charset=utf-8"}}, std::move(body)};
}

HttpResponse unprocessable(std::string_view detail) {
  return text_response(422, "Unprocessable Entity",
                       fmt::format("{}\n", detail));
}

/// In-memory channel the core runs an HTTP request over: receive() yields
/// the form's CSR once, send() collects the replies.
struct Exchange final : net::Channel {
  std::optional<std::string> inbound;
  std::vector<std::string> replies;

  void send(std::string_view message) override {
    replies.emplace_back(message);
  }
  [[nodiscard]] std::string receive() override {
    if (!inbound.has_value()) {
      throw ProtocolError("HTTP binding: the form carries one message");
    }
    return std::exchange(inbound, std::nullopt).value();
  }
  void close() noexcept override {}
};

/// The native request a form asks for, or the binding's own refusal. The
/// CSR for the core's delegation step rides in `csr_pem`.
std::variant<Request, HttpResponse> bind_request(std::string_view raw,
                                                 std::string& csr_pem) {
  portal::HttpRequest http;
  std::map<std::string, std::string> form;
  try {
    http = portal::parse_request(raw);
    form = http.form();
  } catch (const Error&) {
    return text_response(400, "Bad Request", "malformed request\n");
  }
  if (http.method != "POST") {
    return text_response(405, "Method Not Allowed", "POST only\n");
  }
  static const std::map<std::string, Command, std::less<>> kTargets = {
      {"/get", Command::kGet},
      {"/info", Command::kInfo},
      {"/destroy", Command::kDestroy}};
  const auto target = kTargets.find(http.target);
  if (target == kTargets.end()) {
    return text_response(404, "Not Found", "unknown endpoint\n");
  }
  Request request;
  request.command = target->second;
  request.username = form["username"];
  request.credential_name = form["name"];
  if (request.username.empty()) return unprocessable("username is required");
  if (request.command != Command::kGet) return request;

  csr_pem = form["csr"];
  if (csr_pem.empty()) return unprocessable("csr is required");
  request.passphrase = form["passphrase"];
  request.want_limited = form["limited"] == "1";
  if (form["otp"] == "1") request.auth_mode = protocol::AuthMode::kOtp;
  // Browser-supplied field: reject junk rather than truncating "12abc".
  // Absent or zero asks for the policy default, as on the native protocol.
  const std::string& lifetime = form["lifetime"];
  if (!lifetime.empty()) {
    const auto parsed = strings::parse_i64(lifetime);
    if (!parsed.has_value() || *parsed < 0) {
      return unprocessable(fmt::format("malformed lifetime: '{}'", lifetime));
    }
    request.lifetime = Seconds(*parsed);
  }
  return request;
}

HttpResponse bind_reply(Command command,
                        const std::vector<std::string>& replies,
                        std::optional<ErrorCode> error) {
  // Every core path answers with a native response frame first: OK before
  // a delegation, the INFO fields, or the refusal.
  Response first = replies.empty() ? Response::make_error("request failed")
                                   : Response::parse(replies.front());
  if (error.has_value()) return error_reply(*error, first.error);
  if (first.fields.contains("BUSY")) {
    const std::uint64_t ms =
        strings::parse_u64(first.fields["RETRY_AFTER_MS"]).value_or(0);
    HttpResponse busy = text_response(
        503, "Service Unavailable",
        fmt::format("{}\nretry_after_ms: {}\n", first.error, ms));
    busy.headers["retry-after"] = std::to_string((ms + 999) / 1000);
    return busy;
  }
  if (first.fields.contains("PRIMARY")) {
    return text_response(421, "Misdirected Request",
                         fmt::format("{}\nprimary: {}\n", first.error,
                                     first.fields["PRIMARY"]));
  }
  if (!first.ok()) return error_reply(ErrorCode::kInternal, first.error);
  if (command == Command::kGet) return text_response(200, "OK", replies.back());
  if (command == Command::kDestroy) return text_response(200, "OK", "destroyed\n");
  return text_response(
      200, "OK",
      fmt::format("owner: {}\nnot_after: {}\nmax_delegation_lifetime: {}\n"
                  "sealing: {}\n",
                  first.fields["OWNER"], first.fields["NOT_AFTER"],
                  first.fields["MAX_LIFETIME"], first.fields["SEALING"]));
}

}  // namespace

bool is_http(std::string_view first_message) {
  const std::size_t space = first_message.find(' ');
  if (space == 0 || space == std::string_view::npos) return false;
  return std::all_of(first_message.begin(), first_message.begin() + space,
                     [](char c) { return c >= 'A' && c <= 'Z'; });
}

HttpResponse error_reply(ErrorCode code, std::string_view detail) {
  const auto [status, reason] = [code]() -> std::pair<int, std::string_view> {
    switch (code) {
      case ErrorCode::kAuthentication: return {401, "Unauthorized"};
      case ErrorCode::kAuthorization: return {403, "Forbidden"};
      case ErrorCode::kNotFound: return {404, "Not Found"};
      case ErrorCode::kExpired: return {410, "Gone"};
      case ErrorCode::kPolicy: return {422, "Unprocessable Entity"};
      default: return {500, "Internal Server Error"};
    }
  }();
  return text_response(status, reason, fmt::format("{}\n", detail));
}

HttpResponse serve(std::string_view raw, const Core& core) {
  std::string csr_pem;
  auto bound = bind_request(raw, csr_pem);
  if (auto* refusal = std::get_if<HttpResponse>(&bound)) return *refusal;
  const Request& request = std::get<Request>(bound);
  Exchange exchange;
  exchange.inbound = std::move(csr_pem);
  const std::optional<ErrorCode> error = core(exchange, request);
  return bind_reply(request.command, exchange.replies, error);
}

}  // namespace myproxy::server::http_binding
