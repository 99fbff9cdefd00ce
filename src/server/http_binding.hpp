// HTTP binding of the MyProxy protocol (paper §6.4: "One option would be
// HTTP for compatibility with standard web-oriented libraries").
//
// A codec, not a server: HTTP text rides the native port in the native
// length frames over the same mutual TLS, and MyProxyServer picks the codec
// from a connection's first message.
//
//   POST /get      form: username, csr[, passphrase, lifetime, name,
//                  limited, otp]            200 -> certificate chain PEM
//   POST /info     form: username[, name]   200 -> "key: value" lines
//   POST /destroy  form: username[, name]   200 on success
//
// serve() turns the form into a protocol::Request, runs it through the
// server's command core over an in-memory channel (receive() yields the
// form's CSR, send() collects the replies), and maps the replies back to
// one HTTP response. GET fits one round trip because the client generates
// the key pair; PUT (server-generated key) stays native.
#pragma once

#include <functional>
#include <optional>
#include <string_view>

#include "common/error.hpp"
#include "net/channel.hpp"
#include "portal/http.hpp"
#include "protocol/message.hpp"

namespace myproxy::server::http_binding {

/// True when `first_message` opens with an HTTP request line (an
/// upper-case method token and a space) rather than a native message.
[[nodiscard]] bool is_http(std::string_view first_message);

/// HTTP reply for a failure with `code`; `detail` becomes the body.
[[nodiscard]] portal::HttpResponse error_reply(ErrorCode code,
                                               std::string_view detail);

/// The command core: runs `request` over `channel` and returns the
/// ErrorCode a handler failed with (its error frame already sent), if any.
using Core = std::function<std::optional<ErrorCode>(
    net::Channel& channel, const protocol::Request& request)>;

/// Serve one raw HTTP request through `core`. The binding itself refuses,
/// without calling `core`: 400 unparseable, 405 a method other than POST,
/// 404 an unknown target, 422 a missing username or csr or a junk or
/// negative lifetime. Core errors map by ErrorCode; busy refusals become
/// 503 with retry-after; WRONG_SHARD and replica redirects become 421
/// naming the primary.
[[nodiscard]] portal::HttpResponse serve(std::string_view raw,
                                         const Core& core);

}  // namespace myproxy::server::http_binding
