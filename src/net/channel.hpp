// Message channels. The MyProxy protocol is message-oriented (request,
// response, CSR blob, certificate-chain blob), so transports expose
// whole-message send/receive with 4-byte big-endian length framing.
//
// Implementations: PlainChannel (unencrypted, for tests and for the front
// end's busy reply to a connection it sheds before TLS) and
// tls::TlsChannel (the real transport — paper §5.1: "all data passing to
// and from the server is encrypted").
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "net/socket.hpp"

namespace myproxy::net {

/// Refuse messages above this size: certificates and CSRs are a few KB, so
/// anything near the cap indicates a confused or hostile peer.
inline constexpr std::size_t kMaxMessageSize = 1 << 20;

class Channel {
 public:
  virtual ~Channel() = default;

  /// Send one whole message. Throws IoError on transport failure and
  /// ProtocolError if the message exceeds kMaxMessageSize.
  virtual void send(std::string_view message) = 0;

  /// Receive one whole message. Throws IoError on transport failure /
  /// orderly close, ProtocolError on an over-long frame.
  [[nodiscard]] virtual std::string receive() = 0;

  virtual void close() noexcept = 0;
};

/// Length-framed channel over a raw socket, no encryption.
class PlainChannel final : public Channel {
 public:
  explicit PlainChannel(Socket socket) : socket_(std::move(socket)) {}

  void send(std::string_view message) override;
  [[nodiscard]] std::string receive() override;
  void close() noexcept override { socket_.close(); }

 private:
  Socket socket_;
};

/// Encode a 4-byte big-endian frame header.
[[nodiscard]] std::string encode_frame_header(std::size_t size);

/// Decode a frame header; validates against kMaxMessageSize.
[[nodiscard]] std::size_t decode_frame_header(std::string_view header);

}  // namespace myproxy::net
