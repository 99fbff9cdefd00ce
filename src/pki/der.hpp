// A strict DER reader for the structures the PKI layer walks itself: the
// PKCS#10 request and the SubjectPublicKeyInfo copied out of it. It accepts
// low-number tags and definite, minimally encoded lengths only, so the
// bytes a caller keeps are exactly the bytes that were signed.
#pragma once

#include <string_view>

namespace myproxy::pki::der {

inline constexpr unsigned char kInteger = 0x02;
inline constexpr unsigned char kBitString = 0x03;
inline constexpr unsigned char kSequence = 0x30;
inline constexpr unsigned char kContext0 = 0xA0;  // [0], constructed

struct Element {
  std::string_view encoding;  ///< tag, length and content
  std::string_view content;
};

/// Take the next element off the front of `in`. Throws ParseError unless it
/// carries `tag` and a minimal definite length that fits in `in`.
[[nodiscard]] Element take(std::string_view& in, unsigned char tag);

/// True if the next element of `in` carries `tag`.
[[nodiscard]] inline bool next_is(std::string_view in, unsigned char tag) {
  return !in.empty() && static_cast<unsigned char>(in.front()) == tag;
}

/// The bits of a BIT STRING element. Throws ParseError unless it has no
/// unused bits.
[[nodiscard]] std::string_view bits(const Element& bit_string);

/// Throws ParseError naming `what` unless `rest` is empty.
void expect_end(std::string_view rest, std::string_view what);

}  // namespace myproxy::pki::der
