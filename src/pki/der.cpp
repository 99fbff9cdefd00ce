#include "pki/der.hpp"

#include <string>

#include "common/error.hpp"

namespace myproxy::pki::der {

Element take(std::string_view& in, unsigned char tag) {
  if (!next_is(in, tag) || in.size() < 2) {
    throw ParseError("DER: unexpected element");
  }
  std::size_t length = static_cast<unsigned char>(in[1]);
  std::size_t header = 2;
  if ((length & 0x80U) != 0) {
    // Long form: 1-4 length octets, no leading zero, and only for lengths
    // the short form cannot hold. 0x80 alone (indefinite) is BER.
    const std::size_t octets = length & 0x7FU;
    if (octets == 0 || octets > 4 || in.size() < header + octets ||
        in[header] == '\0') {
      throw ParseError("DER: invalid length");
    }
    length = 0;
    for (std::size_t i = 0; i < octets; ++i) {
      length = (length << 8) | static_cast<unsigned char>(in[header + i]);
    }
    if (length < 0x80) throw ParseError("DER: invalid length");
    header += octets;
  }
  if (in.size() - header < length) throw ParseError("DER: truncated element");
  const Element out{in.substr(0, header + length), in.substr(header, length)};
  in.remove_prefix(header + length);
  return out;
}

std::string_view bits(const Element& bit_string) {
  if (bit_string.content.empty() || bit_string.content.front() != '\0') {
    throw ParseError("DER: BIT STRING with unused bits");
  }
  return bit_string.content.substr(1);
}

void expect_end(std::string_view rest, std::string_view what) {
  if (!rest.empty()) {
    throw ParseError("DER: trailing bytes after " + std::string(what));
  }
}

}  // namespace myproxy::pki::der
