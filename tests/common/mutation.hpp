// Deterministic hostile-input driver for parsers that see untrusted bytes:
// bit flips, truncations and splices of a valid input. Case `index` always
// yields the same mutation, so a failure reproduces from its index.
#pragma once

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <string_view>

#include "common/encoding.hpp"

namespace myproxy::mutation {

using encoding::Bytes;

/// Mutation `index` of `input`. Cases rotate through: flip 1-3 bits;
/// truncate; splice a run of `donor` (another valid input of the same kind)
/// over a run of `input`, which may also change its length.
inline Bytes mutate(const Bytes& input, const Bytes& donor,
                    std::uint32_t index) {
  std::mt19937 rng(index * 2654435761U + 17U);
  Bytes out = input;
  if (out.empty()) return out;
  const auto pick = [&rng](std::size_t bound) {
    return static_cast<std::size_t>(rng() % bound);
  };
  switch (index % 3) {
    case 0: {
      const std::size_t flips = 1 + pick(3);
      for (std::size_t i = 0; i < flips; ++i) {
        out[pick(out.size())] ^= static_cast<std::uint8_t>(1U << pick(8));
      }
      break;
    }
    case 1:
      out.resize(pick(out.size()));
      break;
    default: {
      if (donor.empty()) break;
      const std::size_t at = pick(out.size());
      const std::size_t cut = std::min(out.size() - at, 1 + pick(32));
      const std::size_t from = pick(donor.size());
      const std::size_t take = std::min(donor.size() - from, 1 + pick(32));
      Bytes spliced(out.begin(), out.begin() + static_cast<long>(at));
      spliced.insert(spliced.end(), donor.begin() + static_cast<long>(from),
                     donor.begin() + static_cast<long>(from + take));
      spliced.insert(spliced.end(),
                     out.begin() + static_cast<long>(at + cut), out.end());
      out = std::move(spliced);
      break;
    }
  }
  return out;
}

/// PEM armour (64-column base64) around `der`.
inline std::string pem_wrap(std::string_view label, const Bytes& der) {
  const std::string b64 = encoding::base64_encode(der);
  std::string out = "-----BEGIN " + std::string(label) + "-----\n";
  for (std::size_t i = 0; i < b64.size(); i += 64) {
    out += b64.substr(i, 64);
    out += '\n';
  }
  out += "-----END " + std::string(label) + "-----\n";
  return out;
}

/// DER body of the first PEM block in `pem` (the armour must be intact).
inline Bytes pem_body(std::string_view pem) {
  const std::size_t begin = pem.find("-----\n");
  const std::size_t end = pem.find("-----END");
  std::string b64;
  for (char c : pem.substr(begin + 6, end - begin - 6)) {
    if (c != '\n' && c != '\r') b64 += c;
  }
  return encoding::base64_decode(b64);
}

}  // namespace myproxy::mutation
