#include "gsi/credential.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/format.hpp"

namespace myproxy::gsi {

Credential::Credential(pki::Certificate cert, crypto::KeyPair key,
                       std::vector<pki::Certificate> chain)
    : cert_(std::move(cert)), key_(std::move(key)), chain_(std::move(chain)) {
  if (!cert_.valid()) {
    throw Error(ErrorCode::kInternal, "credential requires a certificate");
  }
  if (!key_.valid() || !key_.has_private()) {
    throw CryptoError("credential requires a private key");
  }
  if (!cert_.public_key().same_public_key(key_)) {
    throw VerificationError(
        "credential certificate does not match the private key");
  }
}

std::vector<pki::Certificate> Credential::full_chain() const {
  std::vector<pki::Certificate> out;
  out.reserve(chain_.size() + 1);
  out.push_back(cert_);
  out.insert(out.end(), chain_.begin(), chain_.end());
  return out;
}

const pki::Certificate& Credential::end_entity() const {
  if (!cert_.is_proxy()) return cert_;
  for (const auto& cert : chain_) {
    if (!cert.is_proxy()) return cert;
  }
  throw VerificationError(
      "proxy credential chain contains no end-entity certificate");
}

pki::DistinguishedName Credential::identity() const {
  return end_entity().subject();
}

pki::DistinguishedName Credential::subject() const { return cert_.subject(); }

std::size_t Credential::delegation_depth() const {
  if (!cert_.is_proxy()) return 0;
  std::size_t depth = 1;
  for (const auto& cert : chain_) {
    if (!cert.is_proxy()) break;
    ++depth;
  }
  return depth;
}

TimePoint Credential::not_after() const {
  TimePoint earliest = cert_.not_after();
  for (const auto& cert : chain_) {
    if (!cert.is_proxy()) break;  // EEC lifetime governs itself
    earliest = std::min(earliest, cert.not_after());
  }
  return earliest;
}

Seconds Credential::remaining_lifetime() const {
  return std::chrono::duration_cast<Seconds>(not_after() - now());
}

SecureBuffer Credential::to_pem() const {
  std::string out = cert_.to_pem();
  out += key_.private_pem().str();
  for (const auto& cert : chain_) out += cert.to_pem();
  SecureBuffer buffer{std::string_view(out)};
  secure_wipe(out.data(), out.size());
  return buffer;
}

std::string Credential::to_pem_encrypted(std::string_view pass_phrase) const {
  std::string out = cert_.to_pem();
  out += key_.private_pem_encrypted(pass_phrase);
  for (const auto& cert : chain_) out += cert.to_pem();
  return out;
}

std::string Credential::certificate_chain_pem() const {
  return pki::Certificate::chain_to_pem(full_chain());
}

Credential Credential::from_pem(std::string_view pem,
                                std::string_view pass_phrase,
                                std::span<const pki::Certificate> known) {
  auto certs = pki::Certificate::chain_from_pem(pem, known);
  // The key block sits between the leaf cert and the rest of the chain;
  // KeyPair's PEM reader finds the first key block wherever it is.
  crypto::KeyPair key = crypto::KeyPair::from_private_pem(pem, pass_phrase);
  pki::Certificate leaf = std::move(certs.front());
  certs.erase(certs.begin());
  return Credential(std::move(leaf), std::move(key), std::move(certs));
}

}  // namespace myproxy::gsi
