// Proxy credential creation and delegation (paper §2.3–2.4).
//
// Local creation (grid-proxy-init): generate a fresh key pair and sign a
// short-lived proxy certificate with the user's credential.
//
// Remote delegation: a three-step handshake in which the private key never
// leaves the receiver —
//   receiver:  begin_delegation()      -> fresh key + CSR
//   sender:    delegate_credential()   -> signs the CSR into a proxy chain
//   receiver:  complete_delegation()   -> binds key + chain into a Credential
// MyProxy uses this handshake in both directions: myproxy-init delegates a
// proxy *to* the repository (Figure 1), and myproxy-get-delegation delegates
// one *from* it (Figure 2).
#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "common/clock.hpp"
#include "gsi/credential.hpp"
#include "pki/certificate_request.hpp"
#include "pki/proxy_policy.hpp"

namespace myproxy::gsi {

struct ProxyOptions {
  /// Requested proxy lifetime; clamped so the proxy never outlives its
  /// issuer certificate (lifetime nesting, verified at the relying party).
  Seconds lifetime = kDefaultProxyLifetime;

  /// Issue a "CN=limited proxy" (job managers refuse these).
  bool limited = false;

  /// Optional restricted-proxy policy to embed (paper §6.5).
  std::optional<pki::RestrictionPolicy> restriction;

  /// Key type for the fresh proxy key pair. 512-bit RSA was the 2001
  /// default for proxies (speed over longevity); we default to EC P-256.
  crypto::KeySpec key_spec = crypto::KeySpec::ec();
};

/// grid-proxy-init: create a proxy credential locally from `issuer`.
[[nodiscard]] Credential create_proxy(const Credential& issuer,
                                      const ProxyOptions& options = {});

/// Receiver-side state for an in-flight delegation.
struct DelegationRequest {
  crypto::KeyPair key;   // stays on the receiver
  std::string csr_pem;   // travels to the sender
};

/// Step 1 (receiver): fresh key pair + CSR. The CSR subject is a
/// placeholder; the sender derives the actual proxy subject from its own
/// DN, which prevents the receiver from requesting an arbitrary identity.
[[nodiscard]] DelegationRequest begin_delegation(
    const crypto::KeySpec& key_spec = crypto::KeySpec::ec());

/// Step 1 with a caller-supplied fresh key (e.g. from a
/// crypto::KeyPairPool): skips the synchronous generation, builds only the
/// CSR. The key must be private and must never have been used before.
[[nodiscard]] DelegationRequest begin_delegation(crypto::KeyPair key);

/// Step 2 (sender): verify the CSR's proof of possession and sign a proxy
/// certificate over its public key. Returns the full certificate chain PEM
/// (new proxy first) for the receiver. Throws if `issuer` is expired.
[[nodiscard]] std::string delegate_credential(const Credential& issuer,
                                              std::string_view csr_pem,
                                              const ProxyOptions& options = {});

/// Step 3 (receiver): combine the retained key with the returned chain.
/// Verifies the chain's leaf matches `key` and that the proxy links are
/// internally consistent. Chain certificates byte-identical to one in
/// `known` (the sender's verified chain, or the receiver's own credential)
/// are shared, not decoded.
[[nodiscard]] Credential complete_delegation(
    crypto::KeyPair key, std::string_view chain_pem,
    std::span<const pki::Certificate> known = {});

}  // namespace myproxy::gsi
