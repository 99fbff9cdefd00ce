// Per-layer replays for the traced run: each layer's public entry point
// called directly, with the workload's own credentials, and timed.
#pragma once

#include "repository/repository.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Median wall time of one call, in microseconds.
struct LayerCosts {
  double full_handshake_us = 0.0;
  double resumed_handshake_us = 0.0;
  double chain_verify_us = 0.0;
  double delegate_us = 0.0;
  double complete_us = 0.0;
  double keygen_us = 0.0;
  double kdf_us = 0.0;
  double repo_open_us = 0.0;
  double repo_store_us = 0.0;
};

/// Replay the layers `workload` exercises: TlsChannel connect/accept over
/// loopback with its client credential and the host credential,
/// TrustStore::verify on its client chain, delegate_credential /
/// complete_delegation of a stored proxy, KeyPair::generate, crypto::pbkdf2
/// at the policy's iterations, and Repository::open/store of its accounts
/// over a memory store.
LayerCosts replay_layers(Workload& workload);

}  // namespace perfbench
