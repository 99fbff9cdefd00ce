// The three workloads: set-up (PKI, preload, server start, first request),
// one client operation drawn from (seed, phase, index), and the output
// checks.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "client/myproxy_client.hpp"
#include "core.hpp"
#include "protocol/message.hpp"
#include "stack.hpp"

namespace perfbench {

struct WorkloadShape {
  std::string_view name;
  std::size_t portals;
  std::size_t users;
  bool replicated;
  mp::protocol::Command command;  ///< the op the server dispatches
};

[[nodiscard]] const WorkloadShape* find_workload(std::string_view name);

/// A stored account: repository username, pass phrase, and the index of the
/// user identity that owns it.
struct Account {
  std::string username;
  std::string pass;
  std::size_t owner = 0;
};

/// The credential a GET or RENEW delivered, held until the generator
/// thread that ran the op checks it.
struct Delivered {
  mp::gsi::Credential credential;
  mp::TimePoint received{};
  std::size_t owner = 0;
};

class Workload {
 public:
  /// Set-up: PKI, preload, server start and a first request. `dir` is a
  /// fresh scratch directory; the shipped config is read from the current
  /// directory (the root of the checkout).
  Workload(const WorkloadShape& shape, std::uint64_t seed,
           const std::filesystem::path& dir, bool traced);
  ~Workload();
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// One client op; `phase` keeps draws of different phases apart.
  bool op(std::size_t thread, std::size_t phase, std::uint64_t index);

  /// Check the credential the last op of generator thread `thread`
  /// delivered: it chain-verifies under the VO, carries the stored owner's
  /// identity, holds the key the client generated and stays within policy.
  /// Only a verdict is kept. True for user_init, which delivers nothing.
  bool verify(std::size_t thread);

  /// user_init: open a seeded sample of written accounts at the primary
  /// and at the drained replica. Marks the op that last wrote a mismatched
  /// account as failed in `phases[phase]`; returns the mismatches.
  std::size_t check_replica(std::vector<std::vector<OpRecord>*> phases);

  /// The first mismatch seen by verify() or check_replica(), if any.
  [[nodiscard]] std::string first_error() const;

  [[nodiscard]] const WorkloadShape& shape() const { return shape_; }
  [[nodiscard]] Stack& stack() { return *stack_; }
  [[nodiscard]] const Pki& pki() const { return *pki_; }
  [[nodiscard]] const std::vector<Account>& accounts() const {
    return accounts_;
  }
  /// The credential this workload's clients authenticate with.
  [[nodiscard]] const mp::gsi::Credential& client_credential() const;

 private:
  void preload();
  [[nodiscard]] mp::client::MyProxyClient fresh_client(
      const mp::gsi::Credential& credential) const;
  [[nodiscard]] std::size_t draw(Rng& rng) const;
  void note_error(const std::string& why);

  const WorkloadShape& shape_;
  std::uint64_t seed_;
  std::unique_ptr<Pki> pki_;
  mp::pki::TrustStore trust_;
  std::unique_ptr<Stack> stack_;
  std::vector<Account> accounts_;
  Zipf zipf_;
  std::vector<std::unique_ptr<mp::client::MyProxyClient>> portal_clients_;

  /// Per generator thread: the credential its last op delivered.
  std::vector<Delivered> pending_;
  mutable std::mutex results_mutex_;
  std::string first_error_;
  /// user_init: last op that wrote each account.
  std::vector<std::pair<std::size_t, std::uint64_t>> last_write_;
  std::vector<bool> written_;
};

}  // namespace perfbench
