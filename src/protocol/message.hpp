// The MyProxy client-server wire protocol.
//
// Faithful in structure to the original prototype protocol the paper
// describes (§6.4 notes it "was quickly designed as a prototype"): newline-
// separated KEY=VALUE text messages exchanged over a mutually-authenticated
// channel, followed by raw CSR / certificate-chain messages for the
// delegation sub-protocol.
//
// Message flows (C = client, S = server; every flow starts with C's request
// and ends with S's response or an intermediate OK):
//   PUT (Figure 1, myproxy-init):
//     C: request{PUT,...}   S: ok   S: CSR   C: chain   S: response
//   GET (Figure 2, myproxy-get-delegation):
//     C: request{GET,...}   S: ok   C: CSR   S: chain
//   DESTROY / CHANGE_PASSPHRASE / INFO / LIST / STORE / RETRIEVE / RENEW:
//     simple request/response (STORE carries one extra credential-blob
//     message; RETRIEVE returns one; RENEW runs the GET delegation steps).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.hpp"

namespace myproxy::protocol {

inline constexpr std::string_view kProtocolVersion = "MYPROXYv2";

enum class Command {
  kGet = 0,               ///< retrieve a delegated proxy (Figure 2)
  kPut = 1,               ///< delegate a proxy to the repository (Figure 1)
  kInfo = 2,              ///< query stored-credential metadata
  kDestroy = 3,           ///< remove stored credentials (myproxy-destroy)
  kChangePassphrase = 4,  ///< rotate the retrieval pass phrase
  kStore = 5,             ///< store a long-term credential (§6.1)
  kRetrieve = 6,          ///< retrieve a stored long-term credential (§6.1)
  kList = 7,              ///< list wallet credentials (§6.2)
  kRenew = 8,             ///< refresh a job's proxy (§6.6, Condor-G support)
  kReplicaSync = 9,       ///< replica requests a snapshot / journal stream
  kStats = 10,            ///< dump server counters (admin tooling)
  kClusterMap = 11,       ///< fetch the versioned shard map (cluster routing)
  kMigrate = 12,          ///< admin: move a shard to another primary
  kMigrateInstall = 13,   ///< server-to-server: receive a migrating shard
};

/// Largest Command value; sizes per-op tables (latency histograms, the
/// command tables here and in the server).
inline constexpr Command kLastCommand = Command::kMigrateInstall;

[[nodiscard]] std::string_view to_string(Command command) noexcept;

enum class AuthMode {
  kPassphrase,  ///< persistent pass phrase (the paper's baseline)
  kOtp,         ///< one-time password (§6.3, replay-attack fix)
};

[[nodiscard]] std::string_view to_string(AuthMode mode) noexcept;

struct Request {
  Command command = Command::kGet;
  std::string username;
  /// Pass phrase or OTP word, by auth_mode. (Held as std::string because it
  /// is serialized into the wire message; the channel is encrypted.)
  std::string passphrase;
  AuthMode auth_mode = AuthMode::kPassphrase;
  /// GET/RENEW: requested proxy lifetime. PUT: maximum lifetime the
  /// repository may delegate on the user's behalf (§4.1 retrieval
  /// restriction). 0 = server default.
  Seconds lifetime{0};
  /// Wallet slot name; empty selects the default credential (§6.2).
  std::string credential_name;
  /// CHANGE_PASSPHRASE: the replacement pass phrase.
  std::string new_passphrase;
  /// PUT/STORE: per-credential retriever/renewer DN patterns that narrow
  /// the server-wide ACLs (paper §4.1 "retrieval restrictions").
  std::vector<std::string> retriever_patterns;
  std::vector<std::string> renewer_patterns;
  /// GET: ask for a limited proxy; PUT: mark the stored credential so that
  /// every delegation from it is limited.
  bool want_limited = false;
  /// PUT/STORE: restriction policy text to embed in every proxy delegated
  /// from this credential (§6.5), e.g. "rights=file-read".
  std::optional<std::string> restriction;
  /// LIST/wallet: task tag used for credential selection (§6.2), matched
  /// against stored credentials' task tags.
  std::string task;
  /// REPLICA_SYNC: last journal sequence the replica has applied (0 = no
  /// usable state; the primary answers with a snapshot).
  std::uint64_t sequence = 0;
  /// MIGRATE / MIGRATE_INSTALL: the shard slot being moved.
  std::uint32_t shard = 0;
  /// MIGRATE: "<primary_port>" of the node receiving the shard.
  std::string target;

  [[nodiscard]] std::string serialize() const;
  /// Throws ProtocolError on malformed text; an accepted request's command
  /// is never past kLastCommand.
  static Request parse(std::string_view text);
};

/// True when `request` writes the store, so it must reach the primary (a
/// replica redirects it there) and waits out a migration fence. RENEW
/// counts, since only the primary's master key opens a renewable record,
/// and so do OTP-authenticated GET and RETRIEVE, since verifying an OTP
/// word advances the stored chain.
[[nodiscard]] bool writes_store(const Request& request) noexcept;

struct Response {
  enum class Status { kOk, kError };

  Status status = Status::kOk;
  std::string error;  // populated when status == kError
  /// Auxiliary payload (INFO metadata, LIST entries, server banners).
  /// Multi-valued keys join with '\x1f' on parse.
  std::map<std::string, std::string> fields;

  [[nodiscard]] bool ok() const noexcept { return status == Status::kOk; }

  [[nodiscard]] std::string serialize() const;
  static Response parse(std::string_view text);

  static Response make_ok() { return {}; }
  static Response make_error(std::string message) {
    Response r;
    r.status = Status::kError;
    r.error = std::move(message);
    return r;
  }
};

}  // namespace myproxy::protocol
