// Shared plumbing for the myproxy-* command-line tools: flag parsing, file
// I/O, pass-phrase prompting, and credential/trust-store loading.
#pragma once

#include <filesystem>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "client/myproxy_client.hpp"
#include "common/error.hpp"
#include "gsi/credential.hpp"
#include "pki/trust_store.hpp"

namespace myproxy::tools {

/// "--flag value" and "--switch" style arguments; positionals preserved.
class Args {
 public:
  Args(int argc, char** argv, std::vector<std::string> value_flags);

  [[nodiscard]] std::optional<std::string> get(const std::string& flag) const;
  [[nodiscard]] std::string get_or(const std::string& flag,
                                   std::string fallback) const;
  [[nodiscard]] bool has(const std::string& flag) const;
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> switches_;
  std::vector<std::string> positional_;
};

[[nodiscard]] std::string read_file(const std::filesystem::path& path);
void write_file(const std::filesystem::path& path, std::string_view content,
                bool private_mode = false);

/// Read a pass phrase: from --passphrase-file if given, else from stdin.
[[nodiscard]] std::string read_passphrase(const Args& args,
                                          std::string_view prompt);

/// Load a credential file (cert + key [+ chain]); prompts for a pass
/// phrase if the key is encrypted and none was supplied.
[[nodiscard]] gsi::Credential load_credential(
    const std::filesystem::path& path, std::string_view key_passphrase = {});

/// Load every certificate in `path` as a trusted root.
[[nodiscard]] pki::TrustStore load_trust_store(
    const std::filesystem::path& path);

/// Run `body` with uniform error reporting; returns the process exit code.
int run_tool(std::string_view name, const std::function<void()>& body);

/// Parse the --port flag as a comma-separated endpoint list ("7512" or
/// "7512,7513,7514") — primary first, replicas after, matching
/// MyProxyClient's failover contract. `fallback` is used when the flag is
/// absent.
[[nodiscard]] std::vector<std::uint16_t> ports_from_args(
    const Args& args, std::string_view fallback = "7512");

/// Append the shared connection-robustness flags to a tool's value-flag
/// list: --retries N (connections to each endpoint in one operation,
/// default 3; the client retries only a BUSY refusal or a connection that
/// failed before the request was sent), --retry-backoff-ms (the first
/// backoff, doubling to 2 s), --connect-timeout-ms and --io-timeout-ms.
[[nodiscard]] std::vector<std::string> with_retry_flags(
    std::vector<std::string> value_flags);

/// Build a client RetryPolicy from the shared flags (defaults otherwise).
[[nodiscard]] client::RetryPolicy retry_policy_from_args(const Args& args);

}  // namespace myproxy::tools
