#include "client/myproxy_client.hpp"

#include <algorithm>
#include <cmath>
#include <thread>

#include "common/error.hpp"
#include "common/format.hpp"
#include "common/logging.hpp"
#include "common/strings.hpp"
#include "net/socket.hpp"

namespace myproxy::client {

namespace {

constexpr std::string_view kLogComponent = "client";

/// Backoff growth per retry, and the jitter that scales each sleep by a
/// random factor in [1 - kBackoffJitter, 1 + kBackoffJitter].
constexpr double kBackoffMultiplier = 2.0;
constexpr double kBackoffJitter = 0.2;

using protocol::AuthMode;
using protocol::Command;
using protocol::Request;
using protocol::Response;

std::int64_t field_int(const Response& response, const std::string& key) {
  const auto it = response.fields.find(key);
  if (it == response.fields.end()) {
    throw ProtocolError(fmt::format("response missing field '{}'", key));
  }
  const auto value = strings::parse_i64(it->second);
  if (!value.has_value()) {
    throw ProtocolError(fmt::format("response field '{}' is not a number: '{}'",
                                    key, it->second));
  }
  return *value;
}

}  // namespace

MyProxyClient::MyProxyClient(gsi::Credential credential,
                             pki::TrustStore trust_store, std::uint16_t port,
                             RetryPolicy retry_policy)
    : MyProxyClient(std::move(credential), std::move(trust_store),
                    std::vector<std::uint16_t>{port}, retry_policy) {}

MyProxyClient::MyProxyClient(gsi::Credential credential,
                             pki::TrustStore trust_store,
                             std::vector<std::uint16_t> ports,
                             RetryPolicy retry_policy)
    : credential_(std::move(credential)),
      trust_store_(std::move(trust_store)),
      tls_context_(tls::TlsContext::make(credential_)),
      ports_(std::move(ports)),
      retry_policy_(retry_policy),
      jitter_rng_(std::random_device{}()) {
  if (ports_.empty()) {
    throw Error(ErrorCode::kConfig,
                "MyProxyClient requires at least one endpoint");
  }
}

std::vector<std::uint16_t> MyProxyClient::candidates(
    bool write, std::string_view username) const {
  if (cluster_map_.has_value() && !cluster_map_->empty() &&
      !username.empty()) {
    const cluster::ShardNode& owner = cluster_map_->owner(username);
    if (write) return {owner.primary};
    std::vector<std::uint16_t> order = owner.replicas;
    order.push_back(owner.primary);
    return order;
  }
  if (write) return {ports_.front()};
  if (ports_.size() == 1) return ports_;
  std::vector<std::uint16_t> order(ports_.begin() + 1, ports_.end());
  order.push_back(ports_.front());
  return order;
}

template <typename Step>
auto MyProxyClient::run_op(const Request& request, Step&& step)
    -> decltype(step(std::declval<tls::TlsChannel&>(),
                     std::declval<const Response&>())) {
  const bool write = protocol::writes_store(request);
  const std::string& username = request.username;
  const int max_attempts = std::max(1, retry_policy_.max_attempts);
  std::map<std::uint16_t, int> attempts;  // connections per endpoint
  std::vector<std::uint16_t> order = candidates(write, username);
  std::size_t at = 0;  // the endpoint in `order` this pass tries
  int hops = 0;
  const auto count_hop = [&](std::string_view chasing, const Error& e) {
    if (++hops > kMaxRedirectHops) {
      throw RedirectLoop(fmt::format("redirect budget ({}) exhausted chasing "
                                     "{}: {}",
                                     kMaxRedirectHops, chasing, e.what()));
    }
  };
  for (;;) {
    const std::uint16_t port = order[at];
    const bool last = at + 1 == order.size();
    if (attempts[port] == max_attempts) {
      // A redirect led back to an endpoint whose connections are spent.
      if (last) {
        throw RedirectLoop(fmt::format(
            "redirected back to port {} after {} attempt(s)", port,
            max_attempts));
      }
      ++at;
      continue;
    }
    const int attempt = ++attempts[port];
    bool sent = false;
    try {
      auto channel = connect_once(port);
      sent = true;
      const Response response = transact(*channel, request);
      auto result = step(*channel, response);
      cache_session(port, *channel);
      return result;
    } catch (const ServerBusy& e) {
      // An admission shed (or a migration fence on PUT/STORE's second
      // response) refuses before the store changes, so running the whole
      // operation again cannot replay a command — even a write. Respect
      // the server's pacing hint but never sleep less than our own
      // (jittered) backoff, so shed clients do not stampede back.
      if (attempt == max_attempts) throw;
      const Millis delay =
          std::max(backoff_for_attempt(attempt), e.retry_after());
      log::warn(kLogComponent,
                "repository on port {} is busy (attempt {}/{}); retrying "
                "in {} ms",
                port, attempt, max_attempts, delay.count());
      std::this_thread::sleep_for(delay);
    } catch (const IoError& e) {
      if (!sent) {
        // Connection refused, deadline expired or handshake torn down:
        // the server has seen no request. A stale cached session must not
        // wedge every retry, so the next attempt does a full handshake.
        cached_sessions_.erase(port);
        if (attempt < max_attempts) {
          const Millis delay = backoff_for_attempt(attempt);
          log::warn(kLogComponent,
                    "connection attempt {}/{} to port {} failed ({}); "
                    "retrying in {} ms",
                    attempt, max_attempts, port, e.what(), delay.count());
          std::this_thread::sleep_for(delay);
          continue;
        }
        const IoError unreachable(fmt::format(
            "could not reach repository on port {} after {} attempt(s): {}",
            port, attempt, e.what()));
        if (last) throw unreachable;
        log::warn(kLogComponent, "{}; failing over", unreachable.what());
      } else {
        // The endpoint died mid-operation. Reads are side-effect free, so
        // re-running one elsewhere is safe; a write may have landed.
        if (write || last) throw;
        log::warn(kLogComponent, "endpoint {} failed ({}); failing over",
                  port, e.what());
      }
      ++at;
    } catch (const ReplicaRedirect& e) {
      if (!write) {
        // A read landed on a server that insists on the primary (e.g. an
        // OTP retrieval): the primary is always last in a read order.
        if (last) throw;
        log::warn(kLogComponent,
                  "endpoint {} redirected ({}); failing over", port,
                  e.what());
        ++at;
        continue;
      }
      // A write landed on a replica (the configured "primary" endpoint was
      // demoted, or the list simply starts with a replica). The refusal
      // names the real primary — follow it rather than hard-failing on
      // information we were just handed.
      if (e.primary_port() == 0) throw;
      count_hop("the primary", e);
      log::warn(kLogComponent,
                "endpoint is a replica; following redirect to primary {}",
                e.primary_port());
      order = {e.primary_port()};
      at = 0;
    } catch (const WrongShardRedirect& e) {
      // Our map is stale (or absent): the server named the shard's owner
      // and its epoch. Refresh the map and re-route; servers chasing a
      // live migration can hand us around, so the hop budget bounds it.
      count_hop("shard ownership", e);
      ++wrong_shard_redirects_;
      log::warn(kLogComponent,
                "wrong shard for '{}' (owner primary {}, epoch {}); "
                "refreshing cluster map",
                username, e.primary_hint(), e.epoch());
      try {
        (void)fetch_cluster_map_from(e.primary_hint());
        order = candidates(write, username);
      } catch (const std::exception&) {
        // Could not refresh a map from anyone; the redirect's direct hint
        // is still actionable on its own.
        if (e.primary_hint() == 0) throw;
        order = {e.primary_hint()};
      }
      at = 0;
    }
  }
}

std::unique_ptr<tls::TlsChannel> MyProxyClient::connect_once(
    std::uint16_t port) {
  const tls::TlsSession* resume = nullptr;
  if (session_resumption_) {
    const auto it = cached_sessions_.find(port);
    if (it != cached_sessions_.end() && it->second.valid()) {
      resume = &it->second;
    }
  }
  auto channel = tls::TlsChannel::connect(
      tls_context_, net::tcp_connect(port, retry_policy_.connect_timeout),
      retry_policy_.io_timeout, resume);
  if (channel->resumed()) {
    // Abbreviated handshake. The server proved possession of the secret
    // negotiated on a connection whose chain we fully verified (sessions
    // are only cached after a verified, successful operation), so the §5.1
    // server-authentication guarantee carries over; there is no fresh
    // chain to re-verify. server_identity_ still holds that identity.
    ++resumed_connections_;
    log::debug(kLogComponent, "resumed session with repository '{}'",
               server_identity_ ? server_identity_->str() : "?");
    return channel;
  }
  ++full_connections_;
  // Mutual authentication (§5.1): verify the repository's credentials so a
  // fake server cannot harvest pass phrases.
  const pki::VerifiedIdentity server =
      trust_store_.verify(channel->peer_chain());
  server_identity_ = server.identity;
  log::debug(kLogComponent, "connected to repository '{}'",
             server.identity.str());
  return channel;
}

Millis MyProxyClient::backoff_for_attempt(int attempt) {
  double delay = static_cast<double>(retry_policy_.initial_backoff.count());
  for (int i = 1; i < attempt; ++i) delay *= kBackoffMultiplier;
  delay = std::min(delay,
                   static_cast<double>(retry_policy_.max_backoff.count()));
  std::uniform_real_distribution<double> scale(1.0 - kBackoffJitter,
                                               1.0 + kBackoffJitter);
  delay *= scale(jitter_rng_);
  return Millis(std::max<std::int64_t>(0, std::llround(delay)));
}

void MyProxyClient::cache_session(std::uint16_t port,
                                  tls::TlsChannel& channel) {
  if (!session_resumption_) return;
  // TLS 1.3 tickets ride with (or after) the server's first response, so by
  // the end of a successful operation the session is resumable. Keep the
  // previous session if this connection yielded no resumable one (e.g. a
  // resumed connection whose ticket is still good).
  tls::TlsSession session = channel.session();
  if (session.valid()) cached_sessions_[port] = std::move(session);
}

gsi::DelegationRequest MyProxyClient::start_delegation(
    const crypto::KeySpec& spec) {
  if (key_pool_ != nullptr && key_pool_->spec() == spec) {
    return gsi::begin_delegation(key_pool_->acquire());
  }
  return gsi::begin_delegation(spec);
}

namespace {

/// Strict port parse for redirect hints; an unparseable or out-of-range
/// hint degrades to 0 (redirect with no usable target), never to a
/// truncated port.
std::uint16_t parse_port_hint(const Response& response,
                              const std::string& key) {
  const auto it = response.fields.find(key);
  if (it == response.fields.end()) return 0;
  const auto hint = strings::parse_u64(it->second);
  if (hint.has_value() && *hint > 0 && *hint <= 0xffff) {
    return static_cast<std::uint16_t>(*hint);
  }
  return 0;
}

}  // namespace

void MyProxyClient::check_response(const Response& response,
                                   Command command) {
  if (response.ok()) return;
  const std::string message = fmt::format("server refused {}: {}",
                                          to_string(command), response.error);
  const auto busy = response.fields.find("BUSY");
  if (busy != response.fields.end()) {
    // Admission shed with a pacing hint. The hint is clamped so a
    // misbehaving server cannot park the client for minutes.
    Millis retry_after{0};
    const auto hint = response.fields.find("RETRY_AFTER_MS");
    if (hint != response.fields.end()) {
      const auto parsed = strings::parse_u64(hint->second);
      if (parsed.has_value() && *parsed <= 60'000) {
        retry_after = Millis(static_cast<std::int64_t>(*parsed));
      }
    }
    throw ServerBusy(retry_after, message);
  }
  if (response.fields.count("WRONG_SHARD") != 0) {
    // Must be checked before PRIMARY: a wrong-shard refusal also carries a
    // PRIMARY field (the owning node's primary), and treating it as a
    // replica redirect would lose the epoch and skip the map refresh.
    std::uint64_t epoch = 0;
    std::uint32_t shard = 0;
    const auto epoch_field = response.fields.find("EPOCH");
    if (epoch_field != response.fields.end()) {
      epoch = strings::parse_u64(epoch_field->second).value_or(0);
    }
    const auto shard_field = response.fields.find("SHARD");
    if (shard_field != response.fields.end()) {
      const auto parsed = strings::parse_u64(shard_field->second);
      if (parsed.has_value() && *parsed <= 0xffffffffULL) {
        shard = static_cast<std::uint32_t>(*parsed);
      }
    }
    throw WrongShardRedirect(epoch, shard,
                             parse_port_hint(response, "PRIMARY"), message);
  }
  if (response.fields.count("PRIMARY") != 0) {
    throw ReplicaRedirect(parse_port_hint(response, "PRIMARY"), message);
  }
  throw Error(ErrorCode::kProtocol, message);
}

Response MyProxyClient::transact(tls::TlsChannel& channel,
                                 const Request& request) {
  channel.send(request.serialize());
  const Response response = Response::parse(channel.receive());
  check_response(response, request.command);
  return response;
}

cluster::ClusterMap MyProxyClient::fetch_cluster_map() {
  return fetch_cluster_map_from(0);
}

cluster::ClusterMap MyProxyClient::fetch_cluster_map_from(
    std::uint16_t preferred) {
  // Candidate order: the node that just redirected us (it certainly holds
  // a map, and a fresher one than ours), then every shard primary the
  // current map names, then the configured endpoints.
  std::vector<std::uint16_t> order;
  const auto add = [&order](std::uint16_t port) {
    if (port != 0 &&
        std::find(order.begin(), order.end(), port) == order.end()) {
      order.push_back(port);
    }
  };
  add(preferred);
  if (cluster_map_.has_value()) {
    for (std::uint32_t shard = 0; shard < cluster_map_->shard_count();
         ++shard) {
      add(cluster_map_->node(shard).primary);
    }
  }
  for (const std::uint16_t port : ports_) add(port);

  std::string last_error = "no endpoints configured";
  for (const std::uint16_t port : order) {
    try {
      auto channel = connect_once(port);
      Request request;
      request.command = Command::kClusterMap;
      (void)transact(*channel, request);
      // The serialized map follows the response as its own frame (response
      // fields cannot carry newlines); parse() verifies its checksum.
      cluster::ClusterMap map =
          cluster::ClusterMap::parse(channel->receive());
      cache_session(port, *channel);
      // Epochs only advance: never let a lagging node roll our map back —
      // re-routing by a newer map is at worst another bounded redirect.
      if (!cluster_map_.has_value() || cluster_map_->empty() ||
          map.epoch() >= cluster_map_->epoch()) {
        cluster_map_ = std::move(map);
      }
      ++map_refreshes_;
      return *cluster_map_;
    } catch (const Error& e) {
      // Unreachable node, or one without clustering enabled — try the next.
      last_error = e.what();
    }
  }
  throw IoError(
      fmt::format("could not fetch a cluster map from any endpoint "
                  "(last error: {})",
                  last_error));
}

std::map<std::string, std::string> MyProxyClient::cluster_migrate(
    std::uint32_t shard, std::uint16_t target_port) {
  // MIGRATE must run on the shard's current owner; route there when a map
  // is installed, else trust the caller pointed us at the owner.
  std::uint16_t owner = ports_.front();
  if (cluster_map_.has_value() && !cluster_map_->empty() &&
      shard < cluster_map_->shard_count()) {
    owner = cluster_map_->node(shard).primary;
  }
  auto channel = connect_once(owner);
  Request request;
  request.command = Command::kMigrate;
  request.shard = shard;
  request.target = std::to_string(target_port);
  const Response response = transact(*channel, request);
  cache_session(owner, *channel);
  return response.fields;
}

void MyProxyClient::put(std::string_view username,
                        std::string_view pass_phrase,
                        const gsi::Credential& source,
                        const PutOptions& options) {
  Request request;
  request.command = Command::kPut;
  request.username = std::string(username);
  request.passphrase = std::string(pass_phrase);
  request.auth_mode = options.use_otp ? AuthMode::kOtp : AuthMode::kPassphrase;
  request.lifetime = options.max_delegation_lifetime;
  request.credential_name = options.credential_name;
  request.retriever_patterns = options.retriever_patterns;
  request.renewer_patterns = options.renewer_patterns;
  request.want_limited = options.always_limited;
  request.restriction = options.restriction;
  request.task = options.task_tags;
  run_op(request, [&](tls::TlsChannel& channel, const Response&) {
    // Server sends its CSR; we sign a proxy of `source` for it (Figure 1).
    const std::string csr_pem = channel.receive();
    gsi::ProxyOptions proxy_options;
    proxy_options.lifetime = options.stored_lifetime;
    channel.send(gsi::delegate_credential(source, csr_pem, proxy_options));

    // The refusal can arrive on this second response too (a migration
    // fence or cutover raced the delegation exchange): map it to the same
    // typed errors so the redirect/busy machinery retries the whole put.
    check_response(Response::parse(channel.receive()), request.command);
    log::info(kLogComponent, "delegated credential to repository as '{}'",
              username);
    return 0;
  });
}

gsi::Credential MyProxyClient::get(std::string_view username,
                                   std::string_view pass_phrase,
                                   const GetOptions& options) {
  Request request;
  request.command = Command::kGet;
  request.username = std::string(username);
  request.passphrase = std::string(pass_phrase);
  request.auth_mode = options.otp ? AuthMode::kOtp : AuthMode::kPassphrase;
  request.lifetime = options.lifetime;
  request.credential_name = options.credential_name;
  request.want_limited = options.want_limited;
  return run_op(request, [&](tls::TlsChannel& channel, const Response&) {
    // We are the delegation receiver (Figure 2): fresh key, CSR out,
    // chain in.
    gsi::DelegationRequest delegation = start_delegation(options.key_spec);
    channel.send(delegation.csr_pem);
    gsi::Credential delegated = gsi::complete_delegation(
        std::move(delegation.key), channel.receive());
    log::info(kLogComponent, "received delegation for '{}' (expires {})",
              username, format_utc(delegated.not_after()));
    return delegated;
  });
}

gsi::Credential MyProxyClient::renew(std::string_view username,
                                     const GetOptions& options) {
  Request request;
  request.command = Command::kRenew;
  request.username = std::string(username);
  request.lifetime = options.lifetime;
  request.credential_name = options.credential_name;
  request.want_limited = options.want_limited;
  return run_op(request, [&](tls::TlsChannel& channel, const Response&) {
    gsi::DelegationRequest delegation = start_delegation(options.key_spec);
    channel.send(delegation.csr_pem);
    // The returned chain holds the stored credential's certificates, which
    // for a renewal are this client's own.
    return gsi::complete_delegation(std::move(delegation.key),
                                    channel.receive(),
                                    credential_.full_chain());
  });
}

void MyProxyClient::destroy(std::string_view username,
                            std::string_view name) {
  Request request;
  request.command = Command::kDestroy;
  request.username = std::string(username);
  request.credential_name = std::string(name);
  run_op(request, [](tls::TlsChannel&, const Response&) { return 0; });
}

StoredCredentialInfo MyProxyClient::info(std::string_view username,
                                         std::string_view name) {
  Request request;
  request.command = Command::kInfo;
  request.username = std::string(username);
  request.credential_name = std::string(name);
  return run_op(request, [](tls::TlsChannel&, const Response& response) {
    StoredCredentialInfo out;
    const auto owner = response.fields.find("OWNER");
    if (owner != response.fields.end()) out.owner_dn = owner->second;
    out.not_after = from_unix(field_int(response, "NOT_AFTER"));
    out.created_at = from_unix(field_int(response, "CREATED_AT"));
    out.max_delegation_lifetime =
        Seconds(field_int(response, "MAX_LIFETIME"));
    const auto sealing = response.fields.find("SEALING");
    if (sealing != response.fields.end()) out.sealing = sealing->second;
    out.limited = response.fields.count("LIMITED") != 0;
    const auto restriction = response.fields.find("RESTRICTION");
    if (restriction != response.fields.end()) {
      out.restriction = restriction->second;
    }
    const auto otp = response.fields.find("OTP_REMAINING");
    if (otp != response.fields.end()) {
      const auto remaining = strings::parse_u64(otp->second);
      if (!remaining.has_value() || *remaining > 0xffffffffULL) {
        throw ProtocolError(fmt::format(
            "malformed OTP_REMAINING field: '{}'", otp->second));
      }
      out.otp_remaining = static_cast<std::uint32_t>(*remaining);
    }
    return out;
  });
}

std::vector<std::string> MyProxyClient::list(std::string_view username) {
  Request request;
  request.command = Command::kList;
  request.username = std::string(username);
  return run_op(request, [](tls::TlsChannel&, const Response& response) {
    const auto names = response.fields.find("NAMES");
    if (names == response.fields.end()) return std::vector<std::string>{};
    return strings::split(names->second, '\x1f');
  });
}

std::string MyProxyClient::select_for_task(std::string_view username,
                                           std::string_view task) {
  Request request;
  request.command = Command::kList;
  request.username = std::string(username);
  request.task = std::string(task);
  return run_op(request, [](tls::TlsChannel&, const Response& response) {
    const auto selected = response.fields.find("SELECTED");
    if (selected == response.fields.end()) {
      throw ProtocolError("server response missing SELECTED field");
    }
    return selected->second;
  });
}

void MyProxyClient::change_passphrase(std::string_view username,
                                      std::string_view old_phrase,
                                      std::string_view new_phrase,
                                      std::string_view name) {
  Request request;
  request.command = Command::kChangePassphrase;
  request.username = std::string(username);
  request.passphrase = std::string(old_phrase);
  request.new_passphrase = std::string(new_phrase);
  request.credential_name = std::string(name);
  run_op(request, [](tls::TlsChannel&, const Response&) { return 0; });
}

void MyProxyClient::store(std::string_view username,
                          std::string_view pass_phrase,
                          const gsi::Credential& credential,
                          const PutOptions& options) {
  Request request;
  request.command = Command::kStore;
  request.username = std::string(username);
  request.passphrase = std::string(pass_phrase);
  request.lifetime = options.max_delegation_lifetime;
  request.credential_name = options.credential_name;
  request.retriever_patterns = options.retriever_patterns;
  request.renewer_patterns = options.renewer_patterns;
  request.restriction = options.restriction;
  request.task = options.task_tags;
  run_op(request, [&](tls::TlsChannel& channel, const Response&) {
    const SecureBuffer pem = credential.to_pem();
    channel.send(pem.view());
    // Same as put(): a fence/cutover refusal on the second response must
    // stay retryable, not collapse into a plain protocol error.
    check_response(Response::parse(channel.receive()), request.command);
    return 0;
  });
}

gsi::Credential MyProxyClient::retrieve(std::string_view username,
                                        std::string_view pass_phrase,
                                        std::string_view name) {
  Request request;
  request.command = Command::kRetrieve;
  request.username = std::string(username);
  request.passphrase = std::string(pass_phrase);
  request.credential_name = std::string(name);
  return run_op(request, [](tls::TlsChannel& channel, const Response&) {
    return gsi::Credential::from_pem(channel.receive());
  });
}

std::map<std::string, std::string> MyProxyClient::server_stats() {
  Request request;
  request.command = Command::kStats;
  return run_op(request, [](tls::TlsChannel&, const Response& response) {
    return response.fields;
  });
}

}  // namespace myproxy::client
