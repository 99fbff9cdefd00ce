#include "grid/resource_service.hpp"

#include "common/error.hpp"
#include "common/format.hpp"
#include "common/logging.hpp"
#include "common/strings.hpp"
#include "gsi/proxy.hpp"
#include "protocol/message.hpp"

namespace myproxy::grid {

namespace {

constexpr std::string_view kLogComponent = "grid.resource";

using protocol::Response;

/// Tiny request format over the framed channel: first line is the action,
/// remaining lines are arguments (ACTION\nARG1\nARG2...).
struct ResourceRequest {
  std::string action;
  std::vector<std::string> args;

  [[nodiscard]] std::string serialize() const {
    std::string out = action;
    for (const auto& arg : args) {
      out += '\n';
      out += arg;
    }
    return out;
  }

  static ResourceRequest parse(std::string_view text) {
    ResourceRequest out;
    const auto lines = strings::split(text, '\n');
    if (lines.empty() || lines[0].empty()) {
      throw ProtocolError("empty resource request");
    }
    out.action = lines[0];
    out.args.assign(lines.begin() + 1, lines.end());
    return out;
  }
};

/// Does the chain's effective policy grant `right`? No policy means an
/// unrestricted proxy.
void require_right(const pki::VerifiedIdentity& peer,
                   std::string_view right) {
  if (peer.policy.has_value() && !peer.policy->allows(right)) {
    throw AuthorizationError(fmt::format(
        "restricted proxy lacks the '{}' right (policy: {})", right,
        peer.policy->str()));
  }
}

}  // namespace

ResourceService::ResourceService(gsi::Credential host_credential,
                                 pki::TrustStore trust_store,
                                 gsi::Gridmap gridmap,
                                 std::size_t worker_threads)
    : host_credential_(std::move(host_credential)),
      trust_store_(std::move(trust_store)),
      gridmap_(std::move(gridmap)),
      tls_context_(tls::TlsContext::make(host_credential_)),
      worker_threads_(worker_threads) {}

ResourceService::~ResourceService() { stop(); }

void ResourceService::start() {
  listener_.emplace(net::TcpListener::bind(0));
  port_ = listener_->port();
  pool_ = std::make_unique<ThreadPool>(worker_threads_, /*max_queue=*/128);
  tls::ReactorOptions front_end;
  front_end.busy_reply =
      Response::make_error("server busy, try again").serialize();
  reactor_ = std::make_unique<tls::Reactor>(
      tls_context_, *listener_, *pool_, stats_, std::move(front_end),
      [this](tls::TlsChannel& channel, std::string_view raw_request) {
        serve(channel, raw_request);
      });
  reactor_->start();
  log::info(kLogComponent, "resource service listening on port {} as '{}'",
            port_, host_credential_.identity().str());
}

void ResourceService::stop() {
  if (reactor_ != nullptr) reactor_->stop();
  pool_.reset();
  if (listener_.has_value()) listener_->close();
}

void ResourceService::serve(tls::TlsChannel& channel,
                            std::string_view raw_request) {
  pki::VerifiedIdentity peer;
  try {
    peer = trust_store_.verify(channel.peer_chain());
  } catch (const Error& e) {
    log::warn(kLogComponent, "authentication failed: {}", e.what());
    channel.send(Response::make_error("authentication failed").serialize());
    return;
  }
  // §2.1: map the Grid identity to a local account.
  const auto local_user = gridmap_.lookup(peer.identity);
  if (!local_user.has_value()) {
    log::warn(kLogComponent, "no gridmap entry for '{}'", peer.identity.str());
    channel.send(Response::make_error("identity not in gridmap").serialize());
    return;
  }

  const ResourceRequest request = ResourceRequest::parse(raw_request);
  log::info(kLogComponent, "{} from '{}' (local user '{}')", request.action,
            peer.identity.str(), *local_user);

  try {
    if (request.action == "whoami") {
      Response response;
      response.fields["LOCAL_USER"] = *local_user;
      response.fields["DN"] = peer.identity.str();
      if (peer.limited) response.fields["LIMITED"] = "1";
      channel.send(response.serialize());
    } else if (request.action == "submit") {
      // GSI semantics: limited proxies cannot start jobs ("GRAM refuses
      // limited proxies"); storage access below remains allowed.
      if (peer.limited) {
        throw AuthorizationError("limited proxies may not submit jobs");
      }
      require_right(peer, kRightJobSubmit);
      if (request.args.empty() || request.args[0].empty()) {
        throw PolicyError("job command must not be empty");
      }
      // Delegate a proxy for the job so it can act unattended (§2.4's
      // motivating example).
      gsi::DelegationRequest delegation = gsi::begin_delegation();
      channel.send(Response::make_ok().serialize());
      channel.send(delegation.csr_pem);
      const std::string chain_pem = channel.receive();
      gsi::Credential job_credential =
          gsi::complete_delegation(std::move(delegation.key), chain_pem);
      const auto job_identity =
          trust_store_.verify(job_credential.full_chain());
      if (!(job_identity.identity == peer.identity)) {
        throw AuthorizationError("delegated job credential identity mismatch");
      }

      JobRecord job;
      job.local_user = *local_user;
      job.owner_dn = peer.identity.str();
      job.command = request.args[0];
      job.submitted_at = now();
      job.credential_expires = job_credential.not_after();
      {
        const std::scoped_lock lock(mutex_);
        job.id = fmt::format("job-{}", next_job_++);
        jobs_[job.id] = job;
        job_credentials_.emplace(job.id, std::move(job_credential));
      }
      Response response;
      response.fields["JOB_ID"] = job.id;
      channel.send(response.serialize());
    } else if (request.action == "status") {
      require_right(peer, kRightJobStatus);
      if (request.args.empty()) throw PolicyError("missing job id");
      const std::scoped_lock lock(mutex_);
      const auto it = jobs_.find(request.args[0]);
      if (it == jobs_.end() || it->second.owner_dn != peer.identity.str()) {
        throw NotFoundError("no such job");
      }
      Response response;
      response.fields["STATE"] =
          it->second.state == JobState::kRunning        ? "running"
          : it->second.state == JobState::kCompleted    ? "completed"
                                                        : "credential-expired";
      response.fields["CRED_EXPIRES"] =
          std::to_string(to_unix(it->second.credential_expires));
      channel.send(response.serialize());
    } else if (request.action == "store") {
      require_right(peer, kRightFileWrite);
      if (request.args.empty()) throw PolicyError("missing file name");
      channel.send(Response::make_ok().serialize());
      const std::string content = channel.receive();
      {
        const std::scoped_lock lock(mutex_);
        files_[fmt::format("{}/{}", *local_user, request.args[0])] = content;
      }
      channel.send(Response::make_ok().serialize());
    } else if (request.action == "fetch") {
      require_right(peer, kRightFileRead);
      if (request.args.empty()) throw PolicyError("missing file name");
      std::string content;
      {
        const std::scoped_lock lock(mutex_);
        const auto it =
            files_.find(fmt::format("{}/{}", *local_user, request.args[0]));
        if (it == files_.end()) throw NotFoundError("no such file");
        content = it->second;
      }
      channel.send(Response::make_ok().serialize());
      channel.send(content);
    } else {
      throw ProtocolError(fmt::format("unknown action '{}'", request.action));
    }
  } catch (const Error& e) {
    log::warn(kLogComponent, "{} failed for '{}': {}", request.action,
              peer.identity.str(), e.what());
    channel.send(Response::make_error(e.what()).serialize());
  }
}

std::optional<JobRecord> ResourceService::job(const std::string& id) const {
  const std::scoped_lock lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  return it->second;
}

std::vector<JobRecord> ResourceService::jobs_for(
    std::string_view owner_dn) const {
  const std::scoped_lock lock(mutex_);
  std::vector<JobRecord> out;
  for (const auto& [id, job] : jobs_) {
    if (owner_dn.empty() || job.owner_dn == owner_dn) out.push_back(job);
  }
  return out;
}

std::optional<gsi::Credential> ResourceService::job_credential(
    const std::string& id) const {
  const std::scoped_lock lock(mutex_);
  const auto it = job_credentials_.find(id);
  if (it == job_credentials_.end()) return std::nullopt;
  return it->second;
}

bool ResourceService::refresh_job_credential(const std::string& id,
                                             const gsi::Credential& fresh) {
  const std::scoped_lock lock(mutex_);
  const auto job_it = jobs_.find(id);
  if (job_it == jobs_.end()) return false;
  if (fresh.identity().str() != job_it->second.owner_dn) return false;
  job_credentials_.insert_or_assign(id, fresh);
  job_it->second.credential_expires = fresh.not_after();
  if (job_it->second.state == JobState::kCredentialExpired) {
    job_it->second.state = JobState::kRunning;
  }
  log::info(kLogComponent, "job {} credential refreshed (expires {})", id,
            format_utc(fresh.not_after()));
  return true;
}

std::size_t ResourceService::expire_stale_jobs() {
  const std::scoped_lock lock(mutex_);
  std::size_t expired = 0;
  const TimePoint t = now();
  for (auto& [id, job] : jobs_) {
    if (job.state == JobState::kRunning && job.credential_expires <= t) {
      job.state = JobState::kCredentialExpired;
      ++expired;
      log::warn(kLogComponent, "job {} lost its credential", id);
    }
  }
  return expired;
}

std::optional<std::string> ResourceService::stored_file(
    std::string_view local_user, std::string_view name) const {
  const std::scoped_lock lock(mutex_);
  const auto it =
      files_.find(fmt::format("{}/{}", local_user, name));
  if (it == files_.end()) return std::nullopt;
  return it->second;
}

// --- ResourceClient ----------------------------------------------------------

ResourceClient::ResourceClient(gsi::Credential credential,
                               pki::TrustStore trust_store,
                               std::uint16_t port)
    : credential_(std::move(credential)),
      trust_store_(std::move(trust_store)),
      tls_context_(tls::TlsContext::make(credential_)),
      port_(port) {}

std::unique_ptr<tls::TlsChannel> ResourceClient::connect() {
  // The portal calls this on a reactor worker: a resource that accepts TCP
  // and then stalls must cost that worker a deadline, not the worker.
  auto channel = tls::TlsChannel::connect(
      tls_context_, net::tcp_connect(port_, tls::kDefaultHandshakeTimeout),
      tls::kDefaultHandshakeTimeout);
  (void)trust_store_.verify(channel->peer_chain());  // mutual authentication
  channel->set_deadlines(tls::kDefaultRequestTimeout,
                         tls::kDefaultRequestTimeout);
  return channel;
}

std::string ResourceClient::submit_job(std::string_view command) {
  auto channel = connect();
  channel->send(
      ResourceRequest{"submit", {std::string(command)}}.serialize());
  Response response = Response::parse(channel->receive());
  if (!response.ok()) {
    throw Error(ErrorCode::kProtocol,
                fmt::format("submit refused: {}", response.error));
  }
  // Delegate a proxy for the job.
  const std::string csr_pem = channel->receive();
  channel->send(gsi::delegate_credential(credential_, csr_pem));
  response = Response::parse(channel->receive());
  if (!response.ok()) {
    throw Error(ErrorCode::kProtocol,
                fmt::format("submit refused: {}", response.error));
  }
  return response.fields.at("JOB_ID");
}

ResourceClient::JobStatus ResourceClient::job_status(
    std::string_view job_id) {
  auto channel = connect();
  channel->send(
      ResourceRequest{"status", {std::string(job_id)}}.serialize());
  const Response response = Response::parse(channel->receive());
  if (!response.ok()) {
    throw Error(ErrorCode::kProtocol,
                fmt::format("status refused: {}", response.error));
  }
  JobStatus status{};
  const std::string& state = response.fields.at("STATE");
  status.state = state == "running"     ? JobState::kRunning
                 : state == "completed" ? JobState::kCompleted
                                        : JobState::kCredentialExpired;
  const auto expires = strings::parse_i64(response.fields.at("CRED_EXPIRES"));
  if (!expires.has_value()) {
    throw ProtocolError("malformed CRED_EXPIRES field");
  }
  status.credential_expires = from_unix(*expires);
  return status;
}

void ResourceClient::store_file(std::string_view name,
                                std::string_view content) {
  auto channel = connect();
  channel->send(ResourceRequest{"store", {std::string(name)}}.serialize());
  Response response = Response::parse(channel->receive());
  if (!response.ok()) {
    throw Error(ErrorCode::kProtocol,
                fmt::format("store refused: {}", response.error));
  }
  channel->send(content);
  response = Response::parse(channel->receive());
  if (!response.ok()) {
    throw Error(ErrorCode::kProtocol,
                fmt::format("store refused: {}", response.error));
  }
}

std::string ResourceClient::fetch_file(std::string_view name) {
  auto channel = connect();
  channel->send(ResourceRequest{"fetch", {std::string(name)}}.serialize());
  const Response response = Response::parse(channel->receive());
  if (!response.ok()) {
    throw Error(ErrorCode::kProtocol,
                fmt::format("fetch refused: {}", response.error));
  }
  return channel->receive();
}

std::string ResourceClient::whoami() {
  auto channel = connect();
  channel->send(ResourceRequest{"whoami", {}}.serialize());
  const Response response = Response::parse(channel->receive());
  if (!response.ok()) {
    throw Error(ErrorCode::kProtocol,
                fmt::format("whoami refused: {}", response.error));
  }
  return response.fields.at("LOCAL_USER");
}

}  // namespace myproxy::grid
