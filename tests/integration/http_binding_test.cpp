// §6.4 HTTP protocol binding: the full retrieval flow in one mutually-
// authenticated round trip on the server's native port, through the same
// policy stack as the native protocol — admission, replica read-only,
// cluster ownership, the migration fence, audit, metrics and deadlines.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <future>
#include <thread>

#include "client/myproxy_client.hpp"
#include "cluster/cluster_map.hpp"
#include "common/error.hpp"
#include "gsi/gsi_fixtures.hpp"
#include "gsi/proxy.hpp"
#include "portal/http.hpp"
#include "replication/replicated_store.hpp"
#include "replication/wire.hpp"
#include "repository/otp.hpp"
#include "server/myproxy_server.hpp"

namespace myproxy {
namespace {

using gsi::testing::make_trust_store;
using gsi::testing::make_user;
using gsi::testing::test_ca;

constexpr std::string_view kPhrase = "correct horse battery";
constexpr std::string_view kOtpSeed = "http otp seed";

gsi::Credential issue(const std::string& dn_text) {
  const auto dn = pki::DistinguishedName::parse(dn_text);
  auto key = crypto::KeyPair::generate(crypto::KeySpec::ec());
  auto cert = test_ca().issue(dn, key, Seconds(365L * 24 * 3600));
  return gsi::Credential(std::move(cert), std::move(key));
}

gsi::Credential make_service(const std::string& cn) {
  return issue("/C=US/O=Grid/OU=Services/CN=" + cn);
}

/// Minimal HTTP-over-mutual-TLS client: one framed request, one reply.
portal::HttpResponse post(const gsi::Credential& client_cred,
                          std::uint16_t port, const std::string& target,
                          const std::map<std::string, std::string>& fields) {
  const tls::TlsContext ctx = tls::TlsContext::make(client_cred);
  auto channel = tls::TlsChannel::connect(ctx, net::tcp_connect(port));
  portal::HttpRequest request;
  request.method = "POST";
  request.target = target;
  request.version = "HTTP/1.1";
  request.headers["content-type"] = "application/x-www-form-urlencoded";
  std::string body;
  for (const auto& [key, value] : fields) {
    if (!body.empty()) body += '&';
    body += portal::url_encode(key) + "=" + portal::url_encode(value);
  }
  request.body = body;
  channel->send(request.serialize());
  return portal::parse_response(channel->receive());
}

repository::RepositoryPolicy test_policy() {
  repository::RepositoryPolicy policy;
  policy.kdf_iterations = 100;
  return policy;
}

server::ServerConfig http_config() {
  server::ServerConfig config;
  config.authorized_retrievers.add("/C=US/O=Grid/OU=Portals/*");
  config.authorized_retrievers.add("/C=US/O=Grid/OU=People/*");
  config.worker_threads = 4;
  config.keygen_pool_size = 0;
  return config;
}

/// Store `owner`'s 24 h proxy as "alice": pass-phrase sealed, or an OTP
/// chain of ten words seeded from kOtpSeed.
void store_alice(repository::Repository& repo, const gsi::Credential& owner,
                 bool otp = false) {
  gsi::ProxyOptions options;
  options.lifetime = Seconds(24 * 3600);
  const auto proxy = gsi::create_proxy(owner, options);
  repository::StoreOptions store_options;
  if (otp) store_options.otp_words = 10;
  repo.store("alice", otp ? kOtpSeed : kPhrase, owner.identity().str(),
             proxy, store_options);
}

/// Scratch directory for journals and audit files, removed afterwards.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag)
      : path_(std::filesystem::temp_directory_path() /
              ("myproxy-http-" + tag + "-" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  [[nodiscard]] const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

class HttpBindingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    alice_ = std::make_unique<gsi::Credential>(make_user("http-alice"));
    portal_ = std::make_unique<gsi::Credential>(
        issue("/C=US/O=Grid/OU=Portals/CN=http-portal"));
    start(http_config());
  }

  void TearDown() override { server_->stop(); }

  /// (Re)start the server under `config` with alice's credential stored.
  void start(server::ServerConfig config,
             repository::RepositoryPolicy policy = test_policy()) {
    if (server_ != nullptr) server_->stop();
    repo_ = std::make_shared<repository::Repository>(
        std::make_unique<repository::MemoryCredentialStore>(), policy);
    store_alice(*repo_, *alice_);
    server_ = std::make_unique<server::MyProxyServer>(
        make_service("http-myproxy"), make_trust_store(), repo_,
        std::move(config));
    server_->start();
  }

  /// POST /get for alice with a fresh CSR; `fields` override the defaults.
  portal::HttpResponse get_alice(std::map<std::string, std::string> fields =
                                     {}) {
    fields.try_emplace("username", "alice");
    fields.try_emplace("passphrase", std::string(kPhrase));
    fields.try_emplace("csr", gsi::begin_delegation().csr_pem);
    return post(*portal_, server_->port(), "/get", fields);
  }

  std::shared_ptr<repository::Repository> repo_;
  std::unique_ptr<server::MyProxyServer> server_;
  std::unique_ptr<gsi::Credential> alice_;
  std::unique_ptr<gsi::Credential> portal_;
};

TEST_F(HttpBindingTest, GetInOneRoundTrip) {
  gsi::DelegationRequest delegation = gsi::begin_delegation();
  const auto response = post(*portal_, server_->port(), "/get",
                             {{"username", "alice"},
                              {"passphrase", std::string(kPhrase)},
                              {"lifetime", "3600"},
                              {"csr", delegation.csr_pem}});
  ASSERT_EQ(response.status, 200) << response.body;
  const gsi::Credential delegated =
      gsi::complete_delegation(std::move(delegation.key), response.body);
  EXPECT_EQ(delegated.identity(), alice_->identity());
  EXPECT_LE(delegated.remaining_lifetime(), Seconds(3600));
  EXPECT_NO_THROW((void)make_trust_store().verify(delegated.full_chain()));
}

TEST_F(HttpBindingTest, WrongPassphraseIs401) {
  gsi::DelegationRequest delegation = gsi::begin_delegation();
  const auto response = post(*portal_, server_->port(), "/get",
                             {{"username", "alice"},
                              {"passphrase", "wrong"},
                              {"csr", delegation.csr_pem}});
  EXPECT_EQ(response.status, 401);
}

TEST_F(HttpBindingTest, UnknownUserIs404) {
  gsi::DelegationRequest delegation = gsi::begin_delegation();
  const auto response = post(*portal_, server_->port(), "/get",
                             {{"username", "ghost"},
                              {"passphrase", std::string(kPhrase)},
                              {"csr", delegation.csr_pem}});
  EXPECT_EQ(response.status, 404);
}

TEST_F(HttpBindingTest, UnauthorizedRetrieverIs403) {
  const auto outsider = make_service("http-outsider");
  gsi::DelegationRequest delegation = gsi::begin_delegation();
  const auto response = post(outsider, server_->port(), "/get",
                             {{"username", "alice"},
                              {"passphrase", std::string(kPhrase)},
                              {"csr", delegation.csr_pem}});
  EXPECT_EQ(response.status, 403);
}

TEST_F(HttpBindingTest, OutsiderGets403ForPresentAndMissingUsers) {
  // The retriever ACL refuses before the store is read, so the status does
  // not reveal whether the username exists.
  const auto outsider = make_service("http-prober");
  for (const std::string username : {"alice", "ghost"}) {
    const auto response =
        post(outsider, server_->port(), "/get",
             {{"username", username},
              {"passphrase", std::string(kPhrase)},
              {"csr", gsi::begin_delegation().csr_pem}});
    EXPECT_EQ(response.status, 403) << username;
  }
  EXPECT_EQ(server_->stats().authz_failures.load(), 2u);
}

TEST_F(HttpBindingTest, MissingFieldsIs422) {
  const auto response = post(*portal_, server_->port(), "/get",
                             {{"username", "alice"}});
  EXPECT_EQ(response.status, 422);
}

TEST_F(HttpBindingTest, InfoEndpoint) {
  const auto response =
      post(*portal_, server_->port(), "/info", {{"username", "alice"}});
  ASSERT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("owner: " + alice_->identity().str()),
            std::string::npos);
  EXPECT_NE(response.body.find("sealing: passphrase"), std::string::npos);
}

TEST_F(HttpBindingTest, DestroyRequiresOwnership) {
  auto destroy_by_portal = post(*portal_, server_->port(), "/destroy",
                                {{"username", "alice"}});
  EXPECT_EQ(destroy_by_portal.status, 403);
  EXPECT_EQ(repo_->size(), 1u);

  const auto alice_proxy = gsi::create_proxy(*alice_);
  const auto destroy_by_owner = post(alice_proxy, server_->port(),
                                     "/destroy", {{"username", "alice"}});
  EXPECT_EQ(destroy_by_owner.status, 200);
  EXPECT_EQ(repo_->size(), 0u);
}

TEST_F(HttpBindingTest, UnknownEndpointAndMethod) {
  EXPECT_EQ(post(*portal_, server_->port(), "/nope", {}).status, 404);
  // GET method refused.
  const tls::TlsContext ctx = tls::TlsContext::make(*portal_);
  auto channel =
      tls::TlsChannel::connect(ctx, net::tcp_connect(server_->port()));
  portal::HttpRequest request;
  request.method = "GET";
  request.target = "/get";
  request.version = "HTTP/1.1";
  channel->send(request.serialize());
  EXPECT_EQ(portal::parse_response(channel->receive()).status, 405);
}

// --- Codec selection ---------------------------------------------------------

TEST_F(HttpBindingTest, UntrustedClientGetsHttp401) {
  // Authentication: the codec is picked from the first message before the
  // peer is authenticated, so even the refusal is HTTP.
  auto rogue_ca = pki::CertificateAuthority::create(
      pki::DistinguishedName::parse("/C=US/O=Rogue/CN=Rogue CA"),
      crypto::KeySpec::ec());
  auto key = crypto::KeyPair::generate(crypto::KeySpec::ec());
  auto cert = rogue_ca.issue(
      pki::DistinguishedName::parse("/C=US/O=Grid/OU=Portals/CN=rogue"), key,
      Seconds(3600));
  const gsi::Credential rogue(std::move(cert), std::move(key));
  const auto response =
      post(rogue, server_->port(), "/info", {{"username", "alice"}});
  EXPECT_EQ(response.status, 401) << response.body;
  EXPECT_GE(server_->stats().auth_failures.load(), 1u);
}

TEST_F(HttpBindingTest, MalformedRequestLineIs400) {
  const tls::TlsContext ctx = tls::TlsContext::make(*portal_);
  auto channel =
      tls::TlsChannel::connect(ctx, net::tcp_connect(server_->port()));
  channel->send("POST /get\r\n\r\n");
  EXPECT_EQ(portal::parse_response(channel->receive()).status, 400);
}

// --- The shared policy stack --------------------------------------------------

TEST_F(HttpBindingTest, ZeroLifetimeYieldsPolicyDefault) {
  // Delegation lifetime policy: lifetime=0 asks for the default, exactly
  // like LIFETIME=0 on the native protocol — not a zero-lifetime proxy.
  repository::RepositoryPolicy policy = test_policy();
  policy.default_delegation_lifetime = Seconds(2 * 3600);
  start(http_config(), policy);
  gsi::DelegationRequest delegation = gsi::begin_delegation();
  const auto response = get_alice({{"lifetime", "0"},
                                   {"csr", delegation.csr_pem}});
  ASSERT_EQ(response.status, 200) << response.body;
  const gsi::Credential delegated =
      gsi::complete_delegation(std::move(delegation.key), response.body);
  EXPECT_LE(delegated.remaining_lifetime(), Seconds(2 * 3600));
  EXPECT_GT(delegated.remaining_lifetime(), Seconds(2 * 3600 - 600));
  EXPECT_EQ(get_alice({{"lifetime", "-5"}}).status, 422);
  EXPECT_EQ(get_alice({{"lifetime", "12abc"}}).status, 422);
}

TEST_F(HttpBindingTest, RateLimitedDnGets503WithRetryAfter) {
  // Per-identity admission: one token per two seconds, so the second GET
  // right behind the first is shed before any handler runs.
  server::ServerConfig config = http_config();
  config.admission.rate_limit_rps = 0.5;
  config.admission.rate_limit_burst = 1.0;
  start(config);
  ASSERT_EQ(get_alice().status, 200);
  const auto shed = get_alice();
  EXPECT_EQ(shed.status, 503) << shed.body;
  const auto retry_after = shed.headers.find("retry-after");
  ASSERT_NE(retry_after, shed.headers.end());
  EXPECT_GE(std::stoi(retry_after->second), 1);
  EXPECT_GE(server_->admission().counters().shed_rate, 1u);
  EXPECT_EQ(server_->stats().gets.load(), 1u);
}

TEST_F(HttpBindingTest, OtherShardIs421NamingThePrimary) {
  // Cluster ownership: a user whose shard another node owns is refused
  // with that node's primary port, before any lookup.
  constexpr std::uint16_t kOtherNode = 1;
  const auto map = cluster::ClusterMap::balanced(
      {{server_->port(), {}}, {kOtherNode, {}}}, 8, 1);
  server_->set_cluster(map, server_->port());
  std::string foreign;
  for (int i = 0; foreign.empty(); ++i) {
    const std::string candidate = "user-" + std::to_string(i);
    if (map.owns(kOtherNode, map.shard_of(candidate))) foreign = candidate;
  }
  const auto response = get_alice({{"username", foreign}});
  EXPECT_EQ(response.status, 421) << response.body;
  EXPECT_NE(response.body.find("primary: " + std::to_string(kOtherNode)),
            std::string::npos)
      << response.body;
  EXPECT_GE(server_->stats().cluster_wrong_shard.load(), 1u);
}

TEST_F(HttpBindingTest, GetIsAuditedAndTimed) {
  // Audit and metrics: an HTTP GET is one more GET to the detection story
  // (§5.1) and to the per-op latency histogram.
  ScratchDir dir("audit");
  server::ServerConfig config = http_config();
  config.audit_log_file = dir.path() / "audit.jsonl";
  start(config);
  ASSERT_EQ(get_alice().status, 200);
  server_->stop();

  std::ifstream in(dir.path() / "audit.jsonl");
  std::string line;
  bool audited = false;
  while (std::getline(in, line)) {
    audited |= line.find("\"command\":\"GET\"") != std::string::npos &&
               line.find("\"user\":\"alice\"") != std::string::npos &&
               line.find("\"outcome\":\"success\"") != std::string::npos;
  }
  EXPECT_TRUE(audited) << "no successful GET in the audit JSONL";
  EXPECT_NE(server_->render_metrics().find(
                "myproxy_op_latency_us_count{op=\"GET\"} 1\n"),
            std::string::npos);
  EXPECT_EQ(server_->stats().gets.load(), 1u);
}

TEST_F(HttpBindingTest, SilentConnectIsReapedByHandshakeTimeout) {
  // Handshake deadline: the HTTP binding's port is the reactor's, so a
  // client that connects and never speaks TLS is closed on the timer.
  server::ServerConfig config = http_config();
  config.handshake_timeout = Millis(200);
  start(config);
  net::Socket silent = net::tcp_connect(server_->port());
  for (int i = 0; i < 100 && server_->stats().timeouts.load() == 0; ++i) {
    std::this_thread::sleep_for(Millis(20));
  }
  EXPECT_GE(server_->stats().timeouts.load(), 1u);
  EXPECT_EQ(get_alice().status, 200);
  silent.close();
}

// --- Replica read-only ---------------------------------------------------------

TEST(HttpBindingReplica, DestroyOnReplicaIs421AndRecordSurvives) {
  ScratchDir dir("replica");
  const auto alice = make_user("http-replica-alice");
  auto journal = std::make_shared<replication::ReplicationJournal>(
      dir.path() / "journal.log");
  auto primary_repo = std::make_shared<repository::Repository>(
      std::make_unique<replication::ReplicatedStore>(
          std::make_unique<repository::MemoryCredentialStore>(), journal,
          dir.path() / "journal.watermark"),
      test_policy());
  server::ServerConfig primary_config = http_config();
  primary_config.replication_role = replication::ReplicationRole::kPrimary;
  primary_config.journal = journal;
  primary_config.replica_acl.add(
      "/C=US/O=Grid/OU=Services/CN=http-replica");
  server::MyProxyServer primary(make_service("http-primary"),
                                make_trust_store(), primary_repo,
                                primary_config);
  primary.start();
  store_alice(*primary_repo, alice);

  auto replica_repo = std::make_shared<repository::Repository>(
      std::make_unique<repository::MemoryCredentialStore>(), test_policy());
  server::ServerConfig replica_config = http_config();
  replica_config.replication_role = replication::ReplicationRole::kReplica;
  replica_config.replication_primary_port = primary.port();
  replica_config.replication_state_file = dir.path() / "replica.state";
  server::MyProxyServer replica(make_service("http-replica"),
                                make_trust_store(), replica_repo,
                                replica_config);
  replica.start();
  ASSERT_TRUE(replica.replica_session()->wait_for_sequence(
      journal->last_sequence(), Millis(10000)));
  ASSERT_EQ(replica_repo->size(), 1u);

  // Replica read-only: the owner's destroy is redirected to the primary.
  const auto response = post(gsi::create_proxy(alice), replica.port(),
                             "/destroy", {{"username", "alice"}});
  EXPECT_EQ(response.status, 421) << response.body;
  EXPECT_NE(response.body.find("primary: " + std::to_string(primary.port())),
            std::string::npos)
      << response.body;
  EXPECT_EQ(replica_repo->size(), 1u);
  EXPECT_EQ(primary_repo->size(), 1u);
  EXPECT_GE(replica.stats().repl_redirects.load(), 1u);
  replica.stop();
  primary.stop();
}

// --- Migration fence -----------------------------------------------------------

TEST(HttpBindingFence, OtpGetDuringCutoverIs503AndChainHolds) {
  // Migration fence: verifying an OTP word advances the chain, a store
  // write, so an otp=1 GET for a shard in final cutover is refused with a
  // busy hint and must leave the chain where it was.
  ScratchDir dir("fence");
  const auto alice = make_user("http-fence-alice");
  const auto portal = issue("/C=US/O=Grid/OU=Portals/CN=http-fence-portal");
  const auto admin = issue("/C=US/O=Grid/OU=Portals/CN=http-fence-admin");
  auto journal = std::make_shared<replication::ReplicationJournal>(
      dir.path() / "journal.log");
  auto repo = std::make_shared<repository::Repository>(
      std::make_unique<replication::ReplicatedStore>(
          std::make_unique<repository::MemoryCredentialStore>(), journal,
          dir.path() / "journal.watermark"),
      test_policy());
  server::ServerConfig config = http_config();
  config.replication_role = replication::ReplicationRole::kPrimary;
  config.journal = journal;
  config.cluster_admin_acl.add(admin.identity().str());
  // The source ships a shard only to a target inside cluster_admin_acl.
  const auto target_credential = make_service("http-fence-target");
  config.cluster_admin_acl.add(target_credential.identity().str());
  server::MyProxyServer server(make_service("http-fence-myproxy"),
                               make_trust_store(), repo, config);
  server.start();
  store_alice(*repo, alice, /*otp=*/true);
  const auto map =
      cluster::ClusterMap::balanced({{server.port(), {}}}, 8, 1);
  server.set_cluster(map, server.port());

  // Stand-in migration target: acks the bulk copy, then sits on COMMIT —
  // holding the source's write fence — until the test releases it and the
  // refused commit unwinds the migration.
  net::TcpListener target_listener = net::TcpListener::bind(0);
  std::promise<void> commit_seen;
  std::promise<void> release;
  std::thread target([&] {
    const tls::TlsContext ctx = tls::TlsContext::make(target_credential);
    auto channel = tls::TlsChannel::accept(ctx, target_listener.accept());
    (void)channel->receive();  // MIGRATE_INSTALL
    channel->send(protocol::Response::make_ok().serialize());
    while (!channel->receive().starts_with("COMMIT")) {
      channel->send(replication::encode_ack(0));
    }
    commit_seen.set_value();
    release.get_future().wait();
    channel->send(
        protocol::Response::make_error("commit withheld").serialize());
  });
  std::thread migrate([&] {
    client::RetryPolicy once;
    once.max_attempts = 1;
    client::MyProxyClient client(admin, make_trust_store(), server.port(),
                                 once);
    EXPECT_THROW((void)client.cluster_migrate(map.shard_of("alice"),
                                              target_listener.port()),
                 Error);
  });

  auto fenced = commit_seen.get_future();
  ASSERT_EQ(fenced.wait_for(std::chrono::seconds(20)),
            std::future_status::ready);
  const std::uint32_t remaining = repo->record("alice")->otp->remaining;
  const std::string word =
      repository::otp_word(kOtpSeed, remaining - 1);
  const auto get_with_word = [&] {
    return post(portal, server.port(), "/get",
                {{"username", "alice"},
                 {"passphrase", word},
                 {"otp", "1"},
                 {"csr", gsi::begin_delegation().csr_pem}});
  };
  const auto refused = get_with_word();
  EXPECT_EQ(refused.status, 503) << refused.body;
  EXPECT_TRUE(refused.headers.contains("retry-after"));
  EXPECT_EQ(repo->record("alice")->otp->remaining, remaining);
  EXPECT_GE(server.stats().cluster_fenced_writes.load(), 1u);

  release.set_value();
  migrate.join();
  target.join();
  // Fence lifted: the very same word is still good, and now spends.
  const auto served = get_with_word();
  EXPECT_EQ(served.status, 200) << served.body;
  EXPECT_EQ(repo->record("alice")->otp->remaining, remaining - 1);
  server.stop();
}

}  // namespace
}  // namespace myproxy
