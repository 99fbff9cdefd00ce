// End-to-end replication tests: a real primary and replica myproxy-server
// pair over TCP + mutual TLS, exercising snapshot bootstrap, live journal
// tailing, read-only enforcement with redirect, client failover, and the
// replica's crash-consistency contract around its state file.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include "client/myproxy_client.hpp"
#include "common/error.hpp"
#include "common/format.hpp"
#include "common/logging.hpp"
#include "gsi/gsi_fixtures.hpp"
#include "gsi/proxy.hpp"
#include "net/socket.hpp"
#include "protocol/message.hpp"
#include "replication/replica_session.hpp"
#include "replication/replicated_store.hpp"
#include "server/myproxy_server.hpp"
#include "tls/tls_channel.hpp"

namespace myproxy {
namespace {

using client::MyProxyClient;
using client::PutOptions;
using client::ReplicaRedirect;
using gsi::testing::make_trust_store;
using gsi::testing::make_user;
using gsi::testing::test_ca;
using server::MyProxyServer;
using server::ServerConfig;

constexpr std::string_view kPhrase = "correct horse battery";
constexpr std::string_view kReplicaDn =
    "/C=US/O=Grid/OU=Services/CN=myproxy-replica.grid.test";

gsi::Credential make_service(const std::string& dn_text) {
  const auto dn = pki::DistinguishedName::parse(dn_text);
  auto key = crypto::KeyPair::generate(crypto::KeySpec::ec());
  auto cert = test_ca().issue(dn, key, Seconds(365L * 24 * 3600));
  return gsi::Credential(std::move(cert), std::move(key));
}

ServerConfig base_config() {
  ServerConfig config;
  config.accepted_credentials.add("/C=US/O=Grid/OU=People/*");
  config.authorized_retrievers.add("/C=US/O=Grid/OU=People/*");
  config.authorized_retrievers.add("/C=US/O=Grid/OU=Portals/*");
  config.worker_threads = 2;
  config.keygen_pool_size = 0;  // EC keygen is cheap; keep tests lean
  return config;
}

/// A bare record, written straight into a store (no client round trip).
repository::CredentialRecord make_record(const std::string& username,
                                         const std::string& owner) {
  repository::CredentialRecord record;
  record.username = username;
  record.owner_dn = "/C=US/O=Grid/OU=People/CN=" + owner;
  record.blob = {1, 2, 3, 4, 5};
  record.sealing = repository::Sealing::kPassphrase;
  record.created_at = now();
  record.not_after = now() + Seconds(3600);
  return record;
}

/// Every record of `store`, serialized, sorted.
std::vector<std::string> contents(const repository::CredentialStore& store) {
  std::vector<std::string> out;
  for (const auto& username : store.usernames()) {
    for (const auto& record : store.list(username)) {
      out.push_back(record.serialize());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Poll `done` until it holds or `timeout` passes.
template <typename Predicate>
bool eventually(Predicate&& done, Millis timeout = Millis(10000)) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(Millis(5));
  }
  return true;
}

class ReplicationE2ETest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("myproxy-repl-e2e-" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    start_primary();
  }

  void TearDown() override {
    stop_replica();
    stop_primary();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  void start_primary() {
    journal_ = std::make_shared<replication::ReplicationJournal>(
        dir_ / "journal.log");
    repository::RepositoryPolicy policy;
    policy.kdf_iterations = 100;
    auto repo = std::make_shared<repository::Repository>(
        std::make_unique<replication::ReplicatedStore>(
            std::make_unique<repository::MemoryCredentialStore>(), journal_,
            dir_ / "journal.watermark"),
        policy);

    primary_repo_ = repo;

    ServerConfig config = base_config();
    config.replication_role = replication::ReplicationRole::kPrimary;
    config.journal = journal_;
    config.replica_acl.add(std::string(kReplicaDn));
    config.replication_batch = replication_batch_;
    primary_ = std::make_unique<MyProxyServer>(
        make_service("/C=US/O=Grid/OU=Services/CN=myproxy.grid.test"),
        make_trust_store(), repo, std::move(config));
    primary_->start();
  }

  void start_replica() {
    repository::RepositoryPolicy policy;
    policy.kdf_iterations = 100;
    // A persistent store: the replication_state_file offset is only
    // meaningful alongside store contents that survive a restart.
    auto repo = std::make_shared<repository::Repository>(
        std::make_unique<repository::FileCredentialStore>(
            dir_ / "replica-store"),
        policy);
    replica_repo_ = repo;

    ServerConfig config = base_config();
    config.replication_role = replication::ReplicationRole::kReplica;
    config.replication_primary_port = primary_->port();
    config.replication_state_file = dir_ / "replica.state";
    replica_ = std::make_unique<MyProxyServer>(
        make_service(std::string(kReplicaDn)), make_trust_store(), repo,
        std::move(config));
    replica_->start();
  }

  void stop_primary() {
    if (primary_) primary_->stop();
  }

  /// Replace the (still empty) primary with one shipping `batch` entries
  /// per replication frame.
  void restart_primary_with_batch(std::size_t batch) {
    stop_primary();
    primary_.reset();
    primary_repo_.reset();
    journal_.reset();
    std::filesystem::remove(dir_ / "journal.log");
    std::filesystem::remove(dir_ / "journal.watermark");
    replication_batch_ = batch;
    start_primary();
  }
  void stop_replica() {
    if (replica_) replica_->stop();
  }

  /// Block until the replica has applied the primary journal's tip.
  void wait_for_catchup() {
    ASSERT_NE(replica_->replica_session(), nullptr);
    ASSERT_TRUE(replica_->replica_session()->wait_for_sequence(
        journal_->last_sequence(), Millis(10000)));
  }

  MyProxyClient client_for(const gsi::Credential& credential,
                           std::vector<std::uint16_t> ports) {
    return MyProxyClient(credential, make_trust_store(), std::move(ports));
  }

  void put_credential(const gsi::Credential& user,
                      const std::string& username) {
    const auto proxy = gsi::create_proxy(user);
    auto client = client_for(proxy, {primary_->port()});
    PutOptions options;
    options.stored_lifetime = Seconds(24 * 3600);
    client.put(username, kPhrase, proxy, options);
  }

  std::filesystem::path dir_;
  std::size_t replication_batch_ = ServerConfig{}.replication_batch;
  std::shared_ptr<replication::ReplicationJournal> journal_;
  std::shared_ptr<repository::Repository> primary_repo_;
  std::shared_ptr<repository::Repository> replica_repo_;
  std::unique_ptr<MyProxyServer> primary_;
  std::unique_ptr<MyProxyServer> replica_;
};

TEST_F(ReplicationE2ETest, SnapshotBootstrapServesReadsFromReplica) {
  const auto alice = make_user("repl-alice");
  const auto bob = make_user("repl-bob");
  put_credential(alice, "alice");
  put_credential(bob, "bob");

  start_replica();
  wait_for_catchup();
  EXPECT_EQ(replica_->replica_session()->stats().snapshots_installed.load(),
            1u);
  EXPECT_EQ(replica_repo_->size(), 2u);

  // A portal reads straight from the replica.
  auto portal = client_for(
      make_service("/C=US/O=Grid/OU=Portals/CN=portal-r"),
      {replica_->port()});
  const gsi::Credential delegated = portal.get("alice", kPhrase);
  EXPECT_EQ(delegated.identity(), alice.identity());
  EXPECT_EQ(primary_->stats().repl_snapshots_served.load(), 1u);
}

TEST_F(ReplicationE2ETest, LiveTailAppliesWritesMadeAfterConnect) {
  start_replica();
  const auto alice = make_user("repl-tail-alice");
  put_credential(alice, "alice");
  put_credential(alice, "alice2");
  wait_for_catchup();
  EXPECT_EQ(replica_repo_->size(), 2u);

  auto portal = client_for(
      make_service("/C=US/O=Grid/OU=Portals/CN=portal-t"),
      {replica_->port()});
  EXPECT_EQ(portal.get("alice2", kPhrase).identity(), alice.identity());
}

TEST_F(ReplicationE2ETest, WritesSentToReplicaFollowThePrimaryRedirect) {
  const auto alice = make_user("repl-ro-alice");
  put_credential(alice, "alice");
  start_replica();
  wait_for_catchup();

  // A client that only knows the replica sends a write there; the replica
  // refuses it (read-only) with a redirect naming the primary, and the
  // client follows the hint once — so the write lands on the primary
  // instead of surfacing ReplicaRedirect to the caller. (This used to
  // throw: the redirect port was parsed but never dialled.)
  const auto proxy = gsi::create_proxy(alice);
  auto direct = client_for(proxy, {replica_->port()});
  direct.put("alice", kPhrase, proxy);
  EXPECT_GE(replica_->stats().repl_redirects.load(), 1u);
  EXPECT_EQ(journal_->last_sequence(), 2u);

  direct.destroy("alice");
  EXPECT_GE(replica_->stats().repl_redirects.load(), 2u);
  EXPECT_EQ(journal_->last_sequence(), 3u);

  // The multi-endpoint client routes the same write to the primary even
  // with the replica listed — no redirect round-trip needed.
  auto failover = client_for(proxy, {primary_->port(), replica_->port()});
  failover.put("alice", kPhrase, proxy);
  EXPECT_EQ(journal_->last_sequence(), 4u);
}

TEST_F(ReplicationE2ETest, ReadsFailOverToReplicaWhenPrimaryDies) {
  const auto alice = make_user("repl-fo-alice");
  put_credential(alice, "alice");
  start_replica();
  wait_for_catchup();

  stop_primary();

  auto portal = client_for(
      make_service("/C=US/O=Grid/OU=Portals/CN=portal-fo"),
      {primary_->port(), replica_->port()});
  const gsi::Credential delegated = portal.get("alice", kPhrase);
  EXPECT_EQ(delegated.identity(), alice.identity());
  EXPECT_EQ(portal.info("alice").owner_dn, alice.identity().str());
}

TEST_F(ReplicationE2ETest, ReadsFallBackToPrimaryWhenReplicaDies) {
  const auto alice = make_user("repl-fb-alice");
  put_credential(alice, "alice");
  start_replica();
  wait_for_catchup();
  const auto replica_port = replica_->port();
  stop_replica();
  replica_.reset();

  client::RetryPolicy quick;
  quick.max_attempts = 1;  // dead endpoint: fail fast, move on
  auto portal = MyProxyClient(
      make_service("/C=US/O=Grid/OU=Portals/CN=portal-fb"),
      make_trust_store(), {primary_->port(), replica_port}, quick);
  const gsi::Credential delegated = portal.get("alice", kPhrase);
  EXPECT_EQ(delegated.identity(), alice.identity());
}

TEST_F(ReplicationE2ETest, MissingStateFileForcesFreshSnapshotOnRestart) {
  const auto alice = make_user("repl-crash-alice");
  put_credential(alice, "alice");
  start_replica();
  wait_for_catchup();
  EXPECT_EQ(replica_->replica_session()->stats().snapshots_installed.load(),
            1u);

  // Crash between snapshot install and state persistence: the state file
  // never made it to disk, so the restarted replica must not trust its
  // (possibly partial) local store and bootstraps again.
  stop_replica();
  replica_.reset();
  std::filesystem::remove(dir_ / "replica.state");

  start_replica();
  wait_for_catchup();
  EXPECT_EQ(replica_->replica_session()->stats().snapshots_installed.load(),
            1u);
  EXPECT_EQ(replica_repo_->size(), 1u);
}

TEST_F(ReplicationE2ETest, IntactStateFileResumesTailWithoutSnapshot) {
  const auto alice = make_user("repl-resume-alice");
  put_credential(alice, "alice");
  start_replica();
  wait_for_catchup();
  stop_replica();
  replica_.reset();

  put_credential(alice, "alice2");  // written while the replica was down

  start_replica();
  wait_for_catchup();
  // The persisted offset is still inside the journal, so the replica
  // tailed the missed entries instead of re-bootstrapping.
  EXPECT_EQ(replica_->replica_session()->stats().snapshots_installed.load(),
            0u);
  EXPECT_EQ(replica_repo_->size(), 2u);
}

TEST_F(ReplicationE2ETest, ReplicaResumingFarBehindTheTipCatchesUpRecordForRecord) {
  // A replica resuming at an old sequence is positioned by one scan from
  // the start of the journal file, then tails more than 20 batches of it.
  restart_primary_with_batch(8);
  auto& store = primary_repo_->store_mutable();
  store.put(make_record("early", "seed"));
  start_replica();
  wait_for_catchup();
  stop_replica();
  replica_.reset();
  const std::uint64_t resume_at = journal_->last_sequence();

  for (int i = 0; i < 200; ++i) {
    const std::string username = fmt::format("user-{}", i % 70);
    if (i % 9 == 8) {
      (void)store.remove_all(username);
    } else {
      store.put(make_record(username, fmt::format("owner-{}", i)));
    }
  }
  ASSERT_GE(journal_->last_sequence() - resume_at, 20u * 8u);

  start_replica();
  wait_for_catchup();
  EXPECT_EQ(replica_->replica_session()->stats().snapshots_installed.load(),
            0u);
  EXPECT_EQ(contents(replica_repo_->store()), contents(primary_repo_->store()));
}

TEST_F(ReplicationE2ETest, StatsCommandReportsRolesAndReplicationState) {
  const auto alice = make_user("repl-stats-alice");
  put_credential(alice, "alice");
  start_replica();
  wait_for_catchup();

  auto admin = client_for(
      make_service("/C=US/O=Grid/OU=Portals/CN=portal-admin"),
      {primary_->port()});
  const auto primary_stats = admin.server_stats();
  EXPECT_EQ(primary_stats.at("REPL_ROLE"), "primary");
  EXPECT_EQ(primary_stats.at("REPL_JOURNAL_SEQ"),
            std::to_string(journal_->last_sequence()));
  EXPECT_EQ(primary_stats.at("PUTS"), "1");

  auto admin_replica = client_for(
      make_service("/C=US/O=Grid/OU=Portals/CN=portal-admin"),
      {replica_->port()});
  const auto replica_stats = admin_replica.server_stats();
  EXPECT_EQ(replica_stats.at("REPL_ROLE"), "replica");
  EXPECT_EQ(replica_stats.at("REPL_LAST_APPLIED_SEQ"),
            std::to_string(journal_->last_sequence()));
  EXPECT_EQ(replica_stats.at("REPL_LAG"), "0");
}

TEST_F(ReplicationE2ETest, SnapshotOfManyBatchesUnderRacingWritesMatches) {
  // 50 records at 8 per frame: the copy takes 7 acked batches, and two
  // writers keep putting, overwriting and removing while it runs.
  restart_primary_with_batch(8);
  auto& store = primary_repo_->store_mutable();
  for (int i = 0; i < 50; ++i) {
    store.put(make_record(fmt::format("user-{}", i), "seed"));
  }
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&store, &stop, w] {
      for (int i = 0; !stop.load(); ++i) {
        const std::string username = fmt::format("user-{}", (i * 7 + w) % 60);
        if (i % 5 == 4) {
          (void)store.remove(username, "");
        } else {
          store.put(make_record(username, fmt::format("writer-{}-{}", w, i)));
        }
        std::this_thread::sleep_for(Millis(1));
      }
    });
  }

  start_replica();
  const bool installed = eventually([&] {
    return replica_->replica_session()->stats().snapshots_installed.load() ==
           1;
  });
  std::this_thread::sleep_for(Millis(50));  // the tail runs under load too
  stop.store(true);
  for (auto& writer : writers) writer.join();
  ASSERT_TRUE(installed);

  wait_for_catchup();
  EXPECT_GE(primary_->stats().repl_snapshot_records.load(), 40u);
  EXPECT_EQ(contents(replica_repo_->store()), contents(primary_repo_->store()));
}

TEST_F(ReplicationE2ETest, SnapshotIsBatchesClosedByCopyEndWithoutRecordCount) {
  for (int i = 0; i < 3; ++i) {
    primary_repo_->store_mutable().put(
        make_record(fmt::format("wire-{}", i), "seed"));
  }
  // Speak REPLICA_SYNC by hand, as the replica identity.
  const auto context =
      tls::TlsContext::make(make_service(std::string(kReplicaDn)));
  auto channel = tls::TlsChannel::connect(
      context, net::tcp_connect(primary_->port(), Millis(5000)),
      Millis(5000));
  protocol::Request request;
  request.command = protocol::Command::kReplicaSync;
  request.sequence = 0;
  channel->send(request.serialize());
  const auto response = protocol::Response::parse(channel->receive());
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.fields.at("MODE"), "snapshot");
  EXPECT_EQ(response.fields.at("SNAPSHOT_SEQ"), "3");
  // A replica built for the record-per-frame snapshot reads this field
  // first; its absence fails that replica with a ProtocolError before it
  // touches its store or its state file.
  EXPECT_EQ(response.fields.count("SNAPSHOT_COUNT"), 0u);

  std::uint64_t records = 0;
  std::string frame = channel->receive();
  while (!replication::decode_copy_end(frame).has_value()) {
    const auto batch = replication::decode_batch(frame);
    for (const auto& entry : batch.entries) {
      EXPECT_EQ(entry.sequence, 0u);
      EXPECT_EQ(entry.type, replication::OpType::kPut);
    }
    records += batch.entries.size();
    channel->send(replication::encode_ack(records));
    frame = channel->receive();
  }
  const auto end = replication::decode_copy_end(frame);
  EXPECT_EQ(end->sequence, 3u);
  EXPECT_EQ(end->entries, 3u);
  EXPECT_EQ(records, 3u);
  channel->send(replication::encode_ack(records));
  channel->close();
}

TEST_F(ReplicationE2ETest, RecordPerFrameSnapshotFailsWithoutAdvancingState) {
  // A primary from before the batched snapshot: MODE=snapshot with
  // SNAPSHOT_COUNT, then one bare record per frame.
  std::optional<net::TcpListener> listener(net::TcpListener::bind(0));
  const std::uint16_t port = listener->port();
  const auto old_primary_credential =
      make_service("/C=US/O=Grid/OU=Services/CN=old-primary.grid.test");
  std::thread old_primary([&] {
    const auto context = tls::TlsContext::make(old_primary_credential);
    auto channel =
        tls::TlsChannel::accept(context, listener->accept(), Millis(5000));
    (void)protocol::Request::parse(channel->receive());
    protocol::Response response;
    response.fields["MODE"] = "snapshot";
    response.fields["SNAPSHOT_COUNT"] = "1";
    response.fields["SNAPSHOT_SEQ"] = "7";
    channel->send(response.serialize());
    channel->send(make_record("alice", "alice").serialize());
    try {
      (void)channel->receive();  // returns when the replica hangs up
    } catch (const Error&) {
    }
    listener.reset();  // later dials are refused
  });

  std::ostringstream log_text;
  log::Logger::instance().set_sink(&log_text);
  replication::ReplicaConfig config;
  config.primary_port = port;
  config.state_file = dir_ / "old-primary.state";
  config.reconnect_backoff = Millis(50);
  repository::MemoryCredentialStore store;
  replication::ReplicaSession session(make_service(std::string(kReplicaDn)),
                                      make_trust_store(), store, config);
  session.start();
  old_primary.join();
  EXPECT_TRUE(eventually(
      [&] { return session.stats().reconnects.load() >= 1; }));
  session.stop();
  log::Logger::instance().set_sink(nullptr);

  EXPECT_NE(log_text.str().find("bad replication batch header"),
            std::string::npos)
      << log_text.str();
  EXPECT_EQ(session.stats().snapshots_installed.load(), 0u);
  EXPECT_EQ(session.stats().last_applied_sequence.load(), 0u);
  EXPECT_FALSE(std::filesystem::exists(config.state_file));
  EXPECT_EQ(store.size(), 0u);
}

TEST_F(ReplicationE2ETest, ChecksumlessEntryLinesFailWithoutAdvancingState) {
  // A primary from before BATCH entry lines carried the journal checksum:
  // it tails the replica with "E <seq> <type> <base64>" lines.
  std::optional<net::TcpListener> listener(net::TcpListener::bind(0));
  const std::uint16_t port = listener->port();
  const auto old_primary_credential =
      make_service("/C=US/O=Grid/OU=Services/CN=old-primary.grid.test");
  std::thread old_primary([&] {
    const auto context = tls::TlsContext::make(old_primary_credential);
    auto channel =
        tls::TlsChannel::accept(context, listener->accept(), Millis(5000));
    (void)protocol::Request::parse(channel->receive());
    protocol::Response response;
    response.fields["MODE"] = "tail";
    channel->send(response.serialize());
    channel->send("BATCH 6 1\nE 6 3 Ym9i\n");  // remove_all "bob"
    try {
      (void)channel->receive();  // returns when the replica hangs up
    } catch (const Error&) {
    }
    listener.reset();  // later dials are refused
  });

  std::ostringstream log_text;
  log::Logger::instance().set_sink(&log_text);
  replication::ReplicaConfig config;
  config.primary_port = port;
  config.state_file = dir_ / "old-primary.state";
  config.reconnect_backoff = Millis(50);
  ASSERT_TRUE(replication::write_sequence_file(config.state_file, 5).empty());
  repository::MemoryCredentialStore store;
  store.put(make_record("bob", "bob"));
  replication::ReplicaSession session(make_service(std::string(kReplicaDn)),
                                      make_trust_store(), store, config);
  session.start();
  old_primary.join();
  EXPECT_TRUE(eventually(
      [&] { return session.stats().reconnects.load() >= 1; }));
  session.stop();
  log::Logger::instance().set_sink(nullptr);

  EXPECT_NE(log_text.str().find("fails its checksum"), std::string::npos)
      << log_text.str();
  EXPECT_EQ(session.stats().ops_applied.load(), 0u);
  EXPECT_EQ(session.stats().last_applied_sequence.load(), 5u);
  EXPECT_EQ(replication::read_sequence_file(config.state_file), 5u);
  EXPECT_EQ(store.size(), 1u);
}

TEST_F(ReplicationE2ETest, ReplicaStreamLifetimeIsNotChargedAsOpLatency) {
  const auto alice = make_user("repl-hist-alice");
  put_credential(alice, "alice");
  start_replica();
  wait_for_catchup();
  stop_replica();
  replica_.reset();
  ASSERT_TRUE(eventually(
      [&] { return primary_->stats().repl_replicas_connected.load() == 0; }));
  stop_primary();  // every dispatch has returned

  const auto charged = [this](protocol::Command command) {
    return primary_->stats()
        .op_latency[static_cast<std::size_t>(command)]
        .snapshot()
        .total;
  };
  EXPECT_EQ(charged(protocol::Command::kReplicaSync), 0u);
  EXPECT_EQ(charged(protocol::Command::kPut), 1u);
}

TEST_F(ReplicationE2ETest, UnwritableStateFileWarnsAndKeepsTailing) {
  // rename() cannot replace a non-empty directory with the state file.
  std::filesystem::create_directories(dir_ / "replica.state");
  std::ofstream(dir_ / "replica.state" / "occupied") << "x\n";
  const auto alice = make_user("repl-state-alice");
  put_credential(alice, "alice");
  const auto warnings_before = log::Logger::instance().warning_count();

  start_replica();
  wait_for_catchup();
  EXPECT_TRUE(eventually([&] {
    return log::Logger::instance().warning_count() > warnings_before;
  }));

  put_credential(alice, "alice2");
  wait_for_catchup();
  EXPECT_EQ(replica_repo_->size(), 2u);
  EXPECT_TRUE(replica_->replica_session()->stats().connected.load());
  EXPECT_EQ(replica_->replica_session()->stats().reconnects.load(), 0u);
}

TEST_F(ReplicationE2ETest, AuditLogFileRecordsReplicationEventsAsJson) {
  ServerConfig config = base_config();
  // Cheap sanity check of the JSONL sink using a standalone server; the
  // replication events ride the same AuditLog::record path.
  const auto audit_path = dir_ / "audit.jsonl";
  config.audit_log_file = audit_path;
  auto repo = std::make_shared<repository::Repository>(
      std::make_unique<repository::MemoryCredentialStore>(),
      repository::RepositoryPolicy{});
  MyProxyServer server(
      make_service("/C=US/O=Grid/OU=Services/CN=audit.grid.test"),
      make_trust_store(), repo, std::move(config));
  server.start();
  const auto alice = make_user("repl-audit-alice");
  const auto proxy = gsi::create_proxy(alice);
  auto client = client_for(proxy, {server.port()});
  PutOptions options;
  options.stored_lifetime = Seconds(3600);
  client.put("alice", "a much longer phrase", proxy, options);
  server.stop();

  std::ifstream in(audit_path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  bool saw_put = false;
  while (std::getline(in, line)) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    if (line.find("\"command\":\"PUT\"") != std::string::npos &&
        line.find("\"outcome\":\"success\"") != std::string::npos) {
      saw_put = true;
    }
  }
  EXPECT_TRUE(saw_put);
}

}  // namespace
}  // namespace myproxy
