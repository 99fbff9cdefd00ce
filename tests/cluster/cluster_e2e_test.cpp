// End-to-end cluster tests: several real myproxy-server primaries over
// TCP + mutual TLS partitioned by a shared ClusterMap, exercising
// client-side shard routing, WRONG_SHARD recovery for stale clients,
// kill-one-primary failover to that shard's replica, online shard
// migration (bulk copy + journal tail + fenced cutover) with and without
// concurrent writers, and the bounded redirect hop budget.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include "client/myproxy_client.hpp"
#include "common/format.hpp"
#include "cluster/cluster_map.hpp"
#include "common/error.hpp"
#include "gsi/gsi_fixtures.hpp"
#include "gsi/proxy.hpp"
#include "replication/replicated_store.hpp"
#include "server/myproxy_server.hpp"

namespace myproxy {
namespace {

using client::MyProxyClient;
using client::PutOptions;
using client::RedirectLoop;
using cluster::ClusterMap;
using cluster::ShardNode;
using gsi::testing::make_trust_store;
using gsi::testing::make_user;
using gsi::testing::test_ca;
using server::MyProxyServer;
using server::ServerConfig;

constexpr std::string_view kPhrase = "correct horse battery";
constexpr std::uint32_t kShardSlots = 8;

gsi::Credential make_service(const std::string& dn_text) {
  const auto dn = pki::DistinguishedName::parse(dn_text);
  auto key = crypto::KeyPair::generate(crypto::KeySpec::ec());
  auto cert = test_ca().issue(dn, key, Seconds(365L * 24 * 3600));
  return gsi::Credential(std::move(cert), std::move(key));
}

class ClusterE2ETest : public ::testing::Test {
 protected:
  struct Node {
    std::shared_ptr<replication::ReplicationJournal> journal;
    std::shared_ptr<repository::Repository> repo;
    std::unique_ptr<MyProxyServer> server;

    [[nodiscard]] std::uint16_t port() const { return server->port(); }
  };

  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("myproxy-cluster-e2e-" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }

  void TearDown() override {
    if (replica_) replica_->stop();
    for (auto& node : nodes_) {
      if (node.server) node.server->stop();
    }
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  ServerConfig base_config() {
    ServerConfig config;
    config.accepted_credentials.add("/C=US/O=Grid/OU=People/*");
    config.authorized_retrievers.add("/C=US/O=Grid/OU=People/*");
    config.authorized_retrievers.add("/C=US/O=Grid/OU=Portals/*");
    // MIGRATE_INSTALL arrives authenticated as the source server's host
    // credential; MIGRATE itself comes from the operator.
    config.cluster_admin_acl.add("/C=US/O=Grid/OU=Services/*");
    config.cluster_admin_acl.add("/C=US/O=Grid/OU=Portals/CN=cluster-admin");
    config.worker_threads = 2;
    config.keygen_pool_size = 0;  // EC keygen is cheap; keep tests lean
    return config;
  }

  /// One clustered primary: journaling store (migration replays through the
  /// journal) on an in-memory backing store.
  Node& start_primary(int index) {
    Node node;
    node.journal = std::make_shared<replication::ReplicationJournal>(
        dir_ / fmt::format("journal-{}.log", index));
    repository::RepositoryPolicy policy;
    policy.kdf_iterations = 100;
    node.repo = std::make_shared<repository::Repository>(
        std::make_unique<replication::ReplicatedStore>(
            std::make_unique<repository::MemoryCredentialStore>(),
            node.journal, dir_ / fmt::format("journal-{}.watermark", index)),
        policy);
    ServerConfig config = base_config();
    config.replication_role = replication::ReplicationRole::kPrimary;
    config.journal = node.journal;
    config.replica_acl.add("/C=US/O=Grid/OU=Services/*");
    node.server = std::make_unique<MyProxyServer>(
        make_service(fmt::format(
            "/C=US/O=Grid/OU=Services/CN=myproxy-{}.grid.test", index)),
        make_trust_store(), node.repo, std::move(config));
    node.server->start();
    nodes_.push_back(std::move(node));
    return nodes_.back();
  }

  /// Build `count` primaries, derive the balanced map over their (ephemeral)
  /// ports, and install it on every node.
  void start_cluster(int count) {
    for (int i = 0; i < count; ++i) start_primary(i);
    std::vector<ShardNode> members;
    members.reserve(nodes_.size());
    for (const auto& node : nodes_) members.push_back({node.port(), {}});
    map_ = ClusterMap::balanced(members, kShardSlots, 1);
    for (const auto& node : nodes_) {
      node.server->set_cluster(map_, node.port());
    }
  }

  /// Attach a replica to `primary` and teach it the map (a replica answers
  /// reads for the shards of the node it replicates: cluster_self is its
  /// primary's port). Re-installs the updated map on every primary so read
  /// routing knows the replica.
  void attach_replica(Node& primary) {
    repository::RepositoryPolicy policy;
    policy.kdf_iterations = 100;
    replica_repo_ = std::make_shared<repository::Repository>(
        std::make_unique<repository::MemoryCredentialStore>(), policy);
    ServerConfig config = base_config();
    config.replication_role = replication::ReplicationRole::kReplica;
    config.replication_primary_port = primary.port();
    config.replication_state_file = dir_ / "replica.state";
    replica_ = std::make_unique<MyProxyServer>(
        make_service("/C=US/O=Grid/OU=Services/CN=myproxy-replica.grid.test"),
        make_trust_store(), replica_repo_, std::move(config));
    replica_->start();

    std::vector<ShardNode> members;
    for (const auto& node : nodes_) {
      ShardNode member{node.port(), {}};
      if (node.port() == primary.port()) {
        member.replicas.push_back(replica_->port());
      }
      members.push_back(member);
    }
    map_ = ClusterMap::balanced(members, kShardSlots, 1);
    for (const auto& node : nodes_) {
      node.server->set_cluster(map_, node.port());
    }
    replica_->set_cluster(map_, primary.port());
  }

  void wait_for_replica_catchup(const Node& primary) {
    ASSERT_NE(replica_->replica_session(), nullptr);
    ASSERT_TRUE(replica_->replica_session()->wait_for_sequence(
        primary.journal->last_sequence(), Millis(10000)));
  }

  /// A client that routes by the cluster map across every primary.
  MyProxyClient routed_client(const gsi::Credential& credential) {
    std::vector<std::uint16_t> ports;
    for (const auto& node : nodes_) ports.push_back(node.port());
    MyProxyClient client(credential, make_trust_store(), std::move(ports));
    client.set_cluster_map(map_);
    return client;
  }

  void put_credential(MyProxyClient& client, const gsi::Credential& user,
                      const std::string& username,
                      const std::string& credential_name = {}) {
    const auto proxy = gsi::create_proxy(user);
    MyProxyClient writer(proxy, make_trust_store(), client.ports());
    if (client.cluster_map().has_value()) {
      writer.set_cluster_map(*client.cluster_map());
    }
    PutOptions options;
    options.stored_lifetime = Seconds(24 * 3600);
    options.credential_name = credential_name;
    writer.put(username, kPhrase, proxy, options);
  }

  /// First username with the given prefix living on `primary`.
  std::string username_owned_by(std::uint16_t primary,
                                const std::string& prefix) {
    for (int i = 0; i < 100000; ++i) {
      std::string name = fmt::format("{}-{}", prefix, i);
      if (map_.owner(name).primary == primary) return name;
    }
    throw std::logic_error("no username hashed onto the target primary");
  }

  /// First username with the given prefix hashing into `shard`.
  std::string username_in_shard(std::uint32_t shard,
                                const std::string& prefix) {
    for (int i = 0; i < 100000; ++i) {
      std::string name = fmt::format("{}-{}", prefix, i);
      if (map_.shard_of(name) == shard) return name;
    }
    throw std::logic_error("no username hashed into the target shard");
  }

  std::filesystem::path dir_;
  std::vector<Node> nodes_;
  ClusterMap map_;
  std::shared_ptr<repository::Repository> replica_repo_;
  std::unique_ptr<MyProxyServer> replica_;
};

TEST_F(ClusterE2ETest, ClusterRoutesEveryOperationToItsOwnerZeroMisroutes) {
  start_cluster(3);
  constexpr int kUsers = 12;
  std::vector<std::string> usernames;
  std::vector<gsi::Credential> users;
  for (int i = 0; i < kUsers; ++i) {
    usernames.push_back(fmt::format("cluster-user-{}", i));
    users.push_back(make_user(usernames.back()));
  }

  auto portal = routed_client(
      make_service("/C=US/O=Grid/OU=Portals/CN=portal-route"));
  for (int i = 0; i < kUsers; ++i) {
    put_credential(portal, users[i], usernames[i]);
  }
  for (int i = 0; i < kUsers; ++i) {
    EXPECT_EQ(portal.get(usernames[i], kPhrase).identity(),
              users[i].identity());
  }

  // The map routed every operation straight to its owner: no server ever
  // refused a request, and each primary holds exactly its own users.
  std::size_t total = 0;
  for (const auto& node : nodes_) {
    EXPECT_EQ(node.server->stats().cluster_wrong_shard.load(), 0u);
    std::size_t expected = 0;
    for (const auto& name : usernames) {
      if (map_.owner(name).primary == node.port()) ++expected;
    }
    EXPECT_EQ(node.repo->size(), expected);
    total += expected;
  }
  EXPECT_EQ(total, static_cast<std::size_t>(kUsers));
  EXPECT_EQ(portal.wrong_shard_redirects(), 0u);
}

TEST_F(ClusterE2ETest, ClusterMapFetchInstallsTheServersMap) {
  start_cluster(3);
  MyProxyClient client(
      make_service("/C=US/O=Grid/OU=Portals/CN=portal-fetch"),
      make_trust_store(), nodes_[0].port());
  const ClusterMap fetched = client.fetch_cluster_map();
  EXPECT_EQ(fetched, map_);
  EXPECT_EQ(fetched.epoch(), 1u);
  EXPECT_EQ(fetched.shard_count(), kShardSlots);
  EXPECT_EQ(client.map_refreshes(), 1u);
  ASSERT_TRUE(client.cluster_map().has_value());
}

TEST_F(ClusterE2ETest, ClusterStaleClientRecoversViaWrongShardRedirect) {
  start_cluster(3);
  // A mapless client that only knows node 0, writing a user that lives on
  // another node: the WRONG_SHARD refusal teaches it the map mid-operation.
  const std::string username =
      username_owned_by(nodes_[1].port(), "stale-user");
  const auto user = make_user(username);
  const auto proxy = gsi::create_proxy(user);
  MyProxyClient stale(proxy, make_trust_store(), nodes_[0].port());
  PutOptions options;
  options.stored_lifetime = Seconds(24 * 3600);
  stale.put(username, kPhrase, proxy, options);

  EXPECT_EQ(stale.wrong_shard_redirects(), 1u);
  EXPECT_EQ(stale.map_refreshes(), 1u);
  ASSERT_TRUE(stale.cluster_map().has_value());
  EXPECT_EQ(*stale.cluster_map(), map_);
  EXPECT_GE(nodes_[0].server->stats().cluster_wrong_shard.load(), 1u);
  EXPECT_EQ(nodes_[1].repo->size(), 1u);

  // With the learned map the follow-up read routes straight to the owner.
  EXPECT_EQ(stale.get(username, kPhrase).identity(), user.identity());
  EXPECT_EQ(stale.wrong_shard_redirects(), 1u);
}

TEST_F(ClusterE2ETest, ClusterKillingOnePrimaryFailsItsShardOverToReplica) {
  start_cluster(3);
  attach_replica(nodes_[0]);
  const std::string doomed =
      username_owned_by(nodes_[0].port(), "failover-user");
  const std::string healthy =
      username_owned_by(nodes_[1].port(), "healthy-user");
  const auto doomed_user = make_user(doomed);
  const auto healthy_user = make_user(healthy);
  auto portal = routed_client(
      make_service("/C=US/O=Grid/OU=Portals/CN=portal-failover"));
  put_credential(portal, doomed_user, doomed);
  put_credential(portal, healthy_user, healthy);
  wait_for_replica_catchup(nodes_[0]);

  nodes_[0].server->stop();

  // Reads for the dead node's shard land on its replica; the other shards
  // never notice.
  client::RetryPolicy quick;
  quick.max_attempts = 1;  // dead endpoint: fail fast, move on
  portal.set_retry_policy(quick);
  EXPECT_EQ(portal.get(doomed, kPhrase).identity(), doomed_user.identity());
  EXPECT_EQ(portal.get(healthy, kPhrase).identity(),
            healthy_user.identity());
}

TEST_F(ClusterE2ETest, MigrationMovesShardWithoutLossOrDuplication) {
  start_cluster(3);
  const std::uint16_t source = nodes_[0].port();
  const std::uint16_t target = nodes_[1].port();
  const std::uint32_t shard = map_.owned_shards(source).front();

  // Four users inside the moving shard, four bystanders elsewhere.
  std::vector<std::string> moving, staying;
  std::vector<gsi::Credential> moving_users, staying_users;
  auto portal = routed_client(
      make_service("/C=US/O=Grid/OU=Portals/CN=portal-mig"));
  for (int i = 0; i < 4; ++i) {
    moving.push_back(username_in_shard(shard, fmt::format("mig-{}", i)));
    moving_users.push_back(make_user(moving.back()));
    put_credential(portal, moving_users.back(), moving.back());
    staying.push_back(
        username_owned_by(target, fmt::format("stay-{}", i)));
    staying_users.push_back(make_user(staying.back()));
    put_credential(portal, staying_users.back(), staying.back());
  }
  const std::size_t source_before = nodes_[0].repo->size();
  const std::size_t target_before = nodes_[1].repo->size();

  auto admin = routed_client(
      make_service("/C=US/O=Grid/OU=Portals/CN=cluster-admin"));
  const auto result = admin.cluster_migrate(shard, target);
  EXPECT_EQ(result.at("MOVED_USERS"), "4");
  EXPECT_EQ(result.at("MOVED_RECORDS"), "4");
  EXPECT_EQ(result.at("EPOCH"), "2");

  // Both ends flipped to the new epoch and ownership.
  EXPECT_EQ(nodes_[0].server->cluster_map().epoch(), 2u);
  EXPECT_EQ(nodes_[1].server->cluster_map().epoch(), 2u);
  EXPECT_TRUE(nodes_[1].server->cluster_map().owns(target, shard));
  EXPECT_FALSE(nodes_[0].server->cluster_map().owns(source, shard));

  // No loss, no duplication: the records left the source and live exactly
  // once on the target.
  EXPECT_EQ(nodes_[0].repo->size(), source_before - 4);
  EXPECT_EQ(nodes_[1].repo->size(), target_before + 4);

  // A fresh client with a refreshed map reads every credential back.
  MyProxyClient reader(
      make_service("/C=US/O=Grid/OU=Portals/CN=portal-after"),
      make_trust_store(), nodes_[0].port());
  (void)reader.fetch_cluster_map();
  EXPECT_EQ(reader.cluster_map()->epoch(), 2u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(reader.get(moving[i], kPhrase).identity(),
              moving_users[i].identity());
    EXPECT_EQ(reader.get(staying[i], kPhrase).identity(),
              staying_users[i].identity());
  }

  // STATS surfaces the migration lifecycle on both ends.
  auto source_admin = MyProxyClient(
      make_service("/C=US/O=Grid/OU=Portals/CN=cluster-admin"),
      make_trust_store(), source);
  const auto source_stats = source_admin.server_stats();
  EXPECT_EQ(source_stats.at("CLUSTER_EPOCH"), "2");
  EXPECT_EQ(source_stats.at("CLUSTER_MIGRATIONS_COMPLETED"), "1");
  EXPECT_EQ(source_stats.at("CLUSTER_MIGRATION_ACTIVE"), "0");
  EXPECT_EQ(source_stats.at("CLUSTER_RECORDS_OUT"), "4");
  auto target_admin = MyProxyClient(
      make_service("/C=US/O=Grid/OU=Portals/CN=cluster-admin"),
      make_trust_store(), target);
  EXPECT_EQ(target_admin.server_stats().at("CLUSTER_RECORDS_IN"), "4");
}

TEST_F(ClusterE2ETest, MigrationStaleWriterRecoversViaWrongShardRedirect) {
  start_cluster(2);
  const std::uint16_t source = nodes_[0].port();
  const std::uint16_t target = nodes_[1].port();
  const std::uint32_t shard = map_.owned_shards(source).front();
  const std::string username = username_in_shard(shard, "stalemig");
  const auto user = make_user(username);
  auto portal = routed_client(
      make_service("/C=US/O=Grid/OU=Portals/CN=portal-sm"));
  put_credential(portal, user, username);

  auto admin = routed_client(
      make_service("/C=US/O=Grid/OU=Portals/CN=cluster-admin"));
  (void)admin.cluster_migrate(shard, target);

  // A writer still holding the epoch-1 map dials the old owner; the
  // WRONG_SHARD refusal carries epoch 2 and the new owner, and the write
  // lands there after a map refresh — the caller never sees an error.
  const auto proxy = gsi::create_proxy(user);
  MyProxyClient stale(proxy, make_trust_store(), nodes_[0].port());
  stale.set_cluster_map(map_);  // pre-migration map, epoch 1
  PutOptions options;
  options.stored_lifetime = Seconds(24 * 3600);
  options.credential_name = "after-move";
  stale.put(username, kPhrase, proxy, options);

  EXPECT_GE(stale.wrong_shard_redirects(), 1u);
  EXPECT_EQ(stale.cluster_map()->epoch(), 2u);
  const auto names = stale.list(username);
  EXPECT_EQ(names.size(), 2u);  // the moved record + the new slot
  EXPECT_NE(std::find(names.begin(), names.end(), "after-move"),
            names.end());
  // Both live on the target now.
  EXPECT_EQ(nodes_[1].repo->size(), 2u);
}

TEST_F(ClusterE2ETest, MigrationUnderConcurrentWritesLosesNothing) {
  start_cluster(2);
  const std::uint16_t source = nodes_[0].port();
  const std::uint16_t target = nodes_[1].port();
  const std::uint32_t shard = map_.owned_shards(source).front();
  const std::string username = username_in_shard(shard, "hotmig");
  const auto user = make_user(username);
  auto portal = routed_client(
      make_service("/C=US/O=Grid/OU=Portals/CN=portal-hot"));
  put_credential(portal, user, username, "seed");

  // A writer keeps adding wallet slots for the moving user while the shard
  // migrates under it. Fence refusals surface as busy hints and post-cutover
  // attempts as WRONG_SHARD redirects — either way every write must land.
  constexpr int kSlots = 10;
  const auto proxy = gsi::create_proxy(user);
  std::thread writer([&] {
    client::RetryPolicy patient;
    patient.max_attempts = 6;
    patient.initial_backoff = Millis(50);
    MyProxyClient client(proxy, make_trust_store(),
                         {nodes_[0].port(), nodes_[1].port()}, patient);
    client.set_cluster_map(map_);  // starts on the pre-migration map
    for (int i = 0; i < kSlots; ++i) {
      PutOptions options;
      options.stored_lifetime = Seconds(24 * 3600);
      options.credential_name = fmt::format("slot-{}", i);
      client.put(username, kPhrase, proxy, options);
    }
  });

  std::this_thread::sleep_for(Millis(30));  // let a few writes land first
  auto admin = routed_client(
      make_service("/C=US/O=Grid/OU=Portals/CN=cluster-admin"));
  (void)admin.cluster_migrate(shard, target);
  writer.join();

  // Every slot arrived on the new owner exactly once.
  MyProxyClient reader(
      make_service("/C=US/O=Grid/OU=Portals/CN=portal-hot2"),
      make_trust_store(), nodes_[1].port());
  (void)reader.fetch_cluster_map();
  const auto names = reader.list(username);
  EXPECT_EQ(names.size(), static_cast<std::size_t>(kSlots) + 1);  // + seed
  for (int i = 0; i < kSlots; ++i) {
    EXPECT_EQ(std::count(names.begin(), names.end(),
                         fmt::format("slot-{}", i)),
              1)
        << "slot-" << i << " lost or duplicated";
  }
  // The source no longer holds the user at all.
  EXPECT_EQ(nodes_[0].repo->size(), 0u);
}

TEST_F(ClusterE2ETest, MigrationRefusesATrustedTargetOutsideClusterAdminAcl) {
  start_cluster(2);
  const std::uint16_t source = nodes_[0].port();
  const std::uint32_t shard = map_.owned_shards(source).front();
  const std::string username = username_in_shard(shard, "guarded");
  const auto user = make_user(username);
  auto portal = routed_client(
      make_service("/C=US/O=Grid/OU=Portals/CN=portal-guard"));
  put_credential(portal, user, username);

  // The CA issued this node's host credential, so its chain verifies, but
  // it is not in cluster_admin_acl. Its own ACL admits the source, so it
  // would take the shard's sealed records if they were offered.
  repository::RepositoryPolicy policy;
  policy.kdf_iterations = 100;
  auto rogue_repo = std::make_shared<repository::Repository>(
      std::make_unique<repository::MemoryCredentialStore>(), policy);
  MyProxyServer rogue(make_service("/C=US/O=Grid/OU=Rogue/CN=rogue.grid.test"),
                      make_trust_store(), rogue_repo, base_config());
  rogue.start();
  rogue.set_cluster(map_, rogue.port());

  auto admin = routed_client(
      make_service("/C=US/O=Grid/OU=Portals/CN=cluster-admin"));
  EXPECT_THROW((void)admin.cluster_migrate(shard, rogue.port()), Error);

  EXPECT_EQ(rogue_repo->size(), 0u);
  EXPECT_EQ(rogue.stats().cluster_records_migrated_in.load(), 0u);
  // The shard stays where it was and keeps taking writes.
  EXPECT_EQ(nodes_[0].server->cluster_map().epoch(), 1u);
  EXPECT_TRUE(nodes_[0].server->cluster_map().owns(source, shard));
  EXPECT_EQ(nodes_[0].server->stats().cluster_migrations_completed.load(),
            0u);
  put_credential(portal, user, username, "after-refusal");
  EXPECT_EQ(nodes_[0].repo->size(), 2u);
  rogue.stop();
}

TEST_F(ClusterE2ETest, ClusterRedirectLoopExhaustsTheHopBudget) {
  // Two nodes with deliberately crossed single-shard maps: each insists the
  // other owns everything. The client must not ping-pong forever.
  start_primary(0);
  start_primary(1);
  const std::uint16_t a = nodes_[0].port();
  const std::uint16_t b = nodes_[1].port();
  nodes_[0].server->set_cluster(
      ClusterMap(1, {ShardNode{b, {}}}), a);
  nodes_[1].server->set_cluster(
      ClusterMap(1, {ShardNode{a, {}}}), b);

  const auto user = make_user("loop-user");
  const auto proxy = gsi::create_proxy(user);
  MyProxyClient client(proxy, make_trust_store(), a);
  PutOptions options;
  options.stored_lifetime = Seconds(24 * 3600);
  EXPECT_THROW(client.put("loop-user", kPhrase, proxy, options),
               RedirectLoop);
  // The budget (3 hops) bounds the chase: one initial refusal plus at most
  // three follow-ups.
  EXPECT_LE(client.wrong_shard_redirects(), 4u);
}

}  // namespace
}  // namespace myproxy
