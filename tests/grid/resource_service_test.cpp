#include "grid/resource_service.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <thread>

#include "common/error.hpp"
#include "gsi/gsi_fixtures.hpp"
#include "gsi/proxy.hpp"

namespace myproxy::grid {
namespace {

using gsi::testing::make_trust_store;
using gsi::testing::make_user;
using gsi::testing::test_ca;

class ResourceServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto host_dn = pki::DistinguishedName::parse(
        "/C=US/O=Grid/OU=Services/CN=compute.grid.test");
    auto host_key = crypto::KeyPair::generate(crypto::KeySpec::ec());
    auto host_cert =
        test_ca().issue(host_dn, host_key, Seconds(365L * 24 * 3600));
    gsi::Credential host(std::move(host_cert), std::move(host_key));

    gsi::Gridmap gridmap;
    gridmap.add("/C=US/O=Grid/OU=People/CN=res-alice", "alice");
    gridmap.add("/C=US/O=Grid/OU=People/CN=res-*", "generic");

    service_ = std::make_unique<ResourceService>(
        std::move(host), make_trust_store(), std::move(gridmap));
    service_->start();
  }

  void TearDown() override { service_->stop(); }

  ResourceClient client_for(const gsi::Credential& credential) {
    return ResourceClient(credential, make_trust_store(), service_->port());
  }

  std::unique_ptr<ResourceService> service_;
};

TEST_F(ResourceServiceTest, WhoamiMapsThroughGridmap) {
  const auto alice = make_user("res-alice");
  auto client = client_for(gsi::create_proxy(alice));
  EXPECT_EQ(client.whoami(), "alice");

  const auto other = make_user("res-bob");
  auto other_client = client_for(gsi::create_proxy(other));
  EXPECT_EQ(other_client.whoami(), "generic");  // glob entry
}

TEST_F(ResourceServiceTest, UnmappedIdentityRefused) {
  const auto stranger = make_user("unmapped-stranger");
  auto client = client_for(gsi::create_proxy(stranger));
  EXPECT_THROW((void)client.whoami(), Error);
}

TEST_F(ResourceServiceTest, SubmitJobDelegatesCredential) {
  const auto alice = make_user("res-alice");
  const auto proxy = gsi::create_proxy(alice);
  auto client = client_for(proxy);
  const std::string job_id = client.submit_job("simulate --steps 1000");

  const auto job = service_->job(job_id);
  ASSERT_TRUE(job.has_value());
  EXPECT_EQ(job->local_user, "alice");
  EXPECT_EQ(job->owner_dn, alice.identity().str());
  EXPECT_EQ(job->state, JobState::kRunning);

  // The job received its own delegated credential (one hop deeper).
  const auto job_cred = service_->job_credential(job_id);
  ASSERT_TRUE(job_cred.has_value());
  EXPECT_EQ(job_cred->identity(), alice.identity());
  EXPECT_EQ(job_cred->delegation_depth(), proxy.delegation_depth() + 1);

  const auto status = client.job_status(job_id);
  EXPECT_EQ(status.state, JobState::kRunning);
}

TEST_F(ResourceServiceTest, LimitedProxyCannotSubmitButCanUseStorage) {
  // GSI semantics: job managers refuse limited proxies; storage accepts.
  const auto alice = make_user("res-alice");
  gsi::ProxyOptions options;
  options.limited = true;
  auto client = client_for(gsi::create_proxy(alice, options));
  EXPECT_THROW((void)client.submit_job("ls"), Error);
  EXPECT_NO_THROW(client.store_file("data.txt", "contents"));
  EXPECT_EQ(client.fetch_file("data.txt"), "contents");
}

TEST_F(ResourceServiceTest, RestrictedProxyConfinedToItsRights) {
  // §6.5: a stolen restricted proxy can only do what its policy lists.
  const auto alice = make_user("res-alice");
  gsi::ProxyOptions options;
  options.restriction = pki::RestrictionPolicy::parse("rights=file-read");
  auto client = client_for(gsi::create_proxy(alice, options));

  EXPECT_THROW((void)client.submit_job("ls"), Error);          // no job-submit
  EXPECT_THROW(client.store_file("f", "x"), Error);            // no file-write

  // Seed a file with an unrestricted proxy, then read it restricted.
  auto full = client_for(gsi::create_proxy(alice));
  full.store_file("readable.txt", "payload");
  EXPECT_EQ(client.fetch_file("readable.txt"), "payload");     // file-read ok
}

TEST_F(ResourceServiceTest, FileStoreFetchRoundTrip) {
  const auto alice = make_user("res-alice");
  auto client = client_for(gsi::create_proxy(alice));
  client.store_file("results.dat", std::string_view("binary\0data", 11));
  EXPECT_EQ(service_->stored_file("alice", "results.dat"),
            std::string("binary\0data", 11));
  client.store_file("results.dat", "updated");
  EXPECT_EQ(client.fetch_file("results.dat"), "updated");
  EXPECT_THROW((void)client.fetch_file("missing.dat"), Error);
}

TEST_F(ResourceServiceTest, JobsIsolatedPerOwner) {
  const auto alice = make_user("res-alice");
  const auto bob = make_user("res-bob");
  auto alice_client = client_for(gsi::create_proxy(alice));
  auto bob_client = client_for(gsi::create_proxy(bob));
  const std::string job_id = alice_client.submit_job("alice-job");
  // Bob cannot see Alice's job even knowing the id.
  EXPECT_THROW((void)bob_client.job_status(job_id), Error);
  EXPECT_EQ(service_->jobs_for(alice.identity().str()).size(), 1u);
  EXPECT_TRUE(service_->jobs_for(bob.identity().str()).empty());
}

TEST_F(ResourceServiceTest, StaleJobsExpireAndCanBeRefreshed) {
  const auto alice = make_user("res-alice");
  gsi::ProxyOptions short_lived;
  short_lived.lifetime = Seconds(60);
  auto client = client_for(gsi::create_proxy(alice, short_lived));
  const std::string job_id = client.submit_job("long job");

  {
    const ScopedClockAdvance warp(Seconds(300));
    EXPECT_EQ(service_->expire_stale_jobs(), 1u);
    EXPECT_EQ(service_->job(job_id)->state, JobState::kCredentialExpired);
  }

  // A fresh credential with the same identity revives the job (§6.6).
  const auto fresh = gsi::create_proxy(alice);
  EXPECT_TRUE(service_->refresh_job_credential(job_id, fresh));
  EXPECT_EQ(service_->job(job_id)->state, JobState::kRunning);

  // A credential for a different identity is refused.
  const auto mallory = make_user("res-mallory");
  EXPECT_FALSE(
      service_->refresh_job_credential(job_id, gsi::create_proxy(mallory)));
}

TEST_F(ResourceServiceTest, StopIsFastWithASilentClient) {
  net::Socket silent = net::tcp_connect(service_->port());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  auto stopped =
      std::async(std::launch::async, [this] { service_->stop(); });
  const auto ready = stopped.wait_for(std::chrono::milliseconds(250));
  silent.close();
  EXPECT_EQ(ready, std::future_status::ready);
}

}  // namespace
}  // namespace myproxy::grid
