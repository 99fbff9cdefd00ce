// Figure-3 end-to-end: a cookie-jar "browser" logs into the portal over
// HTTPS; the portal retrieves a delegation from MyProxy and drives a
// GSI-protected Grid resource on the user's behalf. Also exercises the
// §6.6 renewal pipeline across all three services.
#include "portal/grid_portal.hpp"

#include <gtest/gtest.h>

#include <future>
#include <thread>

#include "client/myproxy_client.hpp"
#include "common/error.hpp"
#include "grid/renewal_service.hpp"
#include "gsi/gsi_fixtures.hpp"
#include "gsi/proxy.hpp"
#include "server/myproxy_server.hpp"

namespace myproxy::portal {
namespace {

using gsi::testing::make_trust_store;
using gsi::testing::make_user;
using gsi::testing::test_ca;

constexpr std::string_view kPhrase = "correct horse battery";

gsi::Credential make_service(const std::string& dn_text) {
  const auto dn = pki::DistinguishedName::parse(dn_text);
  auto key = crypto::KeyPair::generate(crypto::KeySpec::ec());
  auto cert = test_ca().issue(dn, key, Seconds(365L * 24 * 3600));
  return gsi::Credential(std::move(cert), std::move(key));
}

class GridPortalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // --- MyProxy repository -------------------------------------------------
    repository::RepositoryPolicy policy;
    policy.kdf_iterations = 100;
    auto repo = std::make_shared<repository::Repository>(
        std::make_unique<repository::MemoryCredentialStore>(), policy);

    server::ServerConfig server_config;
    server_config.accepted_credentials.add("/C=US/O=Grid/OU=People/*");
    server_config.authorized_retrievers.add("/C=US/O=Grid/OU=Portals/*");
    server_config.authorized_retrievers.add("/C=US/O=Grid/OU=People/*");
    server_config.authorized_renewers.add("/C=US/O=Grid/OU=People/*");
    myproxy_ = std::make_unique<server::MyProxyServer>(
        make_service("/C=US/O=Grid/OU=Services/CN=myproxy"),
        make_trust_store(), repo, server_config);
    myproxy_->start();

    // --- Grid resource ------------------------------------------------------
    gsi::Gridmap gridmap;
    gridmap.add("/C=US/O=Grid/OU=People/*", "griduser");
    resource_ = std::make_unique<grid::ResourceService>(
        make_service("/C=US/O=Grid/OU=Services/CN=compute"),
        make_trust_store(), std::move(gridmap));
    resource_->start();

    // --- Portal --------------------------------------------------------------
    PortalConfig portal_config;
    portal_config.repositories = {{"default", myproxy_->port()}};
    portal_config.resource_port = resource_->port();
    portal_ = std::make_unique<GridPortal>(
        make_service("/C=US/O=Grid/OU=Portals/CN=portal"),
        make_trust_store(), std::move(portal_config));
    portal_->start();
  }

  void TearDown() override {
    portal_->stop();
    resource_->stop();
    myproxy_->stop();
  }

  /// myproxy-init for `user` under account "alice".
  void init_alice(const gsi::Credential& user,
                  client::PutOptions options = {}) {
    const auto proxy = gsi::create_proxy(user);
    client::MyProxyClient client(proxy, make_trust_store(),
                                 myproxy_->port());
    options.stored_lifetime = Seconds(24 * 3600);
    client.put("alice", kPhrase, proxy, options);
  }

  std::unique_ptr<server::MyProxyServer> myproxy_;
  std::unique_ptr<grid::ResourceService> resource_;
  std::unique_ptr<GridPortal> portal_;
};

TEST_F(GridPortalTest, LoginPageServed) {
  Browser browser(portal_->port());
  const auto response = browser.get("/");
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("Pass phrase"), std::string::npos);
}

// Two TCP clients that connect and never speak TLS must not keep a portal
// with two workers from answering a browser: the handshake runs on the
// front end's event loop, not on a worker.
TEST_F(GridPortalTest, SilentConnectionsDoNotBlockBrowsers) {
  net::Socket silent1 = net::tcp_connect(portal_->port());
  net::Socket silent2 = net::tcp_connect(portal_->port());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  auto answer = std::async(std::launch::async, [port = portal_->port()] {
    Browser browser(port);
    return browser.get("/").status;
  });
  const auto ready = answer.wait_for(std::chrono::seconds(1));
  silent1.close();
  silent2.close();
  ASSERT_EQ(ready, std::future_status::ready);
  EXPECT_EQ(answer.get(), 200);
}

TEST_F(GridPortalTest, StopIsFastWithASilentClient) {
  net::Socket silent = net::tcp_connect(portal_->port());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  auto stopped =
      std::async(std::launch::async, [this] { portal_->stop(); });
  const auto ready = stopped.wait_for(std::chrono::milliseconds(250));
  silent.close();
  EXPECT_EQ(ready, std::future_status::ready);
}

TEST_F(GridPortalTest, Figure3_FullWorkflow) {
  const auto alice = make_user("portal-alice");
  init_alice(alice);

  Browser browser(portal_->port());
  // Step 1: user sends authentication data to the portal.
  auto response = browser.post_form(
      "/login", {{"username", "alice"},
                 {"passphrase", std::string(kPhrase)},
                 {"repository", "default"}});
  EXPECT_EQ(response.status, 303);
  EXPECT_EQ(browser.cookies().count(std::string(kSessionCookie)), 1u);
  EXPECT_EQ(portal_->sessions().size(), 1u);

  // Steps 2-3 happened server-side; the home page shows the identity.
  response = browser.follow(std::move(response));
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("portal-alice"), std::string::npos);

  // The portal now acts on the Grid as the user: job submission.
  response = browser.post_form("/submit", {{"command", "simulate"}});
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("job-"), std::string::npos);

  // The job really ran under Alice's Grid identity at the resource.
  const auto jobs = resource_->jobs_for(alice.identity().str());
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].local_user, "griduser");
  EXPECT_EQ(jobs[0].command, "simulate");

  // File transfer through the portal.
  response = browser.post_form(
      "/store", {{"name", "out.txt"}, {"content", "result data"}});
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(resource_->stored_file("griduser", "out.txt"), "result data");
}

TEST_F(GridPortalTest, BadPassphraseStaysLoggedOut) {
  const auto alice = make_user("portal-badpp-alice");
  init_alice(alice);
  Browser browser(portal_->port());
  const auto response = browser.post_form(
      "/login", {{"username", "alice"}, {"passphrase", "wrong"}});
  EXPECT_EQ(response.status, 200);  // back to login page with message
  EXPECT_NE(response.body.find("Login failed"), std::string::npos);
  EXPECT_TRUE(browser.cookies().empty());
  EXPECT_EQ(portal_->sessions().size(), 0u);
}

TEST_F(GridPortalTest, ProtectedRoutesRequireSession) {
  Browser browser(portal_->port());
  auto response = browser.get("/home");
  EXPECT_NE(response.body.find("Please log in"), std::string::npos);
  response = browser.post_form("/submit", {{"command", "x"}});
  EXPECT_NE(response.body.find("Please log in"), std::string::npos);
}

TEST_F(GridPortalTest, LogoutDeletesDelegatedCredential) {
  // §4.3: "The operation of logging out of the portal deletes the user's
  // delegated credential on the portal."
  const auto alice = make_user("portal-logout-alice");
  init_alice(alice);
  Browser browser(portal_->port());
  (void)browser.post_form("/login", {{"username", "alice"},
                                     {"passphrase", std::string(kPhrase)}});
  EXPECT_EQ(portal_->sessions().size(), 1u);
  const auto response = browser.post_form("/logout", {});
  EXPECT_EQ(response.status, 303);
  EXPECT_EQ(portal_->sessions().size(), 0u);
  // The cookie no longer works.
  const auto home = browser.get("/home");
  EXPECT_NE(home.body.find("Please log in"), std::string::npos);
}

TEST_F(GridPortalTest, ForgottenSessionExpiresWithCredential) {
  const auto alice = make_user("portal-expire-alice");
  init_alice(alice);
  Browser browser(portal_->port());
  (void)browser.post_form("/login", {{"username", "alice"},
                                     {"passphrase", std::string(kPhrase)}});
  EXPECT_EQ(portal_->sessions().size(), 1u);
  const ScopedClockAdvance warp(Seconds(3 * 3600));  // past the 2h credential
  const auto home = browser.get("/home");
  EXPECT_NE(home.body.find("Please log in"), std::string::npos);
  EXPECT_EQ(portal_->sessions().size(), 0u);
}

TEST_F(GridPortalTest, RenewalPipelineKeepsJobAlive) {
  // §6.6 across the whole system: portal-submitted job outlives its proxy;
  // the renewal service refreshes it from MyProxy.
  const auto alice = make_user("portal-renew-alice");
  client::PutOptions put;
  put.renewer_patterns = {alice.identity().str()};
  init_alice(alice, put);

  // Submit through the portal with a short session credential: reconfigure
  // via a direct resource submission using a short proxy delegated from
  // MyProxy (the portal path is covered above).
  client::MyProxyClient myproxy_client(
      make_service("/C=US/O=Grid/OU=Portals/CN=portal"), make_trust_store(),
      myproxy_->port());
  client::GetOptions get;
  get.lifetime = Seconds(600);
  const gsi::Credential session_cred = myproxy_client.get("alice", kPhrase, get);

  grid::ResourceClient resource_client(session_cred, make_trust_store(),
                                       resource_->port());
  const std::string job_id = resource_client.submit_job("week-long-job");
  const TimePoint original_expiry =
      resource_->job(job_id)->credential_expires;

  grid::RenewalService renewal(
      *resource_, myproxy_->port(), make_trust_store(),
      [&alice](std::string_view dn) -> std::optional<std::string> {
        if (dn == alice.identity().str()) return "alice";
        return std::nullopt;
      },
      /*renew_threshold=*/Seconds(3600));  // everything is "near expiry"

  const auto result = renewal.run_once();
  EXPECT_EQ(result.jobs_checked, 1u);
  EXPECT_EQ(result.renewed, 1u);
  EXPECT_EQ(result.failed, 0u);
  EXPECT_GT(resource_->job(job_id)->credential_expires, original_expiry);
  EXPECT_EQ(resource_->job(job_id)->state, grid::JobState::kRunning);
}

TEST_F(GridPortalTest, RenewalDaemonSweepsInBackground) {
  const auto alice = make_user("portal-daemon-alice");
  client::PutOptions put;
  put.renewer_patterns = {alice.identity().str()};
  init_alice(alice, put);

  client::MyProxyClient myproxy_client(
      make_service("/C=US/O=Grid/OU=Portals/CN=portal-d"),
      make_trust_store(), myproxy_->port());
  client::GetOptions get;
  get.lifetime = Seconds(600);
  const gsi::Credential session_cred =
      myproxy_client.get("alice", kPhrase, get);
  grid::ResourceClient resource_client(session_cred, make_trust_store(),
                                       resource_->port());
  const std::string job_id = resource_client.submit_job("daemon-job");
  const TimePoint original_expiry =
      resource_->job(job_id)->credential_expires;

  grid::RenewalService renewal(
      *resource_, myproxy_->port(), make_trust_store(),
      [&alice](std::string_view dn) -> std::optional<std::string> {
        if (dn == alice.identity().str()) return "alice";
        return std::nullopt;
      },
      /*renew_threshold=*/Seconds(3600));
  renewal.start(Seconds(1));
  // Wait (bounded) for the daemon to have done at least one renewal.
  for (int i = 0; i < 100; ++i) {
    if (renewal.totals().renewed > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  renewal.stop();
  EXPECT_GE(renewal.totals().renewed, 1u);
  EXPECT_GT(resource_->job(job_id)->credential_expires, original_expiry);
}

}  // namespace
}  // namespace myproxy::portal
