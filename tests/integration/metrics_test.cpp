// The /metrics scrape: Prometheus text exposition of every STATS counter
// plus per-op latency histograms, served over plaintext loopback HTTP by
// the reactor's loop 0. The scrape and STATS(10) read the same snapshot, so
// they can never disagree beyond concurrent motion; a dribbling scraper
// holds only its own connection, for at most the scrape deadline; the
// server refuses a non-loopback metrics bind unless explicitly opted in.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "client/myproxy_client.hpp"
#include "common/error.hpp"
#include "gsi/gsi_fixtures.hpp"
#include "gsi/proxy.hpp"
#include "net/socket.hpp"
#include "server/metrics.hpp"
#include "server/myproxy_server.hpp"

namespace myproxy {
namespace {

using client::MyProxyClient;
using gsi::testing::make_trust_store;
using gsi::testing::make_user;
using gsi::testing::test_ca;
using server::LatencyHistogram;

constexpr std::string_view kPhrase = "correct horse battery";

gsi::Credential make_host(const std::string& cn) {
  const auto dn =
      pki::DistinguishedName::parse("/C=US/O=Grid/OU=Services/CN=" + cn);
  auto key = crypto::KeyPair::generate(crypto::KeySpec::ec());
  auto cert = test_ca().issue(dn, key, Seconds(365L * 24 * 3600));
  return gsi::Credential(std::move(cert), std::move(key));
}

/// One raw HTTP exchange against the metrics port; returns the full
/// response (status line, headers, body).
std::string http_request(std::uint16_t port, const std::string& request) {
  net::Socket socket = net::tcp_connect(port);
  socket.set_deadlines(Millis(2000), Millis(2000));
  socket.write_all(request);
  std::string response;
  for (;;) {
    const std::string chunk = socket.read_some(4096);
    if (chunk.empty()) break;
    response += chunk;
  }
  return response;
}

std::string scrape(std::uint16_t port, const std::string& target = "/metrics") {
  return http_request(port, "GET " + target +
                                " HTTP/1.1\r\nHost: localhost\r\n"
                                "Connection: close\r\n\r\n");
}

std::string body_of(const std::string& response) {
  const auto split = response.find("\r\n\r\n");
  return split == std::string::npos ? std::string()
                                    : response.substr(split + 4);
}

/// Parse `myproxy_name 42` sample lines (plain counters and histogram
/// series alike; `# TYPE` comments are skipped).
std::map<std::string, std::uint64_t> parse_samples(const std::string& body) {
  std::map<std::string, std::uint64_t> out;
  std::istringstream lines(body);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto space = line.rfind(' ');
    if (space == std::string::npos) continue;
    out[line.substr(0, space)] =
        static_cast<std::uint64_t>(std::stoull(line.substr(space + 1)));
  }
  return out;
}

std::shared_ptr<repository::Repository> make_repo() {
  repository::RepositoryPolicy policy;
  policy.kdf_iterations = 100;
  return std::make_shared<repository::Repository>(
      std::make_unique<repository::MemoryCredentialStore>(), policy);
}

class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    repo_ = make_repo();
    server::ServerConfig config;
    config.accepted_credentials.add("*");
    config.authorized_retrievers.add("*");
    config.metrics_enabled = true;
    config.metrics_port = 0;  // ephemeral
    server_ = std::make_unique<server::MyProxyServer>(
        make_host("metrics-myproxy"), make_trust_store(), repo_, config);
    server_->start();
    ASSERT_NE(server_->metrics_port(), 0);
  }

  void TearDown() override { server_->stop(); }

  std::shared_ptr<repository::Repository> repo_;
  std::unique_ptr<server::MyProxyServer> server_;
};

TEST_F(MetricsTest, ScrapeExportsCountersAndHistograms) {
  const auto alice = make_user("metrics-alice");
  const auto proxy = gsi::create_proxy(alice);
  MyProxyClient client(proxy, make_trust_store(), server_->port());
  client.put("metrics-alice", kPhrase, proxy);
  (void)client.get("metrics-alice", kPhrase);
  (void)client.get("metrics-alice", kPhrase);

  // The latency charge lands after the reply is written, so the worker can
  // still be a few instructions shy of record() when the client returns —
  // scrape until the second GET's sample is visible.
  std::string response;
  std::map<std::string, std::uint64_t> samples;
  for (int attempt = 0; attempt < 50; ++attempt) {
    response = scrape(server_->metrics_port());
    samples = parse_samples(body_of(response));
    const auto it = samples.find("myproxy_op_latency_us_count{op=\"GET\"}");
    if (it != samples.end() && it->second >= 2) break;
    std::this_thread::sleep_for(Millis(20));
  }
  EXPECT_NE(response.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_EQ(samples.at("myproxy_puts"), 1u);
  EXPECT_EQ(samples.at("myproxy_gets"), 2u);
  EXPECT_GE(samples.at("myproxy_connections"), 3u);
  // Admission runs (and counts) even with no limits configured: every
  // gated op above was accepted.
  EXPECT_EQ(samples.at("myproxy_admission_accepted"), 3u);
  // Histogram series: the charge covers only admitted dispatches, so each
  // op's +Inf bucket, count, and the sum of all buckets agree with the op
  // counters exactly.
  EXPECT_EQ(samples.at("myproxy_op_latency_us_bucket{op=\"PUT\",le=\"+Inf\"}"),
            1u);
  EXPECT_EQ(samples.at("myproxy_op_latency_us_bucket{op=\"GET\",le=\"+Inf\"}"),
            2u);
  EXPECT_EQ(samples.at("myproxy_op_latency_us_count{op=\"GET\"}"), 2u);
  EXPECT_GT(samples.at("myproxy_op_latency_us_sum{op=\"GET\"}"), 0u);
  // Cumulative buckets never decrease along le.
  std::uint64_t previous = 0;
  for (std::size_t i = 0; i + 1 < LatencyHistogram::kBuckets; ++i) {
    const std::string key = "myproxy_op_latency_us_bucket{op=\"GET\",le=\"" +
                            std::to_string(LatencyHistogram::bucket_upper_us(i)) +
                            "\"}";
    const std::uint64_t value = samples.at(key);
    EXPECT_GE(value, previous) << key;
    previous = value;
  }
  EXPECT_GE(2u, previous);  // below or equal to the +Inf total
}

TEST_F(MetricsTest, CountersAreMonotonicAcrossScrapes) {
  const auto alice = make_user("metrics-mono-alice");
  const auto proxy = gsi::create_proxy(alice);
  MyProxyClient client(proxy, make_trust_store(), server_->port());
  client.put("metrics-mono-alice", kPhrase, proxy);

  const auto first = parse_samples(body_of(scrape(server_->metrics_port())));
  (void)client.get("metrics-mono-alice", kPhrase);
  (void)client.info("metrics-mono-alice");
  const auto second = parse_samples(body_of(scrape(server_->metrics_port())));

  for (const auto* key :
       {"myproxy_connections", "myproxy_puts", "myproxy_gets",
        "myproxy_full_handshakes", "myproxy_op_latency_us_count{op=\"GET\"}"}) {
    EXPECT_GE(second.at(key), first.at(key)) << key;
  }
  EXPECT_EQ(second.at("myproxy_gets"), first.at("myproxy_gets") + 1);
}

TEST_F(MetricsTest, StatsCommandAgreesWithScrape) {
  const auto alice = make_user("metrics-stats-alice");
  const auto proxy = gsi::create_proxy(alice);
  MyProxyClient client(proxy, make_trust_store(), server_->port());
  client.put("metrics-stats-alice", kPhrase, proxy);
  (void)client.get("metrics-stats-alice", kPhrase);

  // Same snapshot function behind both surfaces: any monotonic counter read
  // between two scrapes must be bracketed by them.
  const auto before = parse_samples(body_of(scrape(server_->metrics_port())));
  const auto stats = client.server_stats();
  const auto after = parse_samples(body_of(scrape(server_->metrics_port())));
  for (const auto& [upper, lower_key] :
       std::vector<std::pair<std::string, std::string>>{
           {"PUTS", "myproxy_puts"},
           {"GETS", "myproxy_gets"},
           {"CONNECTIONS", "myproxy_connections"},
           {"FULL_HANDSHAKES", "myproxy_full_handshakes"}}) {
    const auto value =
        static_cast<std::uint64_t>(std::stoull(stats.at(upper)));
    EXPECT_GE(value, before.at(lower_key)) << upper;
    EXPECT_LE(value, after.at(lower_key)) << upper;
  }
}

TEST_F(MetricsTest, ExportsPerIdentityAdmissionSeries) {
  const auto alice = make_user("metrics-ident-alice");
  const auto proxy = gsi::create_proxy(alice);
  MyProxyClient client(proxy, make_trust_store(), server_->port());
  client.put("metrics-ident-alice", kPhrase, proxy);
  (void)client.get("metrics-ident-alice", kPhrase);

  const std::string body = body_of(scrape(server_->metrics_port()));
  const auto samples = parse_samples(body);
  // No limits are configured, so every gated op was served and none shed —
  // but the identity still appears on the per-identity board.
  bool served_seen = false;
  for (const auto& [key, value] : samples) {
    if (key.rfind("myproxy_admission_identity_served{", 0) == 0 &&
        key.find("metrics-ident-alice") != std::string::npos) {
      served_seen = true;
      EXPECT_GE(value, 2u) << key;  // put + get
    }
  }
  EXPECT_TRUE(served_seen) << body;
  EXPECT_NE(body.find("myproxy_admission_identity_shed{"), std::string::npos);
}

TEST_F(MetricsTest, RejectsOtherTargetsAndMethods) {
  EXPECT_NE(scrape(server_->metrics_port(), "/credentials")
                .find("HTTP/1.1 404"),
            std::string::npos);
  EXPECT_NE(http_request(server_->metrics_port(),
                         "POST /metrics HTTP/1.1\r\nHost: x\r\n"
                         "Content-Length: 0\r\nConnection: close\r\n\r\n")
                .find("HTTP/1.1 405"),
            std::string::npos);
  // The endpoint survives both and still serves.
  EXPECT_NE(scrape(server_->metrics_port()).find("HTTP/1.1 200"),
            std::string::npos);
}

TEST_F(MetricsTest, DrippingScraperDoesNotBlockOtherScrapes) {
  // One header byte every ~200 ms: the head would take seconds to arrive.
  const std::string head =
      "GET /metrics HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n";
  net::Socket drip = net::tcp_connect(server_->metrics_port());
  const auto accepted = std::chrono::steady_clock::now();
  std::atomic<bool> done{false};
  std::thread dripper([&] {
    try {
      for (std::size_t i = 0; i < head.size() && !done.load(); ++i) {
        drip.write_all(head.substr(i, 1));
        std::this_thread::sleep_for(Millis(200));
      }
    } catch (const IoError&) {
      // The server closed the connection under the dripper.
    }
  });
  std::this_thread::sleep_for(Millis(300));

  const auto scrape_start = std::chrono::steady_clock::now();
  std::string response;
  try {
    response = scrape(server_->metrics_port());
  } catch (const IoError& e) {
    ADD_FAILURE() << "second scrape failed: " << e.what();
  }
  EXPECT_LT(std::chrono::steady_clock::now() - scrape_start, Millis(500));
  EXPECT_NE(response.find("HTTP/1.1 200"), std::string::npos);

  // The whole-connection deadline closes the dripper: EOF or a reset, not
  // a read that waits out its own timeout.
  drip.set_read_timeout(Millis(4000));
  try {
    EXPECT_EQ(drip.read_some(1), "");
  } catch (const IoTimeout&) {
    ADD_FAILURE() << "the server never closed the dripping connection";
  } catch (const IoError&) {
  }
  EXPECT_LT(std::chrono::steady_clock::now() - accepted, Millis(3000));
  done.store(true);
  dripper.join();
}

// --- Bind policy --------------------------------------------------------------

TEST(MetricsBindPolicy, RefusesNonLoopbackWithoutOptIn) {
  const auto thread_count = [] {
    const std::filesystem::directory_iterator tasks("/proc/self/task");
    return std::distance(begin(tasks), end(tasks));
  };
  server::ServerConfig config;
  config.metrics_enabled = true;
  config.metrics_port = 0;
  config.metrics_bind_address = "0.0.0.0";
  const auto threads_before = thread_count();
  server::MyProxyServer refused(make_host("metrics-bind-myproxy"),
                                make_trust_store(), make_repo(), config);
  EXPECT_THROW(refused.start(), ConfigError);
  // Refused before anything started: no listener, no thread.
  EXPECT_EQ(refused.port(), 0);
  EXPECT_EQ(refused.metrics_port(), 0);
  EXPECT_EQ(thread_count(), threads_before);

  config.metrics_bind_any = true;
  server::MyProxyServer opted_in(make_host("metrics-bind-any-myproxy"),
                                 make_trust_store(), make_repo(), config);
  opted_in.start();
  EXPECT_NE(opted_in.metrics_port(), 0);
  opted_in.stop();
}

// --- Histogram unit behaviour -------------------------------------------------

TEST(MetricsHistogram, BucketBoundaryMath) {
  // Upper bounds are inclusive powers of two; a sample lands in the first
  // bucket that covers it.
  EXPECT_EQ(LatencyHistogram::bucket_index(0), 0u);
  EXPECT_EQ(LatencyHistogram::bucket_index(1), 0u);
  EXPECT_EQ(LatencyHistogram::bucket_index(2), 1u);
  EXPECT_EQ(LatencyHistogram::bucket_index(3), 2u);
  EXPECT_EQ(LatencyHistogram::bucket_index(4), 2u);
  EXPECT_EQ(LatencyHistogram::bucket_index(5), 3u);
  EXPECT_EQ(LatencyHistogram::bucket_index(1024), 10u);
  EXPECT_EQ(LatencyHistogram::bucket_index(1025), 11u);
  // Everything past the last finite bound lands in the overflow bucket.
  EXPECT_EQ(LatencyHistogram::bucket_index(std::uint64_t{1} << 40),
            LatencyHistogram::kBuckets - 1);
}

TEST(MetricsHistogram, ConcurrentRecordsAllLand) {
  LatencyHistogram histogram;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram, t] {
      for (int i = 0; i < kPerThread; ++i) {
        histogram.record(static_cast<std::uint64_t>(t * 1000 + i));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const auto snapshot = histogram.snapshot();
  EXPECT_EQ(snapshot.total,
            static_cast<std::uint64_t>(kThreads * kPerThread));
  std::uint64_t across_buckets = 0;
  for (const auto count : snapshot.counts) across_buckets += count;
  EXPECT_EQ(across_buckets, snapshot.total);
}

TEST(MetricsHistogram, RenderedCumulativeSeriesIsConsistent) {
  LatencyHistogram histogram;
  histogram.record(1);
  histogram.record(3);
  histogram.record(100);
  std::string out;
  server::append_histogram(out, "probe_us", "op=\"X\"",
                           histogram.snapshot());
  const auto samples = parse_samples(out);
  EXPECT_EQ(samples.at("probe_us_bucket{op=\"X\",le=\"1\"}"), 1u);
  EXPECT_EQ(samples.at("probe_us_bucket{op=\"X\",le=\"4\"}"), 2u);
  EXPECT_EQ(samples.at("probe_us_bucket{op=\"X\",le=\"128\"}"), 3u);
  EXPECT_EQ(samples.at("probe_us_bucket{op=\"X\",le=\"+Inf\"}"), 3u);
  EXPECT_EQ(samples.at("probe_us_count{op=\"X\"}"), 3u);
  EXPECT_EQ(samples.at("probe_us_sum{op=\"X\"}"), 104u);
}

}  // namespace
}  // namespace myproxy
