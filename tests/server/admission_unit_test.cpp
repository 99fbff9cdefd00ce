// Unit and property tests for the admission layer: token-bucket refill
// math at boundary timestamps, burst exhaustion/recovery, the per-identity
// in-flight cap, no token creation under concurrent take(), hot-reload
// generation semantics, and the ±10% equal-share fairness property.
#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <thread>
#include <vector>

#include "common/config.hpp"
#include "common/error.hpp"
#include "server/admission.hpp"

namespace myproxy::server {
namespace {

using Clock = TokenBucket::Clock;

Clock::time_point base_time() {
  // Any fixed epoch works: the bucket only looks at differences.
  return Clock::time_point(std::chrono::seconds(1000));
}

// --- TokenBucket -------------------------------------------------------------

TEST(TokenBucketTest, StartsFullAndDrainsToRefusal) {
  const auto t0 = base_time();
  TokenBucket bucket(10.0, 5.0, t0);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(bucket.try_take(1.0, t0)) << "take " << i;
  }
  Millis retry{0};
  EXPECT_FALSE(bucket.try_take(1.0, t0, &retry));
  // One token at 10/s is 100 ms away.
  EXPECT_GE(retry.count(), 1);
  EXPECT_LE(retry.count(), 100);
}

TEST(TokenBucketTest, RefillAtExactBoundaryTimestamp) {
  const auto t0 = base_time();
  TokenBucket bucket(10.0, 10.0, t0);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(bucket.try_take(1.0, t0));
  ASSERT_FALSE(bucket.try_take(1.0, t0));
  // Exactly 100 ms later exactly one token has accrued: the first take
  // succeeds and the second fails again.
  const auto t1 = t0 + Millis(100);
  EXPECT_TRUE(bucket.try_take(1.0, t1));
  EXPECT_FALSE(bucket.try_take(1.0, t1));
}

TEST(TokenBucketTest, SameTimestampMintsNothing) {
  const auto t0 = base_time();
  TokenBucket bucket(1000.0, 1.0, t0);
  EXPECT_TRUE(bucket.try_take(1.0, t0));
  // Re-asking at the identical timestamp must not manufacture tokens no
  // matter how high the rate is.
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(bucket.try_take(1.0, t0));
  }
}

TEST(TokenBucketTest, RewoundClockMintsNothing) {
  const auto t0 = base_time();
  TokenBucket bucket(100.0, 2.0, t0);
  ASSERT_TRUE(bucket.try_take(1.0, t0));
  ASSERT_TRUE(bucket.try_take(1.0, t0));
  // A now earlier than the last refill (virtualized-clock oddity) refills
  // nothing rather than computing a negative elapsed.
  EXPECT_FALSE(bucket.try_take(1.0, t0 - Millis(500)));
  // Time moving forward again resumes normal refill from t0.
  EXPECT_TRUE(bucket.try_take(1.0, t0 + Millis(10)));
}

TEST(TokenBucketTest, BurstExhaustionAndFullRecovery) {
  const auto t0 = base_time();
  TokenBucket bucket(5.0, 20.0, t0);
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(bucket.try_take(1.0, t0));
  ASSERT_FALSE(bucket.try_take(1.0, t0));
  // After 4 s at 5/s the bucket holds exactly the full burst again — and
  // not more, however long it idles.
  const auto t1 = t0 + std::chrono::seconds(100);
  EXPECT_DOUBLE_EQ(bucket.tokens(t1), 20.0);
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(bucket.try_take(1.0, t1));
  EXPECT_FALSE(bucket.try_take(1.0, t1));
}

TEST(TokenBucketTest, ZeroRateMeansUnlimited) {
  const auto t0 = base_time();
  TokenBucket bucket(0.0, 0.0, t0);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(bucket.try_take(1.0, t0));
  }
}

TEST(TokenBucketTest, ZeroBurstDerivesFromRate) {
  const auto t0 = base_time();
  TokenBucket bucket(4.0, 0.0, t0);  // effective burst = max(1, rate) = 4
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(bucket.try_take(1.0, t0));
  EXPECT_FALSE(bucket.try_take(1.0, t0));
}

TEST(TokenBucketTest, ReconfigureClampsToNewBurst) {
  const auto t0 = base_time();
  TokenBucket bucket(10.0, 100.0, t0);
  bucket.configure(10.0, 3.0);
  EXPECT_DOUBLE_EQ(bucket.tokens(t0), 3.0);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(bucket.try_take(1.0, t0));
  EXPECT_FALSE(bucket.try_take(1.0, t0));
}

TEST(TokenBucketTest, RetryAfterScalesWithDeficit) {
  const auto t0 = base_time();
  TokenBucket bucket(2.0, 1.0, t0);
  ASSERT_TRUE(bucket.try_take(1.0, t0));
  Millis retry{0};
  ASSERT_FALSE(bucket.try_take(1.0, t0, &retry));
  // One token at 2/s: 500 ms to wait.
  EXPECT_EQ(retry.count(), 500);
}

TEST(TokenBucketConcurrency, NoTokenCreationUnderConcurrentTake) {
  // Real clock, many threads, short window: the number of successful takes
  // is bounded by burst + rate * elapsed (+1 for rounding). Run under TSan
  // via sanitize_smoke to check the locking too.
  constexpr double kRate = 200.0;
  constexpr double kBurst = 50.0;
  TokenBucket bucket(kRate, kBurst, Clock::now());
  std::atomic<std::uint64_t> admitted{0};
  std::atomic<bool> go{false};
  const auto started = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(8);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      while (!go.load()) {
      }
      for (int i = 0; i < 5000; ++i) {
        if (bucket.try_take(1.0, Clock::now())) {
          admitted.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  go.store(true);
  for (auto& t : threads) t.join();
  const double elapsed_s =
      std::chrono::duration<double>(Clock::now() - started).count();
  const double bound = kBurst + kRate * elapsed_s + 1.0;
  EXPECT_LE(static_cast<double>(admitted.load()), bound)
      << "admitted " << admitted.load() << " in " << elapsed_s << " s";
}

// --- FairQueue ---------------------------------------------------------------

TEST(FairQueueTest, HardPerIdentityCapBinds) {
  FairQueue queue(3);
  EXPECT_TRUE(queue.try_enter("A"));
  EXPECT_TRUE(queue.try_enter("A"));
  EXPECT_TRUE(queue.try_enter("A"));
  EXPECT_FALSE(queue.try_enter("A"));  // hard cap; B is unaffected
  EXPECT_TRUE(queue.try_enter("B"));
}

TEST(FairQueueTest, ZeroCapacityMeansUnlimited) {
  FairQueue queue(0);
  for (int i = 0; i < 1000; ++i) ASSERT_TRUE(queue.try_enter("A"));
}

TEST(FairQueueTest, ReconfigureAppliesToNextEntry) {
  FairQueue queue(2);
  ASSERT_TRUE(queue.try_enter("A"));
  ASSERT_TRUE(queue.try_enter("A"));
  ASSERT_FALSE(queue.try_enter("A"));
  queue.configure(4);
  EXPECT_TRUE(queue.try_enter("A"));
  EXPECT_TRUE(queue.try_enter("A"));
  EXPECT_FALSE(queue.try_enter("A"));
}

// --- AdmissionController -----------------------------------------------------

TEST(AdmissionControllerTest, RateShedCarriesRetryAfterAndCounters) {
  AdmissionLimits limits;
  limits.rate_limit_rps = 2.0;
  limits.rate_limit_burst = 1.0;
  AdmissionController controller(limits);
  const auto t0 = base_time();

  AdmissionDecision first = controller.admit("dn-a", t0);
  EXPECT_TRUE(first.admitted);
  controller.release("dn-a");

  AdmissionDecision second = controller.admit("dn-a", t0);
  EXPECT_FALSE(second.admitted);
  EXPECT_STREQ(second.reason, "rate");
  EXPECT_EQ(second.retry_after.count(), 500);

  // A different identity has its own bucket.
  AdmissionDecision other = controller.admit("dn-b", t0);
  EXPECT_TRUE(other.admitted);
  controller.release("dn-b");

  const auto counters = controller.counters();
  EXPECT_EQ(counters.accepted, 2u);
  EXPECT_EQ(counters.shed_rate, 1u);
  EXPECT_EQ(counters.shed_queue, 0u);
  EXPECT_EQ(counters.queued, 0u);
  EXPECT_EQ(counters.identities, 2u);
}

TEST(AdmissionControllerTest, QueueShedWhenIdentityHoldsItsShare) {
  AdmissionLimits limits;
  limits.max_queued_per_identity = 4;
  AdmissionController controller(limits);
  const auto t0 = base_time();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(controller.admit("dn-a", t0).admitted);
  }
  const AdmissionDecision shed = controller.admit("dn-a", t0);
  EXPECT_FALSE(shed.admitted);
  EXPECT_STREQ(shed.reason, "queue");
  EXPECT_GT(shed.retry_after.count(), 0);
  EXPECT_EQ(controller.counters().queued, 4u);
  for (int i = 0; i < 4; ++i) controller.release("dn-a");
  EXPECT_EQ(controller.counters().queued, 0u);
}

TEST(AdmissionControllerTest, HotReloadAppliesToNextDecision) {
  AdmissionLimits limits;
  limits.rate_limit_rps = 1000.0;
  limits.rate_limit_burst = 1000.0;
  AdmissionController controller(limits);
  const auto t0 = base_time();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(controller.admit("dn-a", t0).admitted);
    controller.release("dn-a");
  }
  // Tighten mid-run: the existing bucket is lazily reconfigured on its
  // next take (generation bump). Accumulated tokens clamp to the new
  // burst of one, so a single take still succeeds and then the tightened
  // rate binds with no refill at t0.
  AdmissionLimits tightened = limits;
  tightened.rate_limit_rps = 1.0;
  tightened.rate_limit_burst = 1.0;
  controller.set_limits(tightened);
  EXPECT_EQ(controller.limits().rate_limit_rps, 1.0);
  ASSERT_TRUE(controller.admit("dn-a", t0).admitted);
  controller.release("dn-a");
  EXPECT_FALSE(controller.admit("dn-a", t0).admitted);
  // Loosening restores the rate but not the spent tokens: nothing until
  // time passes, then the generous rate refills quickly.
  controller.set_limits(limits);
  EXPECT_FALSE(controller.admit("dn-a", t0).admitted);
  EXPECT_TRUE(controller.admit("dn-a", t0 + Millis(10)).admitted);
  controller.release("dn-a");
}

TEST(AdmissionControllerTest, PreauthBucketIsSeparateFromIdentityBucket) {
  AdmissionLimits limits;
  limits.rate_limit_rps = 1000.0;
  limits.preauth_rate_limit_rps = 1.0;
  limits.preauth_rate_limit_burst = 2.0;
  AdmissionController controller(limits);
  const auto t0 = base_time();
  EXPECT_TRUE(controller.admit_preauth("10.0.0.1", t0).admitted);
  EXPECT_TRUE(controller.admit_preauth("10.0.0.1", t0).admitted);
  EXPECT_FALSE(controller.admit_preauth("10.0.0.1", t0).admitted);
  // Another address is unaffected, and the DN gate is untouched.
  EXPECT_TRUE(controller.admit_preauth("10.0.0.2", t0).admitted);
  EXPECT_TRUE(controller.admit("dn-a", t0).admitted);
  controller.release("dn-a");
  const auto counters = controller.counters();
  EXPECT_EQ(counters.preauth_accepted, 3u);
  EXPECT_EQ(counters.preauth_shed, 1u);
}

TEST(AdmissionControllerTest, ConfigKeysParseAndRejectGarbage) {
  Config config = Config::parse(
      "rate_limit_rps 12.5\n"
      "rate_limit_burst 40\n"
      "max_queued_per_identity 8\n"
      "preauth_rate_limit_rps 3\n"
      "preauth_rate_limit_burst 6\n");
  const AdmissionLimits limits = admission_limits_from_config(config);
  EXPECT_DOUBLE_EQ(limits.rate_limit_rps, 12.5);
  EXPECT_DOUBLE_EQ(limits.rate_limit_burst, 40.0);
  EXPECT_EQ(limits.max_queued_per_identity, 8u);
  EXPECT_DOUBLE_EQ(limits.preauth_rate_limit_rps, 3.0);
  EXPECT_DOUBLE_EQ(limits.preauth_rate_limit_burst, 6.0);

  EXPECT_THROW((void)admission_limits_from_config(
                   Config::parse("rate_limit_rps banana\n")),
               ConfigError);
  EXPECT_THROW((void)admission_limits_from_config(
                   Config::parse("rate_limit_rps -3\n")),
               ConfigError);
  // Absent keys leave the defaults (everything off).
  const AdmissionLimits defaults =
      admission_limits_from_config(Config::parse("port 7512\n"));
  EXPECT_DOUBLE_EQ(defaults.rate_limit_rps, 0.0);
  EXPECT_EQ(defaults.max_queued_per_identity, 0u);
}

// --- Fairness property -------------------------------------------------------

TEST(AdmissionFairnessProperty, EqualOfferedLoadGetsEqualAdmittedShare) {
  // N identities each offer well above the per-identity rate in a randomly
  // interleaved schedule over simulated time. Each must end within ±10% of
  // the equal share (which, with per-identity buckets, is rate * duration
  // + burst).
  constexpr int kIdentities = 5;
  constexpr double kRate = 20.0;
  constexpr double kBurst = 5.0;
  constexpr int kSeconds = 5;

  AdmissionLimits limits;
  limits.rate_limit_rps = kRate;
  limits.rate_limit_burst = kBurst;
  AdmissionController controller(limits);

  std::mt19937 rng(12345);  // deterministic property run
  std::uniform_int_distribution<int> pick(0, kIdentities - 1);
  std::vector<std::uint64_t> admitted(kIdentities, 0);
  const auto t0 = base_time();

  // ~100 offered attempts per simulated second per identity, interleaved
  // at random: 1 ms simulated ticks, half the identities ask per tick.
  for (int ms = 0; ms < kSeconds * 1000; ++ms) {
    const auto now = t0 + Millis(ms);
    for (int k = 0; k < kIdentities / 2 + 1; ++k) {
      const int who = pick(rng);
      const std::string identity = "tenant-" + std::to_string(who);
      const AdmissionDecision decision = controller.admit(identity, now);
      if (decision.admitted) {
        ++admitted[static_cast<std::size_t>(who)];
        controller.release(identity);
      }
    }
  }

  const double expected = kRate * kSeconds + kBurst;
  for (int i = 0; i < kIdentities; ++i) {
    EXPECT_NEAR(static_cast<double>(admitted[static_cast<std::size_t>(i)]),
                expected, expected * 0.10)
        << "tenant-" << i;
  }
}

}  // namespace
}  // namespace myproxy::server
