// The benchmark's own tests: percentile ranks, due-time accounting, seeded
// draws, metric names, and failure counting.
#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "core.hpp"
#include "stack.hpp"

namespace perfbench {
namespace {

TEST(Percentile, NearestRankAndSampleCount) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  const Rank p50 = percentile(v, 0.50);
  EXPECT_EQ(p50.value, 50);
  EXPECT_EQ(p50.samples, 100u);
  EXPECT_EQ(p50.beyond, 50u);
  const Rank p99 = percentile(v, 0.99);
  EXPECT_EQ(p99.value, 99);
  EXPECT_EQ(p99.beyond, 1u);
  EXPECT_EQ(percentile({7.0}, 0.9).value, 7.0);
  EXPECT_EQ(percentile({}, 0.5).samples, 0u);
  EXPECT_EQ(percentile({3, 1, 2}, 0.0).value, 1);
  EXPECT_EQ(percentile({3, 1, 2}, 1.0).value, 3);
}

TEST(OpenLoop, StalledOpMakesLaterOpsLate) {
  // One generator thread at 100 ops/s: op 0 stalls 200 ms, so ops 1..19
  // start late and their latency from the due time carries the wait.
  const auto result = run_open_loop(
      100.0, std::chrono::milliseconds(300), 1,
      [](std::size_t, std::uint64_t i) {
        if (i == 0) std::this_thread::sleep_for(std::chrono::milliseconds(200));
        return true;
      });
  ASSERT_EQ(result.ops.size(), 30u);
  EXPECT_GE(result.ops[0].latency_ms(), 200.0);
  EXPECT_GE(result.ops[1].late_ms(), 180.0);
  EXPECT_GE(result.ops[1].latency_ms(), 180.0);
  EXPECT_GE(result.ops[10].late_ms(), 90.0);
  // Once the backlog drains, ops start on time again.
  EXPECT_LT(result.ops[29].late_ms(), 50.0);
  for (std::size_t i = 0; i < result.ops.size(); ++i) {
    EXPECT_NEAR(result.ops[i].due_ms, 10.0 * static_cast<double>(i), 1.0);
  }
}

TEST(Draws, DeterministicForASeed) {
  const Zipf zipf(1000, 1.1);
  Rng a(42);
  Rng b(42);
  Rng c(43);
  std::vector<std::size_t> da;
  std::vector<std::size_t> db;
  std::vector<std::size_t> dc;
  for (int i = 0; i < 1000; ++i) {
    da.push_back(zipf(a));
    db.push_back(zipf(b));
    dc.push_back(zipf(c));
  }
  EXPECT_EQ(da, db);
  EXPECT_NE(da, dc);
  Rng u1 = Rng(7).fork(3);
  Rng u2 = Rng(7).fork(3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(u1.uniform(20480), u2.uniform(20480));
  EXPECT_NE(Rng(7).fork(3).next(), Rng(7).fork(4).next());
}

TEST(Draws, ZipfFavoursLowRanksAndUniformCoversRange) {
  const Zipf zipf(1000, 1.1);
  Rng rng(1);
  std::size_t top = 0;
  std::set<std::size_t> seen;
  for (int i = 0; i < 20000; ++i) {
    const std::size_t r = zipf(rng);
    ASSERT_LT(r, 1000u);
    top += r == 0 ? 1 : 0;
    seen.insert(rng.uniform(16));
  }
  // P(rank 0) for zipf(1.1) over 1000 ranks is about 0.16.
  EXPECT_GT(top, 2400u);
  EXPECT_LT(top, 4000u);
  EXPECT_EQ(seen.size(), 16u);
}

TEST(Metrics, NamesUseOnlyAllowedCharacters) {
  std::set<std::string_view> names;
  for (const auto& m : kEndToEnd) {
    EXPECT_TRUE(valid_metric_name(m.name)) << m.name;
    EXPECT_TRUE(names.insert(m.name).second) << m.name;
  }
  for (const auto& m : kPerLayer) {
    EXPECT_TRUE(valid_metric_name(m.name)) << m.name;
    EXPECT_TRUE(names.insert(m.name).second) << m.name;
  }
  EXPECT_FALSE(valid_metric_name("p50 ms"));
  EXPECT_FALSE(valid_metric_name("_p50"));
  EXPECT_FALSE(valid_metric_name("p50/ms"));
}

TEST(Failures, CountedNotDropped) {
  // Every third op fails (returns false or throws): all are attempted, the
  // failures are counted, and they enter the latency sample as +inf.
  const auto result = run_closed_loop(
      std::chrono::milliseconds(50), 2, [](std::size_t, std::uint64_t i) {
        if (i % 3 == 1) return false;
        if (i % 3 == 2) throw std::runtime_error("refused");
        return true;
      });
  Tally tally;
  tally.add(result.ops);
  ASSERT_GT(tally.attempted, 3u);
  std::uint64_t expected_failed = 0;
  for (const auto& op : result.ops) expected_failed += op.index % 3 != 0;
  EXPECT_EQ(tally.failed, expected_failed);
  EXPECT_NEAR(tally.fail_frac(),
              static_cast<double>(expected_failed) /
                  static_cast<double>(tally.attempted),
              1e-12);
  const auto lat = latencies_ms(result.ops);
  EXPECT_EQ(lat.size(), result.ops.size());
  EXPECT_TRUE(std::isinf(percentile(lat, 0.99).value));
}

TEST(Failures, CheckMarksOpFailedAndItsCpuIsKeptApart) {
  // The check of op 1 rejects its output; the check of every op burns CPU
  // that must not count as the generator's.
  const auto spin = [](std::chrono::milliseconds d) {
    const double until = thread_cpu_s() + std::chrono::duration<double>(d).count();
    while (thread_cpu_s() < until) {
    }
  };
  const auto result = run_open_loop(
      100.0, std::chrono::milliseconds(50), 1,
      [](std::size_t, std::uint64_t) { return true; },
      [&spin](std::size_t, std::uint64_t i) {
        spin(std::chrono::milliseconds(5));
        return i != 1;
      });
  ASSERT_EQ(result.ops.size(), 5u);
  Tally tally;
  tally.add(result.ops);
  EXPECT_EQ(tally.failed, 1u);
  EXPECT_FALSE(result.ops[1].ok);
  EXPECT_GE(result.check_cpu_s, 0.025);
  EXPECT_LT(result.generator_cpu_s, 0.01);
}

TEST(Goodput, MedianOfWholeSecondWindows) {
  // 10, 12 and 11 successes in three whole windows; the failed op and the
  // partial fourth window do not count.
  std::vector<OpRecord> ops;
  const auto add = [&ops](double end_ms, bool ok) {
    OpRecord rec;
    rec.end_ms = end_ms;
    rec.ok = ok;
    ops.push_back(rec);
  };
  for (int i = 0; i < 10; ++i) add(50.0 * i, true);
  for (int i = 0; i < 12; ++i) add(1000.0 + 50.0 * i, true);
  for (int i = 0; i < 11; ++i) add(2000.0 + 50.0 * i, true);
  add(2900.0, false);
  add(3100.0, true);
  EXPECT_EQ(windowed_ops_per_s(ops, 3.5), 11.0);
}

TEST(Spans, JoinByUsernameWithinInterval) {
  std::vector<Span> spans = {
      {"client.op", "alice", 7, 100, 1000},
      {"client.op", "bob", 8, 100, 1000},
      {"store.front.get", "alice", 0, 200, 500},
      {"store.back.get", "alice", 0, 300, 400},
      {"store.front.get", "bob", 0, 600, 900},
      {"store.front.get", "alice", 0, 2000, 2100},  // outside any op
  };
  join_spans(spans);
  EXPECT_EQ(spans[2].req, 7u);
  EXPECT_EQ(spans[3].req, 7u);
  EXPECT_EQ(spans[4].req, 8u);
  EXPECT_EQ(spans[5].req, 0u);
  const auto self = self_time_us_per_op(spans);
  // alice: op 900 - 300 = 600 ns self; bob: 900 - 300 = 600 ns.
  EXPECT_DOUBLE_EQ(self.at("client.op"), 0.6);
  // front self: alice 300 - 100 = 200 ns, bob 300 ns -> 0.25 us per op.
  EXPECT_DOUBLE_EQ(self.at("store.front.get"), 0.25);
  EXPECT_DOUBLE_EQ(self.at("store.back.get"), 0.05);
}

}  // namespace
}  // namespace perfbench
