// Pure pieces of the benchmark: seeded draws, percentiles, the open-loop
// schedule and the metric tables. Kept free of the server stack so
// selftest.cpp can check them in isolation.
#pragma once

#include <time.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

// --- Seeded draws --------------------------------------------------------------

/// splitmix64: a tiny generator whose output is fixed by its seed on every
/// platform and standard library (std:: distributions are not).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  /// Uniform in [0, n).
  std::size_t uniform(std::size_t n) {
    return static_cast<std::size_t>(unit() * static_cast<double>(n));
  }

  /// Independent stream `index` derived from this generator's seed.
  [[nodiscard]] Rng fork(std::uint64_t index) const {
    Rng child(state_ ^ (index * 0xd6e8feb86659fd93ULL));
    child.next();
    return child;
  }

 private:
  std::uint64_t state_;
};

/// Zipf(s) over ranks 0..n-1 (rank 0 the most popular), by inverse CDF.
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = total;
    }
    for (double& c : cdf_) c /= total;
  }

  std::size_t operator()(Rng& rng) const {
    const double u = rng.unit();
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                                 cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// Short lowercase alphanumeric token (names, pass phrases).
inline std::string token(Rng& rng, std::size_t length) {
  static constexpr std::string_view kAlphabet =
      "abcdefghijklmnopqrstuvwxyz0123456789";
  std::string out;
  for (std::size_t i = 0; i < length; ++i) {
    out += kAlphabet[rng.uniform(kAlphabet.size())];
  }
  return out;
}

// --- Percentiles -----------------------------------------------------------------

/// Nearest-rank percentile: the smallest value with at least q of the
/// samples at or below it. `beyond` is how many samples lie above that
/// rank — the guide's rule is to report the highest percentile that still
/// has ten or more.
struct Rank {
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};

inline Rank percentile(std::vector<double> values, double q) {
  Rank rank;
  rank.samples = values.size();
  if (values.empty()) return rank;
  auto k = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  k = std::clamp<std::size_t>(k, 1, values.size());
  std::nth_element(values.begin(), values.begin() + (k - 1), values.end());
  rank.value = values[k - 1];
  rank.beyond = values.size() - k;
  return rank;
}

inline double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5).value;
}

// --- Load generation -------------------------------------------------------------

/// One client operation as the generator saw it. Times are relative to the
/// phase start, in milliseconds. `due` is when the schedule wanted the
/// request sent; closed-loop ops are due when they start.
struct OpRecord {
  double due_ms = 0.0;
  double start_ms = 0.0;
  double end_ms = 0.0;
  bool ok = false;
  std::uint64_t index = 0;

  /// Latency as the user sees it: from the due time, so a stall also
  /// delays every op queued behind it.
  [[nodiscard]] double latency_ms() const { return end_ms - due_ms; }
  [[nodiscard]] double late_ms() const { return start_ms - due_ms; }
};

/// Load generator threads: one per core, at most four (one per portal
/// identity). Set-up work is spread over as many.
inline std::size_t generator_threads() {
  return std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
}

/// An operation: (generator thread, op index) -> succeeded. Exceptions
/// count as failures.
using OpFn = std::function<bool(std::size_t thread, std::uint64_t index)>;

/// Output check of the op a generator thread just ran, called after the
/// op's end is stamped: false (or an exception) marks the op failed. Its
/// CPU is counted apart (check_cpu_s), so neither the client's nor the
/// server's CPU per op includes the benchmark's own checking.
using CheckFn = std::function<bool(std::size_t thread, std::uint64_t index)>;

struct PhaseResult {
  std::vector<OpRecord> ops;
  double wall_s = 0.0;
  /// CLOCK_THREAD_CPUTIME_ID seconds spent by the generator threads in
  /// their ops, and in checking the ops' outputs.
  double generator_cpu_s = 0.0;
  double check_cpu_s = 0.0;
};

inline double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

namespace detail {
inline bool run_guarded(const OpFn& op, std::size_t thread,
                        std::uint64_t index) {
  try {
    return op(thread, index);
  } catch (...) {
    return false;
  }
}

/// Run `check` on a succeeded op; returns the thread CPU seconds it took.
inline double check_op(const CheckFn& check, std::size_t thread,
                       OpRecord& rec) {
  if (!check || !rec.ok) return 0.0;
  const double cpu0 = thread_cpu_s();
  rec.ok = run_guarded(check, thread, rec.index);
  return thread_cpu_s() - cpu0;
}
}  // namespace detail

/// Open loop: op i is due at i / rate seconds after the phase start; ops
/// are issued while their due time is within `duration`. `threads`
/// generator threads each take the next op in order, wait for its due
/// time, and run it — if every thread is busy, the op starts late and its
/// latency (end minus due) carries that wait.
inline PhaseResult run_open_loop(double rate, std::chrono::duration<double> duration,
                                 std::size_t threads, const OpFn& op,
                                 const CheckFn& check = nullptr) {
  const auto total = static_cast<std::uint64_t>(
      std::max(1.0, std::floor(rate * duration.count())));
  PhaseResult result;
  result.ops.resize(total);
  std::atomic<std::uint64_t> next{0};
  std::vector<double> cpu(threads, 0.0);
  std::vector<double> checking(threads, 0.0);
  const auto t0 = Clock::now();
  const auto ms_since = [t0](Clock::time_point t) {
    return std::chrono::duration<double, std::milli>(t - t0).count();
  };
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      const double cpu0 = thread_cpu_s();
      for (std::uint64_t i = next.fetch_add(1); i < total;
           i = next.fetch_add(1)) {
        const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(
                                      static_cast<double>(i) / rate));
        std::this_thread::sleep_until(due);
        OpRecord& rec = result.ops[i];
        rec.index = i;
        rec.due_ms = ms_since(due);
        rec.start_ms = ms_since(Clock::now());
        rec.ok = detail::run_guarded(op, t, i);
        rec.end_ms = ms_since(Clock::now());
        checking[t] += detail::check_op(check, t, rec);
      }
      cpu[t] = thread_cpu_s() - cpu0 - checking[t];
    });
  }
  for (auto& w : workers) w.join();
  result.wall_s = ms_since(Clock::now()) / 1000.0;
  for (std::size_t t = 0; t < threads; ++t) {
    result.generator_cpu_s += cpu[t];
    result.check_cpu_s += checking[t];
  }
  return result;
}

/// Closed loop: `threads` clients each issue their next op as soon as the
/// previous one returns, until `duration` has passed. Op indices are
/// handed out in order across clients.
inline PhaseResult run_closed_loop(std::chrono::duration<double> duration,
                                   std::size_t threads, const OpFn& op,
                                   const CheckFn& check = nullptr) {
  PhaseResult result;
  std::atomic<std::uint64_t> next{0};
  std::vector<std::vector<OpRecord>> per_thread(threads);
  std::vector<double> cpu(threads, 0.0);
  std::vector<double> checking(threads, 0.0);
  const auto t0 = Clock::now();
  const auto stop = t0 + std::chrono::duration_cast<Clock::duration>(duration);
  const auto ms_since = [t0](Clock::time_point t) {
    return std::chrono::duration<double, std::milli>(t - t0).count();
  };
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      const double cpu0 = thread_cpu_s();
      while (Clock::now() < stop) {
        OpRecord rec;
        rec.index = next.fetch_add(1);
        rec.start_ms = rec.due_ms = ms_since(Clock::now());
        rec.ok = detail::run_guarded(op, t, rec.index);
        rec.end_ms = ms_since(Clock::now());
        checking[t] += detail::check_op(check, t, rec);
        per_thread[t].push_back(rec);
      }
      cpu[t] = thread_cpu_s() - cpu0 - checking[t];
    });
  }
  for (auto& w : workers) w.join();
  result.wall_s = ms_since(Clock::now()) / 1000.0;
  for (std::size_t t = 0; t < threads; ++t) {
    result.generator_cpu_s += cpu[t];
    result.check_cpu_s += checking[t];
  }
  for (auto& ops : per_thread) {
    result.ops.insert(result.ops.end(), ops.begin(), ops.end());
  }
  std::sort(result.ops.begin(), result.ops.end(),
            [](const OpRecord& a, const OpRecord& b) {
              return a.index < b.index;
            });
  return result;
}

/// Latencies of every op in `ops`; a failed op counts as missing any
/// latency limit, so it enters as +infinity rather than being dropped.
inline std::vector<double> latencies_ms(const std::vector<OpRecord>& ops) {
  std::vector<double> out;
  out.reserve(ops.size());
  for (const auto& op : ops) {
    out.push_back(op.ok ? op.latency_ms()
                        : std::numeric_limits<double>::infinity());
  }
  return out;
}

/// Goodput as the median over whole one-second windows of the phase of the
/// ops that succeeded in each window: a burst of interference from outside
/// the benchmark moves one window, not the result.
inline double windowed_ops_per_s(const std::vector<OpRecord>& ops,
                                 double wall_s) {
  const auto windows = static_cast<std::size_t>(wall_s);
  if (windows == 0) return 0.0;
  std::vector<double> counts(windows, 0.0);
  for (const auto& op : ops) {
    const auto w = static_cast<std::size_t>(op.end_ms / 1000.0);
    if (op.ok && w < windows) counts[w] += 1.0;
  }
  return median(std::move(counts));
}

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void add(const std::vector<OpRecord>& ops) {
    attempted += ops.size();
    for (const auto& op : ops) failed += op.ok ? 0 : 1;
  }
  [[nodiscard]] double fail_frac() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

// --- Metric tables ---------------------------------------------------------------

struct MetricSpec {
  std::string_view name;
  std::string_view unit;
  /// Per-layer metrics: the end-to-end metric and workload a change to
  /// this layer should move, and where it should stay flat.
  std::string_view moves = {};
};

/// Printed with --trace 0 (BENCHMARK.json "end_to_end"), from the
/// closed-loop phase: the figures that repeat from run to run on a shared
/// host. Open-loop latency at a fixed rate drifts with the host's wake-up
/// latency while CPU per op and goodput hold (ten runs of one build spread
/// by 16-27% between quartiles at the median and 31-50% at p90 on a 4-vCPU
/// VM), more than a regression bound can absorb, so it is reported ungated
/// as gen.p50_ms/gen.p90_ms by the traced run. fail_frac is carried by the
/// result's "failed"/"attempted" fields: a healthy run has none, and a
/// metric that reads 0 cannot carry a relative bound.
inline constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"ops_per_s", "1/s"},
    {"server_cpu_ms_per_op", "ms"},
    {"client_cpu_ms_per_op", "ms"},
    {"peak_rss_mb", "MB"},
};

/// Printed with --trace 1 (BENCHMARK.json "per_layer").
inline constexpr MetricSpec kPerLayer[] = {
    {"server.dispatch_p50_ms", "ms", "gen.p50_ms on all"},
    {"server.outside_dispatch_ms", "ms",
     "gen.p50_ms, ops_per_s on all (handshake, reactor->worker wait, client, I/O)"},
    {"server.peak_in_flight", "count", "fail_frac; flat on all"},
    {"admission.shed", "count", "fail_frac; must be 0 on all"},
    {"tls.resumed_frac", "frac",
     "gen.p50_ms on portal_get; ~0 on job_renew, user_init"},
    {"tls.full_handshake_us", "us", "gen.p50_ms on job_renew, user_init"},
    {"tls.resumed_handshake_us", "us", "gen.p50_ms on portal_get"},
    {"pki.chain_verify_us", "us",
     "gen.p50_ms, server_cpu_ms_per_op on job_renew, user_init; flat on portal_get"},
    {"gsi.delegate_us", "us",
     "server_cpu_ms_per_op, client_cpu_ms_per_op on portal_get, job_renew"},
    {"gsi.complete_us", "us",
     "server_cpu_ms_per_op, client_cpu_ms_per_op on portal_get, job_renew"},
    {"crypto.keygen_us", "us",
     "client_cpu_ms_per_op on portal_get, job_renew; gen.p50_ms on user_init"},
    {"keypool.hit_frac", "frac", "gen.p50_ms on user_init (0 when unused)"},
    {"crypto.kdf_us", "us",
     "server_cpu_ms_per_op, gen.p50_ms on portal_get, user_init; flat on job_renew"},
    {"repo.open_us", "us",
     "server_cpu_ms_per_op, gen.p50_ms on portal_get, user_init; flat on job_renew"},
    {"repo.store_us", "us",
     "server_cpu_ms_per_op, gen.p50_ms on portal_get, user_init; flat on job_renew"},
    {"store.front.get_per_op", "count",
     "server_cpu_ms_per_op on portal_get, job_renew; flat on user_init"},
    {"store.front.get_us", "us",
     "server_cpu_ms_per_op on portal_get, job_renew; flat on user_init"},
    {"store.cache_hit_frac", "frac",
     "gen.p50_ms on job_renew; ~1 on portal_get"},
    {"store.back.get_us", "us", "gen.p50_ms on job_renew; flat on portal_get"},
    {"store.back.put_us", "us",
     "gen.p50_ms, ops_per_s on user_init; flat on portal_get"},
    {"store.put_per_op", "count",
     "gen.p50_ms, ops_per_s on user_init; flat on portal_get"},
    {"repl.journal_us", "us", "gen.p50_ms, ops_per_s on user_init; 0 on reads"},
    {"repl.lag_p50_ms", "ms", "replica staleness on user_init"},
    {"repl.lag_p90_ms", "ms", "replica staleness on user_init"},
    {"gen.p50_ms", "ms", "open-loop latency from due time: what users wait on"},
    {"gen.p90_ms", "ms", "open-loop latency from due time: what users wait on"},
    {"gen.p99_ms", "ms", "open-loop latency from due time (few samples)"},
    {"gen.late_p90_ms", "ms", "validity of the open-loop phase"},
    {"gen.samples", "count", "validity of the open-loop phase"},
    {"trace.overhead_frac", "frac", "traced vs untraced gen.p50_ms"},
    {"unattributed_ms", "ms",
     "gen.p50_ms minus replayed layer costs; the waterfall work must shrink it"},
};

inline bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  if (std::isalnum(static_cast<unsigned char>(name.front())) == 0) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_' ||
           c == '.' || c == '-';
  });
}

}  // namespace perfbench
