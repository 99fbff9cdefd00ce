// Per-identity admission control in front of the crypto dispatch (traffic
// hygiene for the paper's §3 deployment model: many portals fanning out
// requests against one repository).
//
// Two gates, consulted at different points of a connection's life:
//
//   * Pre-auth (peer IP address): a token bucket per client address,
//     consulted by the reactor right after accept, before the TLS
//     handshake or a worker is spent on the connection. Defends the
//     handshake/crypto budget against a single
//     hostile host. Off by default (preauth_rate_limit_rps == 0): a NAT'd
//     portal farm shares one address, so this knob is deliberately
//     separate from the per-DN limits.
//
//   * Post-auth (authenticated DN): a token bucket per identity plus a cap
//     on the requests one identity has in dispatch at once, consulted in
//     the server's dispatch once GSI authentication has named the caller.
//     The buckets are what keep identities apart: dispatch runs on a
//     worker, so the in-flight cap binds only when it is below the worker
//     count. An over-limit request receives a framed busy reply carrying
//     BUSY=1 / RETRY_AFTER_MS=<n> and releases its worker at once; the
//     client's RetryPolicy honours the hint.
//
// Limits hot-reload via AdmissionController::set_limits (driven by the
// server's SIGHUP config re-read) without touching established TLS
// sessions: only the next admission decision sees the new numbers.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/clock.hpp"

namespace myproxy {
class Config;
}

namespace myproxy::server {

struct AdmissionLimits {
  /// Steady-state requests/second allowed per authenticated DN.
  /// 0 disables per-identity rate limiting.
  double rate_limit_rps = 0.0;

  /// Bucket depth: how far a quiet identity may burst above the steady
  /// rate. 0 derives max(1, rate_limit_rps).
  double rate_limit_burst = 0.0;

  /// Cap on requests one identity may have in dispatch at once.
  /// 0 = unlimited.
  std::size_t max_queued_per_identity = 0;

  /// Pre-auth per-peer-address token bucket, consulted before a worker or
  /// TLS handshake is spent on the connection. 0 disables (default: every
  /// loopback/test client shares one address).
  double preauth_rate_limit_rps = 0.0;
  double preauth_rate_limit_burst = 0.0;
};

/// Read admission keys (rate_limit_rps, rate_limit_burst,
/// max_queued_per_identity, preauth_rate_limit_rps,
/// preauth_rate_limit_burst) from a parsed config file. Keys are optional;
/// malformed numbers throw ConfigError.
[[nodiscard]] AdmissionLimits admission_limits_from_config(
    const Config& config);

/// Thread-safe token bucket with an externally supplied clock, so refill
/// math at exact boundary timestamps is unit-testable. rate == 0 means
/// unlimited (every take succeeds without deducting).
class TokenBucket {
 public:
  using Clock = std::chrono::steady_clock;

  TokenBucket() = default;
  TokenBucket(double rate, double burst, Clock::time_point now);

  /// Take `cost` tokens as of `now`. On refusal, *retry_after (when
  /// non-null) receives the time until the bucket will hold `cost` tokens
  /// again. A `now` earlier than the last refill (clock oddity under
  /// virtualization) refills nothing rather than minting tokens.
  [[nodiscard]] bool try_take(double cost, Clock::time_point now,
                              Millis* retry_after = nullptr);

  /// Hot-reload: swap rate/burst. Accumulated tokens are clamped to the
  /// new burst; the refill timestamp is preserved so no elapsed time is
  /// double-counted.
  void configure(double rate, double burst);

  /// Tokens available as of `now` (test observability; does not refill).
  [[nodiscard]] double tokens(Clock::time_point now) const;

 private:
  [[nodiscard]] double effective_burst() const {
    return burst_ > 0.0 ? burst_ : std::max(1.0, rate_);
  }
  /// Tokens after refilling to `now`, without mutating state.
  [[nodiscard]] double refilled(Clock::time_point now) const;

  mutable std::mutex mutex_;
  double rate_ = 0.0;
  double burst_ = 0.0;
  double tokens_ = 0.0;
  Clock::time_point last_{};
};

/// The per-identity in-flight cap: each identity may hold at most
/// `max_per_identity` slots at once (0 = unlimited), the same bound for
/// every DN. It keeps one DN from holding every worker only when the cap
/// is below the worker count. Held counts are striped by identity like the
/// admission buckets, so requests from different identities only contend
/// within a stripe.
class FairQueue {
 public:
  explicit FairQueue(std::size_t max_per_identity);

  /// Claim a slot for `identity`; false when it already holds its cap.
  [[nodiscard]] bool try_enter(const std::string& identity);
  void leave(const std::string& identity);

  /// Applies to the next try_enter; slots already held stay held.
  void configure(std::size_t max_per_identity);
  [[nodiscard]] std::size_t max_per_identity() const {
    return max_per_identity_.load(std::memory_order_relaxed);
  }

  /// Slots currently held (gauge).
  [[nodiscard]] std::size_t active() const;

 private:
  static constexpr std::size_t kStripes = 16;

  struct Stripe {
    std::mutex mutex;
    std::unordered_map<std::string, std::size_t> held;
  };

  std::atomic<std::size_t> max_per_identity_;
  std::atomic<std::size_t> total_{0};
  Stripe stripes_[kStripes];
};

struct AdmissionDecision {
  bool admitted = true;
  /// Client-facing backoff hint (RETRY_AFTER_MS) when refused.
  Millis retry_after{0};
  /// "rate" | "queue" when refused (log/audit detail).
  const char* reason = "";
};

class AdmissionController {
 public:
  using Clock = TokenBucket::Clock;

  explicit AdmissionController(AdmissionLimits limits);

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// Pre-auth gate: one token from the peer address's bucket.
  [[nodiscard]] AdmissionDecision admit_preauth(
      const std::string& peer_address, Clock::time_point now = Clock::now());

  /// Post-auth gate: rate bucket then in-flight slot for the DN. An
  /// admitted call holds its slot until release(identity) — pair them (or
  /// use AdmissionGuard).
  [[nodiscard]] AdmissionDecision admit(const std::string& identity,
                                        Clock::time_point now = Clock::now());
  void release(const std::string& identity);

  /// Hot-reload: applies to the next admission decision; slots already
  /// held and in-flight requests are untouched.
  void set_limits(const AdmissionLimits& limits);
  [[nodiscard]] AdmissionLimits limits() const;

  struct Counters {
    std::uint64_t accepted = 0;          ///< post-auth admissions
    std::uint64_t shed_rate = 0;         ///< refused by a DN token bucket
    std::uint64_t shed_queue = 0;        ///< refused by the in-flight cap
    std::uint64_t preauth_accepted = 0;  ///< pre-auth admissions
    std::uint64_t preauth_shed = 0;      ///< refused by an address bucket
    std::uint64_t queued = 0;            ///< gauge: in-flight slots held
    std::uint64_t identities = 0;        ///< gauge: tracked DN buckets
  };
  [[nodiscard]] Counters counters() const;

  /// One identity's post-auth admission outcomes.
  struct IdentityOutcome {
    std::string identity;
    std::uint64_t served = 0;
    std::uint64_t shed = 0;
  };

  /// The `k` identities shedding hardest (shed desc, then served desc, then
  /// name — deterministic for tests). Answers the operator question "who is
  /// being shed?" that aggregate shed counters cannot.
  [[nodiscard]] std::vector<IdentityOutcome> top_identities(
      std::size_t k) const;

 private:
  /// Identity -> bucket maps are striped: admissions for different
  /// identities only contend within a stripe, and a scrape never holds
  /// more than one stripe lock at a time.
  static constexpr std::size_t kStripes = 16;
  /// Bound per stripe; beyond it the oldest-inserted bucket is evicted
  /// (an evicted identity restarts with a full burst — safe, just lenient).
  static constexpr std::size_t kMaxBucketsPerStripe = 4096;

  struct BucketEntry {
    TokenBucket bucket;
    std::uint64_t generation = 0;  ///< limits generation last configured at
    BucketEntry(double rate, double burst, Clock::time_point now,
                std::uint64_t generation)
        : bucket(rate, burst, now), generation(generation) {}
  };

  struct Stripe {
    mutable std::mutex mutex;
    std::unordered_map<std::string, BucketEntry> buckets;
  };

  /// Take one token from `key`'s bucket in `stripes`, creating (and if
  /// necessary reconfiguring) the bucket under the stripe lock.
  [[nodiscard]] bool bucket_take(Stripe* stripes, const std::string& key,
                                 double rate, double burst,
                                 Clock::time_point now, Millis* retry_after);

  [[nodiscard]] Stripe& stripe_for(Stripe* stripes, const std::string& key);

  /// The limits, read lock-free by every decision (the cap lives in
  /// queue_). A decision racing a reload may pair a new rate with an old
  /// burst, which the next decision corrects.
  std::atomic<double> rate_;
  std::atomic<double> burst_;
  std::atomic<double> preauth_rate_;
  std::atomic<double> preauth_burst_;
  std::atomic<std::uint64_t> generation_{0};

  /// Per-identity served/shed tallies, striped like the buckets. Separate
  /// from BucketEntry so the tally survives rate limiting being off (queue
  /// sheds still name their victim) and bucket eviction.
  struct OutcomeStripe {
    mutable std::mutex mutex;
    std::unordered_map<std::string, std::pair<std::uint64_t, std::uint64_t>>
        counts;  ///< identity -> {served, shed}
  };

  void note_outcome(const std::string& identity, bool served);

  Stripe identity_stripes_[kStripes];
  Stripe preauth_stripes_[kStripes];
  OutcomeStripe outcome_stripes_[kStripes];
  FairQueue queue_;

  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> shed_rate_{0};
  std::atomic<std::uint64_t> shed_queue_{0};
  std::atomic<std::uint64_t> preauth_accepted_{0};
  std::atomic<std::uint64_t> preauth_shed_{0};
};

/// RAII for an admitted identity's in-flight slot.
class AdmissionGuard {
 public:
  AdmissionGuard(AdmissionController& controller, std::string identity)
      : controller_(&controller), identity_(std::move(identity)) {}
  ~AdmissionGuard() {
    if (controller_ != nullptr) controller_->release(identity_);
  }
  AdmissionGuard(const AdmissionGuard&) = delete;
  AdmissionGuard& operator=(const AdmissionGuard&) = delete;
  AdmissionGuard(AdmissionGuard&& other) noexcept
      : controller_(std::exchange(other.controller_, nullptr)),
        identity_(std::move(other.identity_)) {}

 private:
  AdmissionController* controller_;
  std::string identity_;
};

}  // namespace myproxy::server
