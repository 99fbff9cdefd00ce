#include "server/admission.hpp"

#include <cmath>
#include <cstdlib>

#include "common/config.hpp"
#include "common/error.hpp"
#include "common/format.hpp"

namespace myproxy::server {

namespace {

/// FNV-1a over the identity string (the store shards the same way).
std::size_t identity_hash(const std::string& key) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const unsigned char c : key) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  return static_cast<std::size_t>(hash);
}

/// No natural bucket time applies to an in-flight cap refusal; hint a
/// short, jitter-friendly pause so a shed client re-offers after its own
/// requests finish.
constexpr Millis kQueueRetryAfter{100};

/// Strict double parse for config values ("2.5"); rejects trailing junk.
double parse_rate(const Config& config, std::string_view key) {
  const std::string text = config.get_or(key, "0");
  const char* begin = text.c_str();
  char* end = nullptr;
  const double value = std::strtod(begin, &end);
  if (end == begin || *end != '\0' || !(value >= 0.0) ||
      !std::isfinite(value)) {
    throw ConfigError(fmt::format("malformed {}: '{}'", key, text));
  }
  return value;
}

std::size_t parse_count(const Config& config, std::string_view key) {
  const std::int64_t value = config.get_int_or(key, 0);
  if (value < 0) {
    throw ConfigError(fmt::format("{} must be >= 0", key));
  }
  return static_cast<std::size_t>(value);
}

}  // namespace

AdmissionLimits admission_limits_from_config(const Config& config) {
  AdmissionLimits limits;
  limits.rate_limit_rps = parse_rate(config, "rate_limit_rps");
  limits.rate_limit_burst = parse_rate(config, "rate_limit_burst");
  limits.max_queued_per_identity =
      parse_count(config, "max_queued_per_identity");
  limits.preauth_rate_limit_rps =
      parse_rate(config, "preauth_rate_limit_rps");
  limits.preauth_rate_limit_burst =
      parse_rate(config, "preauth_rate_limit_burst");
  return limits;
}

// --- TokenBucket -------------------------------------------------------------

TokenBucket::TokenBucket(double rate, double burst, Clock::time_point now)
    : rate_(rate), burst_(burst), last_(now) {
  tokens_ = effective_burst();
}

double TokenBucket::refilled(Clock::time_point now) const {
  if (now <= last_) return tokens_;  // never mint for a rewound clock
  const double elapsed =
      std::chrono::duration<double>(now - last_).count();
  return std::min(effective_burst(), tokens_ + rate_ * elapsed);
}

bool TokenBucket::try_take(double cost, Clock::time_point now,
                           Millis* retry_after) {
  const std::scoped_lock lock(mutex_);
  if (rate_ <= 0.0) return true;  // unlimited
  tokens_ = refilled(now);
  if (now > last_) last_ = now;
  if (tokens_ >= cost) {
    tokens_ -= cost;
    return true;
  }
  if (retry_after != nullptr) {
    const double missing = cost - tokens_;
    const double seconds = missing / rate_;
    *retry_after = Millis(std::max<std::int64_t>(
        1, static_cast<std::int64_t>(std::ceil(seconds * 1000.0))));
  }
  return false;
}

void TokenBucket::configure(double rate, double burst) {
  const std::scoped_lock lock(mutex_);
  rate_ = rate;
  burst_ = burst;
  tokens_ = std::min(tokens_, effective_burst());
}

double TokenBucket::tokens(Clock::time_point now) const {
  const std::scoped_lock lock(mutex_);
  return refilled(now);
}

// --- FairQueue ---------------------------------------------------------------

FairQueue::FairQueue(std::size_t max_per_identity)
    : max_per_identity_(max_per_identity) {}

bool FairQueue::try_enter(const std::string& identity) {
  const std::size_t cap = max_per_identity_.load(std::memory_order_relaxed);
  Stripe& stripe = stripes_[identity_hash(identity) % kStripes];
  const std::scoped_lock lock(stripe.mutex);
  std::size_t& held = stripe.held[identity];
  if (cap != 0 && held >= cap) return false;
  held += 1;
  total_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void FairQueue::leave(const std::string& identity) {
  Stripe& stripe = stripes_[identity_hash(identity) % kStripes];
  const std::scoped_lock lock(stripe.mutex);
  const auto it = stripe.held.find(identity);
  if (it == stripe.held.end()) return;
  total_.fetch_sub(1, std::memory_order_relaxed);
  if (--it->second == 0) stripe.held.erase(it);
}

void FairQueue::configure(std::size_t max_per_identity) {
  max_per_identity_.store(max_per_identity, std::memory_order_relaxed);
}

std::size_t FairQueue::active() const {
  return total_.load(std::memory_order_relaxed);
}

// --- AdmissionController -----------------------------------------------------

AdmissionController::AdmissionController(AdmissionLimits limits)
    : rate_(limits.rate_limit_rps),
      burst_(limits.rate_limit_burst),
      preauth_rate_(limits.preauth_rate_limit_rps),
      preauth_burst_(limits.preauth_rate_limit_burst),
      queue_(limits.max_queued_per_identity) {}

AdmissionController::Stripe& AdmissionController::stripe_for(
    Stripe* stripes, const std::string& key) {
  return stripes[identity_hash(key) % kStripes];
}

bool AdmissionController::bucket_take(Stripe* stripes,
                                      const std::string& key, double rate,
                                      double burst, Clock::time_point now,
                                      Millis* retry_after) {
  Stripe& stripe = stripe_for(stripes, key);
  const std::uint64_t generation =
      generation_.load(std::memory_order_acquire);
  const std::scoped_lock lock(stripe.mutex);
  auto it = stripe.buckets.find(key);
  if (it == stripe.buckets.end()) {
    if (stripe.buckets.size() >= kMaxBucketsPerStripe) {
      stripe.buckets.erase(stripe.buckets.begin());
    }
    it = stripe.buckets
             .emplace(std::piecewise_construct, std::forward_as_tuple(key),
                      std::forward_as_tuple(rate, burst, now, generation))
             .first;
  } else if (it->second.generation != generation) {
    it->second.bucket.configure(rate, burst);
    it->second.generation = generation;
  }
  return it->second.bucket.try_take(1.0, now, retry_after);
}

AdmissionDecision AdmissionController::admit_preauth(
    const std::string& peer_address, Clock::time_point now) {
  const double rate = preauth_rate_.load(std::memory_order_relaxed);
  const double burst = preauth_burst_.load(std::memory_order_relaxed);
  AdmissionDecision decision;
  if (rate <= 0.0) {
    preauth_accepted_.fetch_add(1, std::memory_order_relaxed);
    return decision;
  }
  if (!bucket_take(preauth_stripes_, peer_address, rate, burst, now,
                   &decision.retry_after)) {
    decision.admitted = false;
    decision.reason = "rate";
    preauth_shed_.fetch_add(1, std::memory_order_relaxed);
    return decision;
  }
  preauth_accepted_.fetch_add(1, std::memory_order_relaxed);
  return decision;
}

AdmissionDecision AdmissionController::admit(const std::string& identity,
                                             Clock::time_point now) {
  const double rate = rate_.load(std::memory_order_relaxed);
  const double burst = burst_.load(std::memory_order_relaxed);
  AdmissionDecision decision;
  if (rate > 0.0 &&
      !bucket_take(identity_stripes_, identity, rate, burst, now,
                   &decision.retry_after)) {
    decision.admitted = false;
    decision.reason = "rate";
    shed_rate_.fetch_add(1, std::memory_order_relaxed);
    note_outcome(identity, false);
    return decision;
  }
  if (!queue_.try_enter(identity)) {
    decision.admitted = false;
    decision.reason = "queue";
    decision.retry_after = kQueueRetryAfter;
    shed_queue_.fetch_add(1, std::memory_order_relaxed);
    note_outcome(identity, false);
    return decision;
  }
  accepted_.fetch_add(1, std::memory_order_relaxed);
  note_outcome(identity, true);
  return decision;
}

void AdmissionController::note_outcome(const std::string& identity,
                                       bool served) {
  OutcomeStripe& stripe =
      outcome_stripes_[identity_hash(identity) % kStripes];
  const std::scoped_lock lock(stripe.mutex);
  auto it = stripe.counts.find(identity);
  if (it == stripe.counts.end()) {
    if (stripe.counts.size() >= kMaxBucketsPerStripe) {
      stripe.counts.erase(stripe.counts.begin());
    }
    it = stripe.counts.emplace(identity, std::make_pair(0ULL, 0ULL)).first;
  }
  (served ? it->second.first : it->second.second) += 1;
}

std::vector<AdmissionController::IdentityOutcome>
AdmissionController::top_identities(std::size_t k) const {
  std::vector<IdentityOutcome> all;
  for (const auto& stripe : outcome_stripes_) {
    const std::scoped_lock lock(stripe.mutex);
    for (const auto& [identity, counts] : stripe.counts) {
      all.push_back({identity, counts.first, counts.second});
    }
  }
  std::sort(all.begin(), all.end(),
            [](const IdentityOutcome& a, const IdentityOutcome& b) {
              if (a.shed != b.shed) return a.shed > b.shed;
              if (a.served != b.served) return a.served > b.served;
              return a.identity < b.identity;
            });
  if (all.size() > k) all.resize(k);
  return all;
}

void AdmissionController::release(const std::string& identity) {
  queue_.leave(identity);
}

void AdmissionController::set_limits(const AdmissionLimits& limits) {
  rate_.store(limits.rate_limit_rps, std::memory_order_relaxed);
  burst_.store(limits.rate_limit_burst, std::memory_order_relaxed);
  preauth_rate_.store(limits.preauth_rate_limit_rps,
                      std::memory_order_relaxed);
  preauth_burst_.store(limits.preauth_rate_limit_burst,
                       std::memory_order_relaxed);
  queue_.configure(limits.max_queued_per_identity);
  // Existing buckets reconfigure lazily on their next admission decision.
  generation_.fetch_add(1, std::memory_order_release);
}

AdmissionLimits AdmissionController::limits() const {
  AdmissionLimits limits;
  limits.rate_limit_rps = rate_.load(std::memory_order_relaxed);
  limits.rate_limit_burst = burst_.load(std::memory_order_relaxed);
  limits.max_queued_per_identity = queue_.max_per_identity();
  limits.preauth_rate_limit_rps = preauth_rate_.load(std::memory_order_relaxed);
  limits.preauth_rate_limit_burst =
      preauth_burst_.load(std::memory_order_relaxed);
  return limits;
}

AdmissionController::Counters AdmissionController::counters() const {
  Counters out;
  out.accepted = accepted_.load(std::memory_order_relaxed);
  out.shed_rate = shed_rate_.load(std::memory_order_relaxed);
  out.shed_queue = shed_queue_.load(std::memory_order_relaxed);
  out.preauth_accepted = preauth_accepted_.load(std::memory_order_relaxed);
  out.preauth_shed = preauth_shed_.load(std::memory_order_relaxed);
  out.queued = queue_.active();
  std::size_t identities = 0;
  for (const auto& stripe : identity_stripes_) {
    const std::scoped_lock lock(stripe.mutex);
    identities += stripe.buckets.size();
  }
  out.identities = identities;
  return out;
}

}  // namespace myproxy::server
