#include "crypto/keypair_pool.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace myproxy::crypto {

namespace {
constexpr std::string_view kLogComponent = "crypto.keypool";
}  // namespace

KeyPairPool::KeyPairPool(KeySpec spec, std::size_t target_size,
                         std::size_t refill_threads)
    : spec_(spec), target_size_(target_size) {
  if (target_size_ > 0) {
    workers_ = std::make_unique<ThreadPool>(std::max<std::size_t>(
        1, refill_threads));
    const std::scoped_lock lock(mutex_);
    schedule_refill_locked();
  }
}

KeyPairPool::~KeyPairPool() {
  {
    const std::scoped_lock lock(mutex_);
    stopping_ = true;
  }
  workers_.reset();  // drains and joins refill workers
}

KeyPair KeyPairPool::acquire(bool* from_pool) {
  if (from_pool != nullptr) *from_pool = false;
  {
    const std::scoped_lock lock(mutex_);
    if (!ready_.empty()) {
      KeyPair key = std::move(ready_.front());
      ready_.pop_front();
      ready_count_.store(ready_.size(), std::memory_order_relaxed);
      hits_.fetch_add(1, std::memory_order_relaxed);
      schedule_refill_locked();
      if (from_pool != nullptr) *from_pool = true;
      return key;
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    if (target_size_ > 0) {
      drained_.fetch_add(1, std::memory_order_relaxed);
      schedule_refill_locked();
    }
  }
  // Drained or disabled: pay the synchronous generation the pool exists to
  // avoid. Outside the lock so other threads can still pop refilled keys.
  return KeyPair::generate(spec_);
}

void KeyPairPool::prefill(std::size_t count) {
  const std::size_t goal = std::min(count, target_size_);
  while (true) {
    {
      const std::scoped_lock lock(mutex_);
      if (ready_.size() >= goal || stopping_) return;
    }
    KeyPair key = KeyPair::generate(spec_);
    const std::scoped_lock lock(mutex_);
    if (ready_.size() < target_size_) {
      ready_.push_back(std::move(key));
      ready_count_.store(ready_.size(), std::memory_order_relaxed);
    }
  }
}

void KeyPairPool::set_refill_enabled(bool enabled) {
  const std::scoped_lock lock(mutex_);
  refill_enabled_ = enabled;
  if (enabled) schedule_refill_locked();
}

std::size_t KeyPairPool::available() const {
  return ready_count_.load(std::memory_order_relaxed);
}

KeyPairPool::Stats KeyPairPool::stats() const {
  Stats out;
  out.hits = hits_.load(std::memory_order_relaxed);
  out.misses = misses_.load(std::memory_order_relaxed);
  out.drained = drained_.load(std::memory_order_relaxed);
  out.generated = generated_.load(std::memory_order_relaxed);
  return out;
}

void KeyPairPool::schedule_refill_locked() {
  if (workers_ == nullptr || stopping_ || !refill_enabled_) return;
  while (ready_.size() + refills_in_flight_ < target_size_) {
    if (!workers_->submit([this] { refill_task(); })) break;
    ++refills_in_flight_;
  }
}

void KeyPairPool::refill_task() {
  {
    const std::scoped_lock lock(mutex_);
    if (stopping_ || !refill_enabled_) {
      --refills_in_flight_;
      return;
    }
  }
  KeyPair key = KeyPair::generate(spec_);
  const std::scoped_lock lock(mutex_);
  --refills_in_flight_;
  if (stopping_ || ready_.size() >= target_size_) return;
  ready_.push_back(std::move(key));
  ready_count_.store(ready_.size(), std::memory_order_relaxed);
  generated_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace myproxy::crypto
