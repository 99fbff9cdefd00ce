// Single-threaded epoll event loop with timers and cross-thread task
// posting — the core of the TLS front end (tls/reactor.hpp).
//
// Ownership and threading rules (deliberately strict so connection state
// machines need no locks):
//   - run() is called by exactly one thread; that thread owns the loop.
//   - add_fd/mod_fd/del_fd/add_timer/cancel_timer may be called only from
//     the loop thread (or before run() starts).
//   - post() and stop() are the only thread-safe entry points; post()ed
//     tasks execute on the loop thread at the end of the current iteration.
//
// Safe teardown inside a callback batch: del_fd removes the handler map
// entry immediately and every queued event re-checks the map (plus a
// registration generation), so a handler deleted — or an fd number reused —
// earlier in the same epoll batch is never invoked with stale events.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <unordered_map>
#include <vector>

namespace myproxy::net {

class EventLoop {
 public:
  /// Readiness interest / event bits (mapped to EPOLLIN/EPOLLOUT inside;
  /// kError is delivery-only and always armed).
  static constexpr std::uint32_t kRead = 1U << 0;
  static constexpr std::uint32_t kWrite = 1U << 1;
  static constexpr std::uint32_t kError = 1U << 2;

  using Callback = std::function<void(std::uint32_t events)>;
  using TimerId = std::uint64_t;

  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Register `fd` for `interest` (kRead|kWrite). The callback receives the
  /// ready bits. The loop does not own the descriptor.
  void add_fd(int fd, std::uint32_t interest, Callback callback);

  /// Change the interest set of a registered descriptor.
  void mod_fd(int fd, std::uint32_t interest);

  /// Unregister `fd`. Safe to call from inside any callback; events already
  /// queued for this registration are dropped.
  void del_fd(int fd);

  /// One-shot timer `delay` from now; returns an id for cancel_timer.
  TimerId add_timer(std::chrono::milliseconds delay,
                    std::function<void()> callback);

  /// Cancel a pending timer; no-op if it already fired or was cancelled.
  void cancel_timer(TimerId id);

  /// Thread-safe: run `task` on the loop thread at the end of the current
  /// (or next) iteration.
  void post(std::function<void()> task);

  /// Process events until stop(). Runs posted tasks one final time before
  /// returning so cross-thread cleanup cannot be lost.
  void run();

  /// Thread-safe: make run() return.
  void stop();

 private:
  struct FdEntry {
    std::uint32_t generation = 0;
    std::uint32_t interest = 0;
    std::shared_ptr<Callback> callback;
  };

  struct TimerEntry {
    std::chrono::steady_clock::time_point deadline;
    TimerId id = 0;
    bool operator>(const TimerEntry& other) const {
      return deadline > other.deadline;
    }
  };

  void wakeup() noexcept;
  void run_posted();
  void run_expired_timers();
  [[nodiscard]] int next_timeout_ms();

  int epoll_fd_ = -1;
  int wakeup_fd_ = -1;
  std::atomic<bool> stopped_{false};
  std::uint32_t next_generation_ = 1;
  std::unordered_map<int, FdEntry> handlers_;

  TimerId next_timer_id_ = 1;
  std::unordered_map<TimerId, std::function<void()>> timers_;
  std::priority_queue<TimerEntry, std::vector<TimerEntry>,
                      std::greater<TimerEntry>>
      timer_heap_;

  std::mutex posted_mutex_;
  std::vector<std::function<void()>> posted_;
};

}  // namespace myproxy::net
