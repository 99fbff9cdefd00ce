// Bounded thread pool behind every TLS front end (tls/reactor.hpp) and the
// store's startup scan. The paper positions the repository as a production
// service shared by multiple portals (§3.3), so connection handling must not
// spawn unbounded threads.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace myproxy {

class ThreadPool {
 public:
  /// Starts `workers` threads; queues at most `max_queue` pending tasks
  /// (0 = unbounded). When the queue is full, submit() refuses — the caller
  /// sheds load rather than stalling behind a saturated pool.
  explicit ThreadPool(std::size_t workers, std::size_t max_queue = 0);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains the queue and joins all workers.
  ~ThreadPool();

  /// Enqueue a task without blocking: returns false (task not enqueued)
  /// when the queue is at capacity or the pool is shutting down.
  bool submit(std::function<void()> task);

  /// Queued-but-not-started task count (for stats/tests).
  [[nodiscard]] std::size_t pending() const;

  /// Blocks until every queued and running task has finished.
  void wait_idle();

  [[nodiscard]] std::size_t worker_count() const noexcept {
    return workers_.size();
  }

  /// Tasks accepted over the pool's lifetime (for stats/tests).
  [[nodiscard]] std::size_t tasks_submitted() const;

 private:
  void worker_loop();

  mutable std::mutex mutex_;
  std::condition_variable cv_task_;   // workers wait for tasks
  std::condition_variable cv_idle_;   // wait_idle() waits here
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  std::size_t max_queue_;
  std::size_t active_ = 0;
  std::size_t submitted_ = 0;
  bool stopping_ = false;
};

}  // namespace myproxy
