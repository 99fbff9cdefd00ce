#include "common/thread_pool.hpp"

namespace myproxy {

ThreadPool::ThreadPool(std::size_t workers, std::size_t max_queue)
    : max_queue_(max_queue) {
  if (workers == 0) workers = 1;
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::scoped_lock lock(mutex_);
    stopping_ = true;
  }
  cv_task_.notify_all();
  for (auto& t : workers_) t.join();
}

bool ThreadPool::submit(std::function<void()> task) {
  {
    const std::scoped_lock lock(mutex_);
    if (stopping_) return false;
    if (max_queue_ != 0 && queue_.size() >= max_queue_) return false;
    queue_.push_back(std::move(task));
    ++submitted_;
  }
  cv_task_.notify_one();
  return true;
}

std::size_t ThreadPool::pending() const {
  const std::scoped_lock lock(mutex_);
  return queue_.size();
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  cv_idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

std::size_t ThreadPool::tasks_submitted() const {
  const std::scoped_lock lock(mutex_);
  return submitted_;
}

void ThreadPool::worker_loop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_task_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    task();
    task = nullptr;  // wait_idle() returns only once its captures are gone
    {
      const std::scoped_lock lock(mutex_);
      --active_;
      if (queue_.empty() && active_ == 0) cv_idle_.notify_all();
    }
  }
}

}  // namespace myproxy
