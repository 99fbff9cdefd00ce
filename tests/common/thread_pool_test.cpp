#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

namespace myproxy {
namespace {

TEST(ThreadPool, RunsAllSubmittedTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(pool.submit([&counter] { ++counter; }));
    }
    pool.wait_idle();
    EXPECT_EQ(counter.load(), 100);
    EXPECT_EQ(pool.tasks_submitted(), 100u);
  }
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&counter] { ++counter; });
    }
  }  // destructor joins after draining
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, ZeroWorkersClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.worker_count(), 1u);
  std::atomic<bool> ran{false};
  pool.submit([&ran] { ran = true; });
  pool.wait_idle();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPool, SubmitShedsInsteadOfBlockingWhenFull) {
  std::atomic<bool> release{false};
  std::atomic<bool> started{false};
  std::atomic<int> ran{0};
  ThreadPool pool(1, /*max_queue=*/1);
  ASSERT_TRUE(pool.submit([&] {
    started = true;
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }));
  while (!started.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Worker is pinned; one slot in the queue.
  EXPECT_TRUE(pool.submit([&ran] { ++ran; }));
  EXPECT_EQ(pool.pending(), 1u);
  // Queue full: submit must return false immediately, not block.
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(pool.submit([&ran] { ++ran; }));
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(100));
  release = true;
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPool, BoundedQueueWithSlowTasksDrainsOnDestruction) {
  // Offer more slow tasks than the workers and the queue hold: the
  // surplus is refused, and every accepted task still runs before the
  // destructor returns.
  std::atomic<int> counter{0};
  int accepted = 0;
  {
    ThreadPool pool(2, /*max_queue=*/2);
    for (int i = 0; i < 12; ++i) {
      if (pool.submit([&counter] {
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
            ++counter;
          })) {
        ++accepted;
      }
    }
    EXPECT_GE(accepted, 2);
    EXPECT_LT(accepted, 12);
  }  // destructor drains the queue and joins without deadlock
  EXPECT_EQ(counter.load(), accepted);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPool, TasksRunConcurrentlyAcrossWorkers) {
  ThreadPool pool(2);
  std::atomic<int> inside{0};
  std::atomic<int> max_inside{0};
  for (int i = 0; i < 16; ++i) {
    pool.submit([&] {
      const int current = ++inside;
      int expected = max_inside.load();
      while (current > expected &&
             !max_inside.compare_exchange_weak(expected, current)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      --inside;
    });
  }
  pool.wait_idle();
  EXPECT_GE(max_inside.load(), 1);
  EXPECT_LE(max_inside.load(), 2);
}

}  // namespace
}  // namespace myproxy
