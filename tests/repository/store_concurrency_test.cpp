// Mixed put/get/remove/list/sweep workload across many users on the
// sharded FileCredentialStore. The interesting assertions are the ones TSan
// makes (sanitize_smoke runs this suite): striped shard locks, the atomic
// size counter, and the fsync path must hold up under real concurrency.
// Functional postconditions are checked at the end.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "repository/credential_store.hpp"

namespace myproxy::repository {
namespace {

CredentialRecord make_record(std::string username, std::string name) {
  CredentialRecord record;
  record.username = std::move(username);
  record.name = std::move(name);
  record.owner_dn = "/O=Grid/CN=" + record.username;
  record.blob = {7, 7, 7};
  record.created_at = now();
  record.not_after = now() + Seconds(3600);
  return record;
}

void run_mixed_workload(FileCredentialStore& store) {
  constexpr int kThreads = 8;
  constexpr int kUsersPerThread = 16;
  constexpr int kRounds = 6;
  std::atomic<bool> failed{false};

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, &failed, t] {
      try {
        for (int round = 0; round < kRounds; ++round) {
          for (int u = 0; u < kUsersPerThread; ++u) {
            const std::string user =
                "user" + std::to_string(t) + "-" + std::to_string(u);
            store.put(make_record(user, "a"));
            store.put(make_record(user, "b"));
            if (!store.get(user, "a").has_value()) failed = true;
            if (store.list(user).empty()) failed = true;
            store.remove(user, "b");
            // Read someone else's user to cross shard stripes.
            const std::string other =
                "user" + std::to_string((t + 1) % kThreads) + "-" +
                std::to_string(u);
            (void)store.get(other, "a");
            if (u % 5 == 0) (void)store.sweep_expired();
            if (u % 7 == 0) store.remove_all(user);
          }
        }
      } catch (...) {
        failed = true;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_FALSE(failed.load());

  // Settled state: every user that wasn't remove_all'd on the final round
  // still has slot "a"; nothing expired, so sweep finds nothing.
  EXPECT_EQ(store.sweep_expired(), 0u);
  std::size_t listed = 0;
  for (const auto& user : store.usernames()) {
    listed += store.list(user).size();
  }
  EXPECT_EQ(listed, store.size());
}

class StoreConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("myproxy-store-concurrency-" + std::to_string(::getpid()) + "-" +
            std::to_string(reinterpret_cast<std::uintptr_t>(this)));
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST_F(StoreConcurrencyTest, MixedWorkloadNoSync) {
  FileCredentialStore store(dir_);
  run_mixed_workload(store);
}

TEST_F(StoreConcurrencyTest, MixedWorkloadFsync) {
  FileStoreOptions options;
  options.sync_mode = SyncMode::kFsync;
  FileCredentialStore store(dir_, options);
  run_mixed_workload(store);
}

}  // namespace
}  // namespace myproxy::repository
