// CachedCredentialStore: read-through behaviour, every invalidation path
// (put / remove / remove_all / sweep_expired), and consistency under
// concurrent readers and writers.
#include "repository/cached_store.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <thread>
#include <vector>

#include <unistd.h>

namespace myproxy::repository {
namespace {

CredentialRecord make_record(std::string username, std::string name = "",
                             std::vector<std::uint8_t> blob = {1, 2, 3}) {
  CredentialRecord record;
  record.username = std::move(username);
  record.name = std::move(name);
  record.owner_dn = "/O=Grid/CN=" + record.username;
  record.blob = std::move(blob);
  record.sealing = Sealing::kPassphrase;
  record.created_at = now();
  record.not_after = now() + Seconds(3600);
  return record;
}

std::unique_ptr<CachedCredentialStore> make_cached(std::size_t shards = 4) {
  return std::make_unique<CachedCredentialStore>(
      std::make_unique<MemoryCredentialStore>(), shards);
}

TEST(CachedStoreTest, ReadThroughThenHit) {
  auto store = make_cached();
  store->put(make_record("alice"));

  // put() primes the cache (write-through), so the first get is a hit.
  ASSERT_TRUE(store->get("alice", "").has_value());
  ASSERT_TRUE(store->get("alice", "").has_value());
  const auto stats = store->stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 0u);
}

TEST(CachedStoreTest, MissFillsCache) {
  auto store = make_cached();
  EXPECT_FALSE(store->get("ghost", "").has_value());
  EXPECT_EQ(store->stats().misses, 1u);
  EXPECT_EQ(store->cached_entries(), 0u);  // negative results not cached

  store->put(make_record("bob"));
  EXPECT_EQ(store->cached_entries(), 1u);
}

TEST(CachedStoreTest, PutReplacesCachedEntry) {
  auto store = make_cached();
  store->put(make_record("alice", "", {1}));
  ASSERT_TRUE(store->get("alice", "").has_value());

  // The pass-phrase change / OTP-advance path: a put over a cached key
  // must be visible to the very next read.
  store->put(make_record("alice", "", {9, 9}));
  const auto got = store->get("alice", "");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->blob, (std::vector<std::uint8_t>{9, 9}));
  EXPECT_GE(store->stats().invalidations, 1u);
}

TEST(CachedStoreTest, RemoveInvalidates) {
  auto store = make_cached();
  store->put(make_record("alice"));
  ASSERT_TRUE(store->get("alice", "").has_value());

  EXPECT_TRUE(store->remove("alice", ""));
  EXPECT_FALSE(store->get("alice", "").has_value());
  EXPECT_EQ(store->cached_entries(), 0u);
  EXPECT_FALSE(store->remove("alice", ""));
}

TEST(CachedStoreTest, RemoveAllInvalidatesOnlyThatUser) {
  auto store = make_cached();
  store->put(make_record("alice", ""));
  store->put(make_record("alice", "compute"));
  store->put(make_record("bob"));
  ASSERT_EQ(store->cached_entries(), 3u);

  EXPECT_EQ(store->remove_all("alice"), 2u);
  EXPECT_EQ(store->cached_entries(), 1u);
  EXPECT_FALSE(store->get("alice", "").has_value());
  EXPECT_FALSE(store->get("alice", "compute").has_value());
  EXPECT_TRUE(store->get("bob", "").has_value());
}

TEST(CachedStoreTest, RemoveAllNotFooledBySimilarNames) {
  // "alice" must not wipe "alice2", and the username/name separator must
  // not let ("a", "b") masquerade as a user called "a\x1eb".
  auto store = make_cached();
  store->put(make_record("alice"));
  store->put(make_record("alice2"));
  (void)store->get("alice", "");
  (void)store->get("alice2", "");

  EXPECT_EQ(store->remove_all("alice"), 1u);
  EXPECT_TRUE(store->get("alice2", "").has_value());
}

TEST(CachedStoreTest, SweepExpiredDropsCache) {
  auto store = make_cached();
  CredentialRecord dead = make_record("expired");
  dead.not_after = now() - Seconds(10);
  store->put(dead);
  store->put(make_record("alive"));
  ASSERT_EQ(store->cached_entries(), 2u);

  EXPECT_EQ(store->sweep_expired(), 1u);
  // The backing store only reports a count, so the sweep clears the whole
  // cache; the live record re-fills on next read.
  EXPECT_FALSE(store->get("expired", "").has_value());
  EXPECT_TRUE(store->get("alive", "").has_value());
}

TEST(CachedStoreTest, ListAndSizeDelegate) {
  auto store = make_cached();
  store->put(make_record("alice", ""));
  store->put(make_record("alice", "compute"));
  EXPECT_EQ(store->size(), 2u);
  EXPECT_EQ(store->list("alice").size(), 2u);
}

TEST(CachedStoreTest, CapacityBoundHolds) {
  auto store = std::make_unique<CachedCredentialStore>(
      std::make_unique<MemoryCredentialStore>(), /*shards=*/2,
      /*max_entries_per_shard=*/4);
  for (int i = 0; i < 64; ++i) {
    store->put(make_record("user" + std::to_string(i)));
  }
  EXPECT_LE(store->cached_entries(), 8u);
  EXPECT_EQ(store->size(), 64u);  // the backing store keeps everything
}

TEST(CachedStoreTest, WorksOverFileStore) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("myproxy-cached-store-test-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  auto store = std::make_unique<CachedCredentialStore>(
      std::make_unique<FileCredentialStore>(dir), 4);

  store->put(make_record("alice"));
  ASSERT_TRUE(store->get("alice", "").has_value());
  EXPECT_EQ(store->stats().hits, 1u);
  EXPECT_TRUE(store->remove("alice", ""));
  EXPECT_FALSE(store->get("alice", "").has_value());
  std::filesystem::remove_all(dir);
}

TEST(CachedStoreTest, ConcurrentReadersAndWritersStayConsistent) {
  auto store = make_cached(8);
  constexpr int kUsers = 4;
  for (int u = 0; u < kUsers; ++u) {
    store->put(make_record("user" + std::to_string(u), "", {0}));
  }

  // Writers bump each user's blob version; readers must only ever observe
  // some version that was actually written (never a torn or stale-after-
  // invalidation value once the writers are done).
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  threads.reserve(kUsers + 2);
  for (int u = 0; u < kUsers; ++u) {
    threads.emplace_back([&store, u] {
      const std::string name = "user" + std::to_string(u);
      for (std::uint8_t version = 1; version <= 50; ++version) {
        store->put(make_record(name, "", {version}));
      }
    });
  }
  std::atomic<std::uint64_t> reads{0};
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&store, &stop, &reads] {
      // At least one full pass even if this thread is only scheduled
      // after the writers finish (single-core CI under load).
      do {
        for (int u = 0; u < kUsers; ++u) {
          const auto got = store->get("user" + std::to_string(u), "");
          if (got.has_value()) {
            ASSERT_EQ(got->blob.size(), 1u);
            reads.fetch_add(1);
          }
        }
      } while (!stop.load());
    });
  }
  for (int u = 0; u < kUsers; ++u) threads[static_cast<std::size_t>(u)].join();
  stop.store(true);
  for (std::size_t i = kUsers; i < threads.size(); ++i) threads[i].join();
  EXPECT_GT(reads.load(), 0u);

  // After all writers finish, every user reads back the final version.
  for (int u = 0; u < kUsers; ++u) {
    const auto got = store->get("user" + std::to_string(u), "");
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->blob, std::vector<std::uint8_t>{50});
  }
}

}  // namespace
}  // namespace myproxy::repository
