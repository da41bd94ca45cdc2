// Tests for the annotated concurrency primitives in common/mutex.h: the
// Mutex/MutexLock/CondVar wrappers, exercised cross-thread so the TSan CI
// job validates that the wrappers do in fact synchronize, plus real
// concurrency tests of the components built on them (see
// CacheManagerConcurrency below and tests/test_session.cc).

#include "common/mutex.h"

#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "caql/caql_query.h"
#include "cms/cache_element.h"
#include "cms/cache_manager.h"
#include "common/status.h"
#include "dbms/remote_dbms.h"
#include "relational/relation.h"
#include "relational/value.h"

namespace braid {
namespace {

TEST(MutexTest, MutualExclusionAcrossThreads) {
  Mutex mu;
  int counter = 0;  // guarded by mu (locally)
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&mu, &counter] {
      for (int i = 0; i < kIters; ++i) {
        MutexLock lock(&mu);
        ++counter;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  MutexLock lock(&mu);
  EXPECT_EQ(counter, kThreads * kIters);
}

TEST(MutexTest, TryLockReflectsOwnership) {
  Mutex mu;
  mu.Lock();
  bool acquired = true;
  std::thread other([&mu, &acquired] { acquired = mu.TryLock(); });
  other.join();
  EXPECT_FALSE(acquired);
  mu.Unlock();
  EXPECT_TRUE(mu.TryLock());
  mu.Unlock();
}

TEST(CondVarTest, WaitReleasesAndReacquiresTheMutex) {
  Mutex mu;
  CondVar cv;
  bool ready = false;
  bool observed = false;

  std::thread waiter([&] {
    MutexLock lock(&mu);
    while (!ready) cv.Wait(mu);
    // The mutex must be held again here: the setter's critical section
    // finished before we could read `ready` as true.
    observed = ready;
  });

  {
    // If Wait failed to release the mutex this Lock would deadlock.
    MutexLock lock(&mu);
    ready = true;
  }
  cv.NotifyAll();
  waiter.join();
  EXPECT_TRUE(observed);
}

TEST(CondVarTest, WaitForTimesOutWithoutNotify) {
  Mutex mu;
  CondVar cv;
  MutexLock lock(&mu);
  const bool notified = cv.WaitFor(mu, std::chrono::milliseconds(5));
  EXPECT_FALSE(notified);
}

TEST(CondVarTest, NotifyOneWakesAWaiter) {
  Mutex mu;
  CondVar cv;
  int stage = 0;
  std::thread waiter([&] {
    MutexLock lock(&mu);
    while (stage == 0) cv.Wait(mu);
    stage = 2;
  });
  {
    MutexLock lock(&mu);
    stage = 1;
  }
  cv.NotifyOne();
  waiter.join();
  MutexLock lock(&mu);
  EXPECT_EQ(stage, 2);
}

cms::CacheElementPtr MakeManagerElement(const std::string& id,
                                        const std::string& def,
                                        size_t rows) {
  auto q = caql::ParseCaql(def);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  auto ext = std::make_shared<rel::Relation>(
      id, rel::Schema::FromNames({"x", "y"}));
  for (size_t i = 0; i < rows; ++i) {
    ext->AppendUnchecked({rel::Value::Int(static_cast<int64_t>(i)),
                          rel::Value::Int(static_cast<int64_t>(i * 2))});
  }
  return std::make_shared<cms::CacheElement>(id, q.value(), ext);
}

TEST(CacheManagerConcurrency, ParallelInsertsHoldTheBudgetWithNoLostUpdates) {
  // The manager is fully concurrent (striped model, atomic clock/stats),
  // so hammering it from several threads must leave the footprint within
  // budget and the stats balanced, with every surviving element findable.
  const size_t unit =
      MakeManagerElement("probe", "p(X, Y) :- b(X, Y)", 8)->ByteSize();
  cms::CacheManager manager(/*budget_bytes=*/unit * 6 + unit / 2,
                            /*replacement_horizon=*/4);
  constexpr int kThreads = 4;
  constexpr int kInsertsPerThread = 60;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    writers.emplace_back([&manager, w] {
      for (int i = 0; i < kInsertsPerThread; ++i) {
        const std::string tag =
            "d" + std::to_string(w) + "_" + std::to_string(i);
        auto element = MakeManagerElement(
            "E_" + tag, tag + "(X, Y) :- b" + tag + "(X, Y)", 8);
        EXPECT_TRUE(manager.Insert(element));
        manager.Touch(*element);
        manager.Tick();
      }
    });
  }
  for (std::thread& t : writers) t.join();

  EXPECT_LE(manager.model().TotalBytes(), manager.budget_bytes());
  EXPECT_EQ(manager.stats().insertions.load(),
            static_cast<size_t>(kThreads * kInsertsPerThread));
  EXPECT_EQ(manager.clock(),
            static_cast<uint64_t>(kThreads * kInsertsPerThread));
  // insertions - evictions elements remain resident, and each is intact.
  const auto elements = manager.model().elements();
  EXPECT_EQ(elements.size(), manager.stats().insertions.load() -
                                 manager.stats().evictions.load());
  for (const auto& [id, element] : elements) {
    EXPECT_EQ(manager.model().Find(id), element);
    EXPECT_TRUE(element->is_materialized());
  }
}

TEST(RemoteStatsSnapshot, ConcurrentExecutesYieldConsistentSnapshots) {
  // Regression for a guarded-field gap the annotation sweep surfaced:
  // RemoteDbms::stats() used to return a reference into state mutated by
  // concurrent Execute calls (pool fetches, async prefetches), so a
  // reader could observe a half-updated struct — e.g. `queries` bumped
  // but `messages` not yet. It now returns a snapshot taken under the
  // stats mutex, so every observed snapshot reflects a whole number of
  // identical queries.
  dbms::Database db;
  rel::Relation t("t", rel::Schema::FromNames({"a", "b"}));
  for (int i = 0; i < 32; ++i) {
    t.AppendUnchecked({rel::Value::Int(i), rel::Value::Int(i * 2)});
  }
  BRAID_CHECK_OK(db.AddTable(std::move(t)));
  dbms::RemoteDbms remote(std::move(db));

  dbms::SqlQuery scan;
  scan.from = {"t"};

  // One warmup query establishes the per-query stat deltas (the scan is
  // identical every time, so every Execute adds exactly these).
  BRAID_CHECK_OK(remote.Execute(scan));
  const dbms::RemoteStats unit = remote.stats();
  ASSERT_EQ(unit.queries, 1u);
  ASSERT_GT(unit.messages, 0u);
  ASSERT_GT(unit.tuples_shipped, 0u);

  constexpr int kThreads = 4;
  constexpr int kExecsPerThread = 200;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    writers.emplace_back([&remote, &scan] {
      for (int i = 0; i < kExecsPerThread; ++i) {
        BRAID_CHECK_OK(remote.Execute(scan));
      }
    });
  }

  const size_t target = 1 + kThreads * kExecsPerThread;
  size_t snapshots = 0;
  while (true) {
    const dbms::RemoteStats s = remote.stats();
    ++snapshots;
    // Torn reads break these equalities; consistent snapshots cannot.
    EXPECT_EQ(s.messages, s.queries * unit.messages);
    EXPECT_EQ(s.tuples_shipped, s.queries * unit.tuples_shipped);
    EXPECT_EQ(s.bytes_shipped, s.queries * unit.bytes_shipped);
    if (s.queries >= target) break;
  }
  for (std::thread& w : writers) w.join();
  EXPECT_EQ(remote.stats().queries, target);
  EXPECT_GT(snapshots, 1u);
}

TEST(CheckOk, PassesThroughOkStatusAndResult) {
  BRAID_CHECK_OK(Status::Ok());
  BRAID_CHECK_OK(Result<int>(42));
}

TEST(CheckOkDeathTest, AbortsWithTheFailedExpressionAndStatus) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(BRAID_CHECK_OK(Status::NotFound("table 'ghost' missing")),
               "BRAID_CHECK_OK.*failed: NotFound: table 'ghost' missing");
  EXPECT_DEATH(BRAID_CHECK_OK(Result<int>(Status::ParseError("bad rule"))),
               "BRAID_CHECK_OK.*failed: ParseError: bad rule");
}

}  // namespace
}  // namespace braid
