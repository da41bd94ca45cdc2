// Unit tests for the parallel execution engine (src/exec/): the morsel
// thread pool, the determinism contract of every parallel operator
// (byte-identical to the serial rel:: counterpart across worker counts and
// input sizes straddling the parallel threshold), and the execution
// monitor's genuinely concurrent remote fetches.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <vector>

#include "caql/caql_query.h"
#include "cms/execution_monitor.h"
#include "common/rng.h"
#include "exec/parallel_ops.h"
#include "exec/thread_pool.h"
#include "relational/operators.h"

namespace braid {
namespace {

using rel::Tuple;
using rel::Value;

// ---------------------------------------------------------------------------
// ThreadPool

TEST(ThreadPool, SubmitReturnsValue) {
  exec::ThreadPool pool(2);
  auto f = pool.Submit([] { return 41 + 1; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, SubmitWorksWithZeroWorkers) {
  exec::ThreadPool pool(0);  // degenerate: runs inline
  auto f = pool.Submit([] { return std::string("inline"); });
  EXPECT_EQ(f.get(), "inline");
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  exec::ThreadPool pool(3);
  constexpr size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, /*grain=*/64, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForHandlesEmptyAndTinyRanges) {
  exec::ThreadPool pool(2);
  int calls = 0;
  pool.ParallelFor(0, 16, [&](size_t, size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::atomic<size_t> total{0};
  pool.ParallelFor(1, 16, [&](size_t begin, size_t end) {
    total.fetch_add(end - begin);
  });
  EXPECT_EQ(total.load(), 1u);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  // Completion is tracked by a morsel counter, not helper futures, so an
  // inner loop running on a worker cannot deadlock waiting for tasks that
  // are queued behind it.
  exec::ThreadPool pool(2);
  std::atomic<size_t> total{0};
  pool.ParallelFor(8, 1, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      pool.ParallelFor(100, 10, [&](size_t b, size_t e) {
        total.fetch_add(e - b);
      });
    }
  });
  EXPECT_EQ(total.load(), 800u);
}

TEST(ThreadPool, ParallelForPropagatesException) {
  exec::ThreadPool pool(2);
  EXPECT_THROW(
      pool.ParallelFor(100, 8,
                       [](size_t begin, size_t) {
                         if (begin >= 48) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
  // Pool must still be usable afterwards.
  auto f = pool.Submit([] { return 7; });
  EXPECT_EQ(f.get(), 7);
}

// ---------------------------------------------------------------------------
// Parallel operators: byte-identical to serial across worker counts and
// input sizes straddling the threshold.

constexpr size_t kThreshold = 64;
const size_t kSizes[] = {0, 1, 63, 64, 65, 1000};
const size_t kThreads[] = {1, 2, 8};

/// ExecContext forcing multiple small morsels so the merge logic is
/// exercised even on modest inputs.
exec::ExecContext Ctx(exec::ThreadPool* pool) {
  exec::ExecContext ctx;
  ctx.pool = pool;
  ctx.parallel_threshold = kThreshold;
  ctx.morsel_tuples = 16;
  return ctx;
}

rel::Relation MakeInts(const std::string& name, size_t rows, uint64_t seed,
                       int64_t key_range) {
  Rng rng(seed);
  rel::Relation r(name, rel::Schema::FromNames({"k", "j", "v"}));
  for (size_t i = 0; i < rows; ++i) {
    r.AppendUnchecked({Value::Int(rng.Uniform(0, key_range)),
                       Value::Int(rng.Uniform(0, 3)),
                       Value::Int(static_cast<int64_t>(i))});
  }
  return r;
}

void ExpectIdentical(const rel::Relation& serial, const rel::Relation& par) {
  ASSERT_TRUE(serial.schema() == par.schema())
      << serial.schema().ToString() << " vs " << par.schema().ToString();
  ASSERT_EQ(serial.NumTuples(), par.NumTuples());
  EXPECT_TRUE(serial.tuples() == par.tuples());
}

/// Every column of `left` ++ `right`, in order: the kept columns of a join
/// that keeps the whole concatenated tuple.
std::vector<size_t> AllColumns(const rel::Relation& left,
                               const rel::Relation& right) {
  std::vector<size_t> all;
  for (size_t c = 0; c < left.schema().size() + right.schema().size(); ++c) {
    all.push_back(c);
  }
  return all;
}

rel::Relation ParallelJoin(const exec::ExecContext& ctx,
                           const rel::Relation& left,
                           const rel::Relation& right,
                           const std::vector<rel::JoinKey>& keys,
                           const rel::PredicatePtr& residual = nullptr) {
  return exec::HashJoin(ctx, left, right, keys, AllColumns(left, right),
                        residual);
}

TEST(ParallelOps, SelectMatchesSerial) {
  // The one-pass bind keeping every column is a plain selection.
  auto pred = rel::Predicate::ColumnConst(0, rel::CompareOp::kLt,
                                          Value::Int(10));
  const std::vector<size_t> all = {0, 1, 2};
  for (size_t threads : kThreads) {
    exec::ThreadPool pool(threads);
    for (size_t n : kSizes) {
      rel::Relation in = MakeInts("in", n, 1, 20);
      rel::Relation par = exec::SelectProject(Ctx(&pool), in, pred.get(), all);
      EXPECT_TRUE(rel::Select(in, *pred).tuples() == par.tuples());
    }
  }
}

TEST(ParallelOps, ProjectMatchesSerialIncludingDuplicateColumns) {
  const std::vector<size_t> cols = {2, 0, 2};
  for (size_t threads : kThreads) {
    exec::ThreadPool pool(threads);
    for (size_t n : kSizes) {
      rel::Relation in = MakeInts("in", n, 2, 50);
      ExpectIdentical(rel::Project(in, cols),
                      exec::SelectProject(Ctx(&pool), in, nullptr, cols));
    }
  }
}

TEST(ParallelOps, SelectProjectMatchesSelectThenProject) {
  auto pred = rel::Predicate::ColumnConst(1, rel::CompareOp::kNe,
                                          Value::Int(1));
  const std::vector<size_t> cols = {2, 0};
  for (size_t threads : kThreads) {
    exec::ThreadPool pool(threads);
    for (size_t n : kSizes) {
      rel::Relation in = MakeInts("in", n, 3, 20);
      rel::Relation two_pass = rel::Project(rel::Select(in, *pred), cols);
      ExpectIdentical(two_pass, rel::SelectProject(in, pred.get(), cols));
      ExpectIdentical(two_pass,
                      exec::SelectProject(Ctx(&pool), in, pred.get(), cols));
    }
  }
}

TEST(ParallelOps, HashJoinMatchesSerial) {
  const std::vector<rel::JoinKey> keys = {{0, 0}};
  for (size_t threads : kThreads) {
    exec::ThreadPool pool(threads);
    for (size_t n : kSizes) {
      rel::Relation left = MakeInts("l", n, 3, 8);
      rel::Relation right = MakeInts("r", n / 2 + 1, 4, 8);
      ExpectIdentical(rel::HashJoin(left, right, keys),
                      ParallelJoin(Ctx(&pool), left, right, keys));
    }
  }
}

TEST(ParallelOps, CompositeKeyHashJoinMatchesSerialAndNestedLoop) {
  // Composite key (k, j): the serial operator hashes all key columns (not
  // just the first), and the parallel operator must agree with it — and
  // both with the brute-force nested loop, order aside.
  const std::vector<rel::JoinKey> keys = {{0, 0}, {1, 1}};
  exec::ThreadPool pool(4);
  rel::Relation left = MakeInts("l", 300, 5, 4);   // skewed: few distinct k
  rel::Relation right = MakeInts("r", 200, 6, 4);
  rel::Relation serial = rel::HashJoin(left, right, keys);
  ExpectIdentical(serial, ParallelJoin(Ctx(&pool), left, right, keys));

  auto pred = rel::Predicate::And(
      {rel::Predicate::ColumnColumn(0, rel::CompareOp::kEq, 3),
       rel::Predicate::ColumnColumn(1, rel::CompareOp::kEq, 4)});
  rel::Relation nested = rel::NestedLoopJoin(left, right, *pred);
  EXPECT_EQ(serial.NumTuples(), nested.NumTuples());
}

TEST(ParallelOps, HashJoinWithResidualMatchesSerial) {
  const std::vector<rel::JoinKey> keys = {{0, 0}};
  auto residual =
      rel::Predicate::ColumnColumn(2, rel::CompareOp::kLt, 5);  // l.v < r.v
  for (size_t threads : kThreads) {
    exec::ThreadPool pool(threads);
    rel::Relation left = MakeInts("l", 500, 7, 16);
    rel::Relation right = MakeInts("r", 400, 8, 16);
    ExpectIdentical(rel::HashJoin(left, right, keys, residual),
                    ParallelJoin(Ctx(&pool), left, right, keys, residual));
  }
}

TEST(ParallelOps, HashJoinEmptySides) {
  const std::vector<rel::JoinKey> keys = {{0, 0}};
  exec::ThreadPool pool(2);
  rel::Relation empty("e", rel::Schema::FromNames({"k", "j", "v"}));
  rel::Relation full = MakeInts("f", 200, 9, 8);
  ExpectIdentical(rel::HashJoin(empty, full, keys),
                  ParallelJoin(Ctx(&pool), empty, full, keys));
  ExpectIdentical(rel::HashJoin(full, empty, keys),
                  ParallelJoin(Ctx(&pool), full, empty, keys));
}

TEST(ParallelOps, DistinctMatchesSerial) {
  for (size_t threads : kThreads) {
    exec::ThreadPool pool(threads);
    for (size_t n : kSizes) {
      rel::Relation in = MakeInts("in", n, 10, 5);
      // Drop the unique v column so duplicates actually occur.
      rel::Relation narrow = rel::Project(in, {0, 1});
      ExpectIdentical(rel::Distinct(narrow),
                      exec::Distinct(Ctx(&pool), narrow));
    }
  }
}

TEST(ParallelOps, DistinctAllDuplicates) {
  exec::ThreadPool pool(8);
  rel::Relation in("in", rel::Schema::FromNames({"a"}));
  for (int i = 0; i < 500; ++i) in.AppendUnchecked({Value::Int(7)});
  rel::Relation out = exec::Distinct(Ctx(&pool), in);
  ASSERT_EQ(out.NumTuples(), 1u);
  ExpectIdentical(rel::Distinct(in), out);
}

TEST(ParallelOps, SerialFallbackWithoutPool) {
  // A default context (no pool) must take the serial path and still be
  // correct.
  exec::ExecContext ctx;
  rel::Relation in = MakeInts("in", 100, 13, 6);
  auto pred = rel::Predicate::ColumnConst(0, rel::CompareOp::kGe,
                                          Value::Int(3));
  const std::vector<size_t> all = {0, 1, 2};
  EXPECT_TRUE(rel::Select(in, *pred).tuples() ==
              exec::SelectProject(ctx, in, pred.get(), all).tuples());
}

// ---------------------------------------------------------------------------
// Execution monitor: concurrent remote fetches.

dbms::Database TwoTableDb() {
  dbms::Database db;
  rel::Relation b1("b1", rel::Schema::FromNames({"a", "b"}));
  rel::Relation b2("b2", rel::Schema::FromNames({"a", "b"}));
  for (int i = 0; i < 30; ++i) {
    b1.AppendUnchecked({Value::Int(i % 6), Value::Int(i)});
    b2.AppendUnchecked({Value::Int(i), Value::Int(i + 100)});
  }
  BRAID_CHECK_OK(db.AddTable(std::move(b1)));
  BRAID_CHECK_OK(db.AddTable(std::move(b2)));
  return db;
}

cms::Plan TwoRemotePlan() {
  cms::Plan plan;
  plan.query = caql::ParseCaql("q(X, Z) :- b1(X, Y) & b2(Y, Z)").value();
  cms::PlanSource s1;
  s1.kind = cms::PlanSource::Kind::kRemote;
  s1.remote_query = caql::ParseCaql("s1(X, Y) :- b1(X, Y)").value();
  s1.remote_vars = {"X", "Y"};
  cms::PlanSource s2;
  s2.kind = cms::PlanSource::Kind::kRemote;
  s2.remote_query = caql::ParseCaql("s2(Y, Z) :- b2(Y, Z)").value();
  s2.remote_vars = {"Y", "Z"};
  plan.sources.push_back(std::move(s1));
  plan.sources.push_back(std::move(s2));
  return plan;
}

TEST(MonitorOverlap, ConcurrentFetchesReduceWallClock) {
  // Make each simulated fetch physically sleep its modeled cost; two
  // fetches run back-to-back without a pool and concurrently with one.
  dbms::NetworkModel net;
  net.msg_latency_ms = 25.0;
  net.wall_clock_scale = 1.0;
  dbms::RemoteDbms remote(TwoTableDb(), net, dbms::DbmsCostModel{});
  cms::RemoteDbmsInterface rdi(&remote);
  cms::CacheManager cache(1 << 20, 4);
  cms::Plan plan = TwoRemotePlan();

  auto run = [&](cms::ExecutionMonitor& monitor) {
    auto start = std::chrono::steady_clock::now();
    auto outcome = monitor.ExecutePlan(plan);
    double ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
    return std::make_pair(std::move(outcome).value(), ms);
  };

  cms::ExecutionMonitor serial(&cache, &rdi, 0.01, /*parallel=*/false);
  auto [s_out, s_ms] = run(serial);

  exec::ThreadPool pool(2);
  cms::ExecutionMonitor parallel(&cache, &rdi, 0.01, /*parallel=*/true,
                                 exec::ExecContext{&pool});
  auto [p_out, p_ms] = run(parallel);

  // Same result either way (same deterministic source order).
  ExpectIdentical(s_out.result, p_out.result);
  EXPECT_EQ(s_out.result.NumTuples(), 30u);
  // Both fetches sleep >= 50ms; concurrent execution must save a large
  // fraction of one fetch. Comparative bound keeps this robust under
  // sanitizer and CI load.
  EXPECT_LT(p_ms, s_ms * 0.8)
      << "serial " << s_ms << "ms, parallel " << p_ms << "ms";
  // The reported timing stays on the analytic model, identical modulo the
  // parallel-overlap formula — not the measured wall time.
  EXPECT_DOUBLE_EQ(s_out.remote_ms, p_out.remote_ms);
}

TEST(MonitorOverlap, FetchErrorWithConcurrencyIsReportedCleanly) {
  dbms::NetworkModel net;
  net.wall_clock_scale = 0.0;
  dbms::RemoteDbms remote(TwoTableDb(), net, dbms::DbmsCostModel{});
  cms::RemoteDbmsInterface rdi(&remote);
  cms::CacheManager cache(1 << 20, 4);

  cms::Plan plan = TwoRemotePlan();
  // Second source queries a table the remote does not have.
  plan.sources[1].remote_query =
      caql::ParseCaql("s2(Y, Z) :- nosuch(Y, Z)").value();

  exec::ThreadPool pool(2);
  cms::ExecutionMonitor monitor(&cache, &rdi, 0.01, true,
                                exec::ExecContext{&pool});
  auto outcome = monitor.ExecutePlan(plan);
  EXPECT_FALSE(outcome.ok());
}

}  // namespace
}  // namespace braid
