// Tests for the differential oracle harness itself: the reference
// evaluator's semantics, bag comparison, workload determinism, the
// runner's ability to catch a deliberately injected cache-corruption
// bug, failure minimization, clean fault propagation, and sharded
// smoke runs of the full configuration matrix (one shard runs under
// TSan in CI).

#include <gtest/gtest.h>

#include "caql/caql_query.h"
#include "relational/relation.h"
#include "relational/value.h"
#include "testing/diff_runner.h"
#include "testing/fault_remote.h"
#include "testing/reference_eval.h"
#include "testing/workload_gen.h"

namespace braid::testing {
namespace {

using caql::CaqlQuery;
using caql::ParseCaql;
using rel::Relation;
using rel::Schema;
using rel::Value;

CaqlQuery Q(const std::string& text) {
  auto r = ParseCaql(text);
  EXPECT_TRUE(r.ok()) << text << ": " << r.status().ToString();
  return r.value();
}

dbms::Database SmallDb() {
  dbms::Database db;
  rel::Relation p("p", Schema::FromNames({"a", "b"}));
  p.AppendUnchecked({Value::Int(1), Value::Int(10)});
  p.AppendUnchecked({Value::Int(1), Value::Int(10)});  // duplicate row
  p.AppendUnchecked({Value::Int(2), Value::Int(20)});
  p.AppendUnchecked({Value::Int(3), Value::Int(30)});
  rel::Relation r("r", Schema::FromNames({"x"}));
  r.AppendUnchecked({Value::Int(10)});
  r.AppendUnchecked({Value::Int(20)});
  BRAID_CHECK_OK(db.AddTable(std::move(p)));
  BRAID_CHECK_OK(db.AddTable(std::move(r)));
  return db;
}

// --- Reference evaluator semantics -----------------------------------

TEST(ReferenceEval, BagSemanticsKeepDuplicates) {
  auto got = ReferenceEval(SmallDb(), Q("q(X) :- p(X, Y)"));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  // Four body solutions (the duplicate base row counts twice).
  EXPECT_EQ(got->NumTuples(), 4u);
}

TEST(ReferenceEval, DistinctCollapses) {
  CaqlQuery q = Q("q(X) :- p(X, Y)");
  q.distinct = true;
  auto got = ReferenceEval(SmallDb(), q);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->NumTuples(), 3u);
}

TEST(ReferenceEval, JoinMultiplicity) {
  // p(1,10) twice joins r(10) once each: 2 + p(2,20)*r(20) = 3 rows.
  auto got = ReferenceEval(SmallDb(), Q("q(X, Y) :- p(X, Y) & r(Y)"));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->NumTuples(), 3u);
}

TEST(ReferenceEval, ComparisonsPrune) {
  auto got = ReferenceEval(SmallDb(), Q("q(X) :- p(X, Y) & Y > 10"));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->NumTuples(), 2u);  // (2,20) and (3,30)
}

TEST(ReferenceEval, NegationAsFailure) {
  auto got = ReferenceEval(SmallDb(), Q("q(X) :- p(X, Y) & not r(Y)"));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->NumTuples(), 1u);  // only (3,30): 10 and 20 are in r
  EXPECT_EQ(got->tuple(0)[0], Value::Int(3));
}

TEST(ReferenceEval, ConstantsInHeadAndBody) {
  auto got = ReferenceEval(SmallDb(), Q("q(X, 7) :- p(X, 10)"));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->NumTuples(), 2u);
  EXPECT_EQ(got->tuple(0)[1], Value::Int(7));
}

// --- Bag comparison helpers ------------------------------------------

Relation Rel(const std::vector<std::vector<int64_t>>& rows) {
  Relation r("t", Schema::FromNames({"a"}));
  for (const auto& row : rows) {
    rel::Tuple t;
    for (int64_t v : row) t.push_back(Value::Int(v));
    r.AppendUnchecked(std::move(t));
  }
  return r;
}

TEST(BagCompare, EqualityIsOrderInsensitiveAndMultiplicityAware) {
  EXPECT_TRUE(BagEqual(Rel({{1}, {2}, {1}}), Rel({{2}, {1}, {1}})));
  std::string diff;
  EXPECT_FALSE(BagEqual(Rel({{1}, {2}}), Rel({{1}, {1}, {2}}), &diff));
  EXPECT_NE(diff.find("cardinality"), std::string::npos);
  EXPECT_FALSE(BagEqual(Rel({{1}, {1}}), Rel({{1}, {2}}), &diff));
}

TEST(BagCompare, ContainmentCountsMultiplicity) {
  EXPECT_TRUE(BagContains(Rel({{1}, {1}, {2}}), Rel({{1}, {2}})));
  EXPECT_TRUE(BagContains(Rel({{1}, {2}}), Rel({})));
  std::string diff;
  // {1,1} needs two 1s; the superset has one.
  EXPECT_FALSE(BagContains(Rel({{1}, {2}}), Rel({{1}, {1}}), &diff));
  EXPECT_NE(diff.find("missing"), std::string::npos);
}

// --- Workload generator ----------------------------------------------

TEST(WorkloadGen, DeterministicFromSeed) {
  WorkloadParams params;
  params.seed = 7;
  GeneratedWorkload a = GenerateWorkload(params);
  GeneratedWorkload b = GenerateWorkload(params);
  ASSERT_EQ(a.queries.size(), b.queries.size());
  for (size_t i = 0; i < a.queries.size(); ++i) {
    EXPECT_EQ(a.queries[i].ToString(), b.queries[i].ToString());
    EXPECT_EQ(a.queries[i].distinct, b.queries[i].distinct);
  }
  EXPECT_EQ(a.advice.ToString(), b.advice.ToString());
  EXPECT_EQ(a.database.TotalTuples(), b.database.TotalTuples());
}

TEST(WorkloadGen, SeedsDiffer) {
  WorkloadParams pa, pb;
  pa.seed = 1;
  pb.seed = 2;
  GeneratedWorkload a = GenerateWorkload(pa);
  GeneratedWorkload b = GenerateWorkload(pb);
  std::string sa, sb;
  for (const auto& q : a.queries) sa += q.ToString() + "\n";
  for (const auto& q : b.queries) sb += q.ToString() + "\n";
  EXPECT_NE(sa, sb);
}

TEST(WorkloadGen, QueriesValidateAndAdviceIsConsistent) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    WorkloadParams params;
    params.seed = seed;
    GeneratedWorkload w = GenerateWorkload(params);
    EXPECT_FALSE(w.queries.empty());
    for (const auto& q : w.queries) {
      EXPECT_TRUE(q.Validate().ok()) << q.ToString();
    }
    // Every view the path expression mentions exists.
    if (w.advice.path_expression != nullptr) {
      for (const std::string& id : w.advice.path_expression->MentionedViews()) {
        EXPECT_NE(w.advice.FindView(id), nullptr) << id;
      }
    }
    // Named stream queries that match a view id are instances of it.
    for (const auto& q : w.queries) {
      const advice::ViewSpec* view = w.advice.FindView(q.name);
      if (view != nullptr) {
        EXPECT_EQ(q.head_args.size(), view->head.size()) << q.ToString();
      }
    }
  }
}

// --- The runner catches an injected cache-corruption bug --------------

TEST(DiffRunner, CorruptionIsCaught) {
  DiffOptions opts;
  opts.seed = 3;
  opts.num_threads = 1;
  opts.prefetch = false;       // keep the run quiescent and deterministic
  opts.corrupt_after_query = 1;
  DiffReport report = RunDifferential(opts);
  ASSERT_FALSE(report.ok)
      << "deliberately poisoned cache extensions went undetected";
  bool saw_mismatch = false;
  for (const DiffFailure& f : report.failures) {
    if (f.kind == "bag-mismatch") saw_mismatch = true;
  }
  EXPECT_TRUE(saw_mismatch) << report.Summary();
}

TEST(DiffRunner, CleanRunPassesAndRecheckRuns) {
  DiffOptions opts;
  opts.seed = 3;
  opts.num_threads = 1;
  opts.prefetch = false;
  DiffReport report = RunDifferential(opts);
  EXPECT_TRUE(report.ok) << report.Summary();
  // pass1 + recheck both count queries.
  EXPECT_EQ(report.queries_run, 2 * opts.num_queries);
  EXPECT_GT(report.exact_hits, 0u);  // recheck hits the warm cache
}

TEST(DiffRunner, MinimizerShrinksCorruptionFailure) {
  DiffOptions opts;
  opts.seed = 3;
  opts.num_threads = 1;
  opts.prefetch = false;
  opts.corrupt_after_query = 1;
  std::vector<size_t> minimized = MinimizeFailure(opts);
  EXPECT_LT(minimized.size(), opts.num_queries);
  EXPECT_GE(minimized.size(), 1u);
  // The minimized stream still fails.
  opts.keep = minimized;
  EXPECT_FALSE(RunDifferential(opts).ok);
  // And the repro command names the kept indices.
  EXPECT_NE(ReproCommand(opts).find("--keep"), std::string::npos);
}

// --- Fault injection --------------------------------------------------

TEST(FaultRemote, InjectsSeededErrorsAndMarksThem) {
  FaultPlan plan;
  plan.seed = 11;
  plan.error_rate = 0.5;
  FaultyRemoteDbms remote(SmallDb(), plan);
  dbms::SqlQuery sql;
  sql.from = {"p"};
  size_t errors = 0;
  for (int i = 0; i < 50; ++i) {
    auto r = remote.Execute(sql);
    if (!r.ok()) {
      ++errors;
      EXPECT_TRUE(IsInjectedFault(r.status())) << r.status().ToString();
    }
  }
  EXPECT_GT(errors, 5u);
  EXPECT_LT(errors, 45u);
  EXPECT_EQ(errors, remote.injected_errors());

  // Same plan, same sequence: determinism across instances.
  FaultyRemoteDbms remote2(SmallDb(), plan);
  size_t errors2 = 0;
  for (int i = 0; i < 50; ++i) {
    if (!remote2.Execute(sql).ok()) ++errors2;
  }
  EXPECT_EQ(errors, errors2);
}

TEST(FaultRemote, WarmupCallsAreExempt) {
  FaultPlan plan;
  plan.seed = 1;
  plan.error_rate = 1.0;
  plan.warmup_calls = 3;
  FaultyRemoteDbms remote(SmallDb(), plan);
  dbms::SqlQuery sql;
  sql.from = {"p"};
  EXPECT_TRUE(remote.Execute(sql).ok());
  EXPECT_TRUE(remote.Execute(sql).ok());
  EXPECT_TRUE(remote.Execute(sql).ok());
  EXPECT_FALSE(remote.Execute(sql).ok());
}

TEST(DiffRunner, FaultsSurfaceCleanly) {
  // A hostile link: half the calls fail, half are delayed. Every failure
  // must surface as a clean injected-fault Status — never a crash, a
  // hang, or a wrong answer — including faults landing mid-prefetch.
  for (uint64_t seed : {0, 5, 9}) {
    DiffOptions opts;
    opts.seed = seed;
    opts.num_threads = 4;
    opts.faults = true;
    opts.fault_plan.error_rate = 0.5;
    opts.fault_plan.delay_rate = 0.5;
    opts.fault_plan.delay_ms = 0.5;
    DiffReport report = RunDifferential(opts);
    EXPECT_TRUE(report.ok) << report.Summary();
  }
}

// --- Sharded smoke runs of the full matrix ----------------------------

void SmokeShard(uint64_t lo, uint64_t hi) {
  for (uint64_t seed = lo; seed < hi; ++seed) {
    DiffOptions failing;
    DiffReport report =
        RunSeedMatrix(seed, /*num_queries=*/16, /*with_faults=*/true,
                      &failing);
    ASSERT_TRUE(report.ok) << report.Summary() << "\nrepro: "
                           << ReproCommand(failing);
  }
}

TEST(DifftestSmoke, Shard0) { SmokeShard(0, 4); }
TEST(DifftestSmoke, Shard1) { SmokeShard(4, 8); }
TEST(DifftestSmoke, Shard2) { SmokeShard(8, 12); }
TEST(DifftestSmoke, Shard3) { SmokeShard(12, 16); }

// The default budget never evicts on these workloads (every seed of the
// smoke range reports 0 evictions), so this cell shrinks it: installs then
// evict, derived stages included, and the byte-accounting invariant is
// checked after every query across evictions.
TEST(DifftestSmoke, SmallBudgetEvictsWithInvariantsIntact) {
  size_t evictions = 0;
  for (uint64_t seed = 0; seed < 8; ++seed) {
    DiffOptions opts;
    opts.seed = seed;
    opts.cache_budget_bytes = 4096;
    DiffReport report = RunDifferential(opts);
    EXPECT_TRUE(report.ok) << report.Summary() << "\nrepro: "
                           << ReproCommand(opts);
    evictions += report.evictions;
  }
  EXPECT_GT(evictions, 0u);
}

// --- Multi-session mode -----------------------------------------------

TEST(DifftestSessions, InterleavedSessionsMatchTheOracle) {
  // Eight sessions replay the same stream rotated by their index through
  // the session scheduler, sharing one CMS; every answer of every session
  // is bag-checked against the oracle.
  for (uint64_t seed : {0, 7}) {
    DiffOptions opts;
    opts.seed = seed;
    opts.num_threads = 8;
    opts.sessions = 8;
    DiffReport report = RunDifferential(opts);
    EXPECT_TRUE(report.ok) << report.Summary() << "\nrepro: "
                           << ReproCommand(opts);
    EXPECT_EQ(report.queries_run, 8 * opts.num_queries);
  }
}

TEST(DifftestSessions, SessionsModeStillCatchesCorruption) {
  DiffOptions opts;
  opts.seed = 3;
  opts.sessions = 4;
  opts.num_threads = 4;
  opts.prefetch = false;
  opts.corrupt_after_query = 1;
  DiffReport report = RunDifferential(opts);
  ASSERT_FALSE(report.ok)
      << "poisoned cache extensions went undetected in sessions mode";
}

TEST(DifftestSessions, ReproCommandNamesTheSessionCount) {
  DiffOptions opts;
  opts.sessions = 8;
  EXPECT_NE(ReproCommand(opts).find("--sessions 8"), std::string::npos);
}

TEST(DifftestSmoke, ReproCommandNamesTheBudget) {
  DiffOptions opts;
  opts.cache_budget_bytes = 2048;
  EXPECT_NE(ReproCommand(opts).find("--budget 2048"), std::string::npos);
}

TEST(DifftestSmoke, ReproCommandNamesTheParallelThreshold) {
  DiffOptions opts;
  opts.parallel_threshold = 4096;
  EXPECT_NE(ReproCommand(opts).find("--parallel-threshold 4096"),
            std::string::npos);
}

// The matrix at a 2 KiB budget: every cell evicts, and answers and
// invariants still hold across the evictions.
TEST(DifftestSmoke, MatrixAtSmallBudgetEvicts) {
  for (uint64_t seed : {0, 1}) {
    DiffOptions failing;
    const DiffReport report =
        RunSeedMatrix(seed, /*num_queries=*/16, /*with_faults=*/false,
                      &failing, /*cache_budget_bytes=*/2048);
    ASSERT_TRUE(report.ok) << report.Summary() << "\nrepro: "
                           << ReproCommand(failing);
    EXPECT_GT(report.evictions, 0u) << report.Summary();
  }
}

// Regression: the exact seed/stream where the harness first caught the
// missing SETOF guard in subsumption (a cached distinct element serving
// a bag query returned 14 of 32 rows).
TEST(DifftestSmoke, Seed25DistinctElementRegression) {
  DiffOptions opts;
  opts.seed = 25;
  opts.num_threads = 1;
  opts.prefetch = false;
  opts.keep = {10, 16};
  DiffReport report = RunDifferential(opts);
  EXPECT_TRUE(report.ok) << report.Summary();
}

}  // namespace
}  // namespace braid::testing
