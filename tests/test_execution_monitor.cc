// Unit tests for the Execution Monitor: element-source materialization
// (residual selections, index use), parallel-overlap accounting, and lazy
// stream construction.

#include <gtest/gtest.h>

#include <algorithm>

#include "caql/caql_query.h"
#include "cms/execution_monitor.h"
#include "exec/thread_pool.h"
#include "obs/trace.h"

namespace braid::cms {
namespace {

using caql::ParseCaql;
using rel::Tuple;
using rel::Value;

dbms::Database TestDb() {
  dbms::Database db;
  rel::Relation b1("b1", rel::Schema::FromNames({"a", "b"}));
  for (int i = 0; i < 30; ++i) {
    b1.AppendUnchecked({Value::Int(i % 6), Value::Int(i)});
  }
  rel::Relation b2("b2", rel::Schema::FromNames({"a", "b"}));
  for (int i = 0; i < 30; ++i) {
    b2.AppendUnchecked({Value::Int(i), Value::Int(i + 100)});
  }
  BRAID_CHECK_OK(db.AddTable(std::move(b1)));
  BRAID_CHECK_OK(db.AddTable(std::move(b2)));
  return db;
}

class ExecutionMonitorTest : public ::testing::Test {
 protected:
  ExecutionMonitorTest()
      : remote_(TestDb()),
        rdi_(&remote_),
        cache_(1 << 20, 4),
        planner_(&cache_.model(), &remote_, PlannerConfig{true}) {}

  /// Caches the full b1 relation as an element, optionally indexed on the
  /// first column.
  void CacheB1(bool indexed) {
    auto def = ParseCaql("e(X, Y) :- b1(X, Y)").value();
    auto ext = std::make_shared<rel::Relation>(
        "E1", rel::Schema::FromNames({"X", "Y"}));
    for (int i = 0; i < 30; ++i) {
      ext->AppendUnchecked({Value::Int(i % 6), Value::Int(i)});
    }
    auto element = std::make_shared<CacheElement>("E1", def, ext);
    if (indexed) element->EnsureIndex(0);
    ASSERT_TRUE(cache_.Insert(std::move(element)));
  }

  dbms::RemoteDbms remote_;
  RemoteDbmsInterface rdi_;
  CacheManager cache_;
  QueryPlanner planner_;
};

TEST_F(ExecutionMonitorTest, FullyLocalPlanTouchesNoRemote) {
  CacheB1(false);
  ExecutionMonitor monitor(&cache_, &rdi_, 0.01, true);
  auto plan = planner_.PlanQuery(ParseCaql("q(Y) :- b1(3, Y)").value());
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(plan->fully_local);
  auto outcome = monitor.ExecutePlan(*plan);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->remote_queries, 0u);
  EXPECT_EQ(outcome->remote_ms, 0);
  EXPECT_EQ(outcome->result.NumTuples(), 5u);  // i%6==3: 3,9,15,21,27
  EXPECT_GT(outcome->local_ms, 0);
}

TEST_F(ExecutionMonitorTest, IndexReducesLocalWork) {
  ExecutionMonitor monitor(&cache_, &rdi_, 0.01, true);
  auto plan_query = ParseCaql("q(Y) :- b1(3, Y)").value();

  CacheB1(false);
  auto plan1 = planner_.PlanQuery(plan_query);
  ASSERT_TRUE(plan1.ok());
  auto unindexed = monitor.ExecutePlan(*plan1);
  ASSERT_TRUE(unindexed.ok());

  cache_.model().Remove(*cache_.model().Find("E1"));
  CacheB1(true);
  auto plan2 = planner_.PlanQuery(plan_query);
  ASSERT_TRUE(plan2.ok());
  auto indexed = monitor.ExecutePlan(*plan2);
  ASSERT_TRUE(indexed.ok());

  EXPECT_EQ(indexed->result.NumTuples(), unindexed->result.NumTuples());
  EXPECT_LT(indexed->work.tuples_processed, unindexed->work.tuples_processed);
}

TEST_F(ExecutionMonitorTest, ParallelOverlapReducesResponse) {
  CacheB1(false);
  auto plan = planner_.PlanQuery(
      ParseCaql("q(Y, Z) :- b1(3, Y) & b2(Y, Z)").value());
  ASSERT_TRUE(plan.ok());
  ASSERT_FALSE(plan->fully_local);

  ExecutionMonitor serial(&cache_, &rdi_, 0.01, false);
  auto s = serial.ExecutePlan(*plan);
  ASSERT_TRUE(s.ok());
  ExecutionMonitor parallel(&cache_, &rdi_, 0.01, true);
  auto p = parallel.ExecutePlan(*plan);
  ASSERT_TRUE(p.ok());

  EXPECT_EQ(s->result.NumTuples(), p->result.NumTuples());
  EXPECT_LT(p->response_ms, s->response_ms);
  // Parallel response ≥ the larger branch alone.
  EXPECT_GE(p->response_ms, std::max(p->remote_ms, 0.0));
}

TEST_F(ExecutionMonitorTest, PinnedElementSurvivesEvictionMidPlan) {
  CacheB1(false);
  ExecutionMonitor monitor(&cache_, &rdi_, 0.01, true);
  auto plan = planner_.PlanQuery(ParseCaql("q(Y) :- b1(3, Y)").value());
  ASSERT_TRUE(plan.ok());
  // A concurrent session evicts mid-plan.
  cache_.model().Remove(*cache_.model().Find("E1"));
  // The plan pinned the element at plan time, so execution still answers
  // from the (immutable) extension instead of failing.
  auto outcome = monitor.ExecutePlan(*plan);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->result.NumTuples(), 5u);
  EXPECT_EQ(outcome->remote_queries, 0u);
}

TEST_F(ExecutionMonitorTest, LazyStreamProducesSameBag) {
  CacheB1(true);
  ExecutionMonitor monitor(&cache_, &rdi_, 0.01, true);
  auto q = ParseCaql("q(X, Y) :- b1(X, Y) & Y > 10").value();
  auto plan = planner_.PlanQuery(q);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(plan->fully_local);

  auto eager = monitor.ExecutePlan(*plan);
  ASSERT_TRUE(eager.ok());
  auto stream = monitor.BuildLazyStream(*plan);
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  rel::Relation lazy = stream::Drain(**stream);

  std::multiset<std::string> e, l;
  for (const Tuple& t : eager->result.tuples()) {
    e.insert(rel::TupleToString(t));
  }
  for (const Tuple& t : lazy.tuples()) l.insert(rel::TupleToString(t));
  EXPECT_EQ(l, e);
}

TEST_F(ExecutionMonitorTest, LazyStreamRejectsRemotePlans) {
  ExecutionMonitor monitor(&cache_, &rdi_, 0.01, true);
  auto plan = planner_.PlanQuery(ParseCaql("q(Y) :- b1(3, Y)").value());
  ASSERT_TRUE(plan.ok());
  ASSERT_FALSE(plan->fully_local);  // empty cache
  EXPECT_EQ(monitor.BuildLazyStream(*plan).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(ExecutionMonitorTest, LazyStreamRejectsConstantHead) {
  CacheB1(false);
  ExecutionMonitor monitor(&cache_, &rdi_, 0.01, true);
  auto plan = planner_.PlanQuery(ParseCaql("q(Y, 7) :- b1(7, Y)").value());
  ASSERT_TRUE(plan.ok());
  if (plan->fully_local) {
    EXPECT_EQ(monitor.BuildLazyStream(*plan).status().code(),
              StatusCode::kUnimplemented);
  }
}

TEST_F(ExecutionMonitorTest, LazyJoinAcrossTwoElements) {
  CacheB1(false);
  // Cache b2 as well.
  auto def = ParseCaql("e2(X, Y) :- b2(X, Y)").value();
  auto ext = std::make_shared<rel::Relation>(
      "E2", rel::Schema::FromNames({"X", "Y"}));
  for (int i = 0; i < 30; ++i) {
    ext->AppendUnchecked({Value::Int(i), Value::Int(i + 100)});
  }
  ASSERT_TRUE(cache_.Insert(std::make_shared<CacheElement>("E2", def, ext)));

  ExecutionMonitor monitor(&cache_, &rdi_, 0.01, true);
  auto q = ParseCaql("q(X, Z) :- b1(X, Y) & b2(Y, Z)").value();
  auto plan = planner_.PlanQuery(q);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(plan->fully_local);
  auto stream = monitor.BuildLazyStream(*plan);
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  rel::Relation lazy = stream::Drain(**stream);
  auto eager = monitor.ExecutePlan(*plan);
  ASSERT_TRUE(eager.ok());
  EXPECT_EQ(lazy.NumTuples(), eager->result.NumTuples());
  EXPECT_EQ(lazy.NumTuples(), 30u);
}

TEST_F(ExecutionMonitorTest, ParallelTwoRemoteFetchesChargeMaxNotSum) {
  // Hand-built plan with two independent remote sources (the bench E10b
  // shape). With concurrent fetches, only the slowest sits on the modeled
  // critical path; charging the sum would model overlapped fetches as if
  // they ran back to back.
  Plan plan;
  plan.query = ParseCaql("q(X, Z) :- b1(X, Y) & b2(Y, Z)").value();
  PlanSource s1;
  s1.kind = PlanSource::Kind::kRemote;
  s1.remote_query = ParseCaql("s1(X, Y) :- b1(X, Y)").value();
  s1.remote_vars = {"X", "Y"};
  PlanSource s2;
  s2.kind = PlanSource::Kind::kRemote;
  s2.remote_query = ParseCaql("s2(Y, Z) :- b2(Y, Z)").value();
  s2.remote_vars = {"Y", "Z"};
  plan.sources.push_back(std::move(s1));
  plan.sources.push_back(std::move(s2));

  ExecutionMonitor serial(&cache_, &rdi_, 0.01, false);
  obs::Tracer serial_tracer;
  auto s = serial.ExecutePlan(plan, &serial_tracer, 0);
  ASSERT_TRUE(s.ok()) << s.status().ToString();

  exec::ThreadPool pool(2);
  ExecutionMonitor parallel(&cache_, &rdi_, 0.01, true,
                            exec::ExecContext{&pool, 4096});
  obs::Tracer tracer;
  auto p = parallel.ExecutePlan(plan, &tracer, 0);
  ASSERT_TRUE(p.ok()) << p.status().ToString();

  // Communication volume is mode-independent; the critical path is not.
  EXPECT_DOUBLE_EQ(p->remote_ms, s->remote_ms);
  EXPECT_DOUBLE_EQ(s->remote_critical_ms, s->remote_ms);
  EXPECT_GT(p->remote_ms, 0);
  EXPECT_LT(p->remote_critical_ms, p->remote_ms);

  // Per-fetch modeled costs from the trace spans: their max is the
  // critical path, their sum the communication volume.
  double sum = 0, mx = 0;
  int fetch_spans = 0;
  for (const obs::Span& span : tracer.Snapshot()) {
    if (span.name != "fetch") continue;
    ++fetch_spans;
    ASSERT_GE(span.modeled_ms, 0);
    EXPECT_GE(span.measured_ms, 0);
    sum += span.modeled_ms;
    mx = std::max(mx, span.modeled_ms);
  }
  EXPECT_EQ(fetch_spans, 2);
  EXPECT_DOUBLE_EQ(sum, p->remote_ms);
  EXPECT_DOUBLE_EQ(mx, p->remote_critical_ms);

  // No element sources, so prep is free: response = remote path +
  // assembly. Parallel charges max(fetches), serial their sum.
  EXPECT_DOUBLE_EQ(p->response_ms, p->remote_critical_ms + p->local_ms);
  EXPECT_DOUBLE_EQ(s->response_ms, s->remote_ms + s->local_ms);
  EXPECT_LT(p->response_ms, s->response_ms);
}

TEST(ExecutionMonitorTypes, RemoteFetchCarriesBaseTableTypes) {
  dbms::Database db;
  rel::Relation t("t", rel::Schema({rel::Column{"a", rel::ValueType::kInt},
                                    rel::Column{"b", rel::ValueType::kString}}));
  t.AppendUnchecked({Value::Int(1), Value::String("x")});
  BRAID_CHECK_OK(db.AddTable(std::move(t)));
  dbms::RemoteDbms remote(std::move(db));
  RemoteDbmsInterface rdi(&remote);

  auto fetch = rdi.Fetch(ParseCaql("s(X, Y) :- t(X, Y)").value(), {"X", "Y"});
  ASSERT_TRUE(fetch.ok()) << fetch.status().ToString();
  const rel::Schema& schema = fetch->bindings.schema();
  ASSERT_EQ(schema.size(), 2u);
  EXPECT_EQ(schema.column(0).name, "X");
  EXPECT_EQ(schema.column(0).type, rel::ValueType::kInt);
  EXPECT_EQ(schema.column(1).name, "Y");
  EXPECT_EQ(schema.column(1).type, rel::ValueType::kString);
}

TEST(ExecutionMonitorTypes, ElementProjectionCarriesExtensionTypes) {
  dbms::Database db;
  rel::Relation t("t", rel::Schema({rel::Column{"a", rel::ValueType::kInt},
                                    rel::Column{"b", rel::ValueType::kString}}));
  t.AppendUnchecked({Value::Int(1), Value::String("x")});
  BRAID_CHECK_OK(db.AddTable(std::move(t)));
  dbms::RemoteDbms remote(std::move(db));
  RemoteDbmsInterface rdi(&remote);
  CacheManager cache(1 << 20, 4);
  QueryPlanner planner(&cache.model(), &remote, PlannerConfig{true});

  auto def = ParseCaql("e(X, Y) :- t(X, Y)").value();
  auto ext = std::make_shared<rel::Relation>(
      "E1", rel::Schema({rel::Column{"X", rel::ValueType::kInt},
                         rel::Column{"Y", rel::ValueType::kString}}));
  ext->AppendUnchecked({Value::Int(1), Value::String("x")});
  ext->AppendUnchecked({Value::Int(2), Value::String("y")});
  ASSERT_TRUE(cache.Insert(std::make_shared<CacheElement>("E1", def, ext)));

  ExecutionMonitor monitor(&cache, &rdi, 0.01, false);
  auto plan = planner.PlanQuery(ParseCaql("q(X, Y) :- t(X, Y)").value());
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(plan->fully_local);
  // The lazy pipeline exposes the binding schema directly: the projected
  // element source must carry the extension column types, not kNull.
  auto stream = monitor.BuildLazyStream(*plan);
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  const rel::Schema& schema = (*stream)->schema();
  ASSERT_EQ(schema.size(), 2u);
  EXPECT_EQ(schema.column(0).type, rel::ValueType::kInt);
  EXPECT_EQ(schema.column(1).type, rel::ValueType::kString);
}

}  // namespace
}  // namespace braid::cms
