// Unit tests for the RDI (CAQL → SQL translation) and the Query
// Planner/Optimizer (steps 2-3 of paper §5.3).

#include <gtest/gtest.h>

#include "caql/caql_query.h"
#include "cms/planner.h"
#include "cms/remote_interface.h"

namespace braid::cms {
namespace {

using caql::CaqlQuery;
using caql::ParseCaql;
using rel::Tuple;
using rel::Value;

CaqlQuery Q(const std::string& text) {
  auto r = ParseCaql(text);
  EXPECT_TRUE(r.ok()) << text << ": " << r.status().ToString();
  return r.value();
}

dbms::Database TestDb() {
  dbms::Database db;
  rel::Relation b1("b1", rel::Schema::FromNames({"a", "b"}));
  b1.AppendUnchecked({Value::Int(1), Value::Int(10)});
  b1.AppendUnchecked({Value::Int(2), Value::Int(20)});
  rel::Relation b2("b2", rel::Schema::FromNames({"a", "b"}));
  b2.AppendUnchecked({Value::Int(10), Value::Int(5)});
  b2.AppendUnchecked({Value::Int(20), Value::Int(6)});
  BRAID_CHECK_OK(db.AddTable(std::move(b1)));
  BRAID_CHECK_OK(db.AddTable(std::move(b2)));
  return db;
}

class RdiTest : public ::testing::Test {
 protected:
  RdiTest() : remote_(TestDb()), rdi_(&remote_) {}
  dbms::RemoteDbms remote_;
  RemoteDbmsInterface rdi_;
};

TEST_F(RdiTest, TranslatesSelectionAndJoin) {
  auto sql = rdi_.Translate(Q("q(X, Z) :- b1(X, Y) & b2(Y, Z)"), {"X", "Z"});
  ASSERT_TRUE(sql.ok()) << sql.status().ToString();
  EXPECT_EQ(sql->from, (std::vector<std::string>{"b1", "b2"}));
  ASSERT_EQ(sql->where.size(), 1u);  // shared Y
  EXPECT_TRUE(sql->where[0].IsEquiJoin());
  EXPECT_EQ(sql->select.size(), 2u);
}

TEST_F(RdiTest, ConstantsBecomeConditions) {
  auto sql = rdi_.Translate(Q("q(Y) :- b1(1, Y)"), {"Y"});
  ASSERT_TRUE(sql.ok());
  ASSERT_EQ(sql->where.size(), 1u);
  EXPECT_FALSE(sql->where[0].rhs_is_column);
  EXPECT_EQ(sql->where[0].constant, Value::Int(1));
}

TEST_F(RdiTest, ComparisonsPushed) {
  auto sql = rdi_.Translate(Q("q(X) :- b1(X, Y) & Y > 15"), {"X"});
  ASSERT_TRUE(sql.ok());
  ASSERT_EQ(sql->where.size(), 1u);
  EXPECT_EQ(sql->where[0].op, rel::CompareOp::kGt);
}

TEST_F(RdiTest, ReversedConstantComparisonNormalized) {
  auto sql = rdi_.Translate(Q("q(X) :- b1(X, Y) & 15 < Y"), {"X"});
  ASSERT_TRUE(sql.ok());
  ASSERT_EQ(sql->where.size(), 1u);
  EXPECT_EQ(sql->where[0].op, rel::CompareOp::kGt);  // Y > 15
}

TEST_F(RdiTest, EvaluableRejected) {
  auto sql =
      rdi_.Translate(Q("q(W) :- b1(X, Y) & plus(X, Y, W)"), {"W"});
  EXPECT_EQ(sql.status().code(), StatusCode::kUnimplemented);
}

TEST_F(RdiTest, UnknownTableRejected) {
  auto sql = rdi_.Translate(Q("q(X) :- zz(X, Y)"), {"X"});
  EXPECT_EQ(sql.status().code(), StatusCode::kNotFound);
}

TEST_F(RdiTest, UnknownNeededVarRejected) {
  auto sql = rdi_.Translate(Q("q(X) :- b1(X, Y)"), {"W"});
  EXPECT_EQ(sql.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(RdiTest, FetchRenamesColumnsToVariables) {
  auto fetch = rdi_.Fetch(Q("q(Y, X) :- b1(X, Y)"), {"Y", "X"});
  ASSERT_TRUE(fetch.ok()) << fetch.status().ToString();
  EXPECT_EQ(fetch->bindings.schema().column(0).name, "Y");
  EXPECT_EQ(fetch->bindings.schema().column(1).name, "X");
  EXPECT_EQ(fetch->bindings.NumTuples(), 2u);
  EXPECT_GT(fetch->cost.total_ms, 0);
}

TEST_F(RdiTest, ExistenceFetchKeepsCount) {
  auto fetch = rdi_.Fetch(Q("q() :- b1(1, 10)"), {});
  ASSERT_TRUE(fetch.ok());
  EXPECT_EQ(fetch->bindings.NumTuples(), 1u);
  EXPECT_EQ(fetch->bindings.schema().size(), 0u);
}

class PlannerTest : public ::testing::Test {
 protected:
  PlannerTest()
      : remote_(TestDb()),
        planner_(&model_, &remote_, PlannerConfig{true}) {}

  void AddElement(const std::string& id, const std::string& def,
                  std::vector<Tuple> tuples) {
    CaqlQuery q = Q(def);
    auto ext = std::make_shared<rel::Relation>(id, rel::Schema::FromNames(
                                                       q.HeadVariables()));
    for (Tuple& t : tuples) ext->AppendUnchecked(std::move(t));
    model_.Register(std::make_shared<CacheElement>(id, q, ext));
  }

  CacheModel model_;
  dbms::RemoteDbms remote_;
  QueryPlanner planner_;
};

TEST_F(PlannerTest, EmptyCacheGoesFullyRemote) {
  auto plan = planner_.PlanQuery(Q("q(X, Y) :- b1(X, Y)"));
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_FALSE(plan->fully_local);
  ASSERT_EQ(plan->sources.size(), 1u);
  EXPECT_EQ(plan->sources[0].kind, PlanSource::Kind::kRemote);
}

TEST_F(PlannerTest, FullMatchGoesFullyLocal) {
  AddElement("E1", "e(X, Y) :- b1(X, Y)",
             {{Value::Int(1), Value::Int(10)}});
  auto plan = planner_.PlanQuery(Q("q(A) :- b1(A, 10)"));
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->fully_local);
  ASSERT_EQ(plan->sources.size(), 1u);
  EXPECT_EQ(plan->sources[0].kind, PlanSource::Kind::kElement);
  EXPECT_EQ(plan->sources[0].element->id(), "E1");
}

TEST_F(PlannerTest, PartialMatchSplitsLocalAndRemote) {
  AddElement("E1", "e(X, Y) :- b1(X, Y)",
             {{Value::Int(1), Value::Int(10)}});
  auto plan = planner_.PlanQuery(Q("q(A, C) :- b1(A, B) & b2(B, C)"));
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan->fully_local);
  ASSERT_EQ(plan->sources.size(), 2u);
  bool has_element = false, has_remote = false;
  for (const PlanSource& s : plan->sources) {
    if (s.kind == PlanSource::Kind::kElement) has_element = true;
    if (s.kind == PlanSource::Kind::kRemote) {
      has_remote = true;
      // The remote subquery must export the join variable B.
      EXPECT_NE(std::find(s.remote_vars.begin(), s.remote_vars.end(), "B"),
                s.remote_vars.end());
    }
  }
  EXPECT_TRUE(has_element);
  EXPECT_TRUE(has_remote);
}

TEST_F(PlannerTest, OverlappingElementsPreferCheaperDerivation) {
  // §5.3.3: a single element covering the join beats joining two
  // single-relation elements.
  AddElement("E101", "e(X, Y) :- b1(X, Y)", {{Value::Int(1), Value::Int(10)}});
  AddElement("E102", "e(X, Y) :- b2(X, Y)", {{Value::Int(10), Value::Int(5)}});
  AddElement("E103", "e(X, Y, Z) :- b1(X, Y) & b2(Y, Z)",
             {{Value::Int(1), Value::Int(10), Value::Int(5)}});
  auto plan = planner_.PlanQuery(Q("q(A, C) :- b1(A, B) & b2(B, C)"));
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->fully_local);
  ASSERT_EQ(plan->sources.size(), 1u);
  EXPECT_EQ(plan->sources[0].element->id(), "E103");
}

TEST_F(PlannerTest, SubsumptionDisabledForcesRemote) {
  QueryPlanner no_sub(&model_, &remote_, PlannerConfig{false});
  AddElement("E1", "e(X, Y) :- b1(X, Y)", {{Value::Int(1), Value::Int(10)}});
  auto plan = no_sub.PlanQuery(Q("q(A) :- b1(A, 10)"));
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan->fully_local);
  EXPECT_EQ(plan->sources[0].kind, PlanSource::Kind::kRemote);
}

TEST_F(PlannerTest, ComparisonsPushedOnlyWhenRemote) {
  AddElement("E1", "e(X, Y) :- b1(X, Y)", {{Value::Int(1), Value::Int(10)}});
  auto plan = planner_.PlanQuery(Q("q(A) :- b1(A, B) & b2(B, C) & C > 4"));
  ASSERT_TRUE(plan.ok());
  // C only occurs remotely → comparison pushed, not residual.
  EXPECT_TRUE(plan->residual_comparisons.empty());
  for (const PlanSource& s : plan->sources) {
    if (s.kind == PlanSource::Kind::kRemote) {
      EXPECT_EQ(s.remote_query.ComparisonAtoms().size(), 1u);
    }
  }
}

TEST_F(PlannerTest, ComparisonSpanningSourcesStaysResidual) {
  AddElement("E1", "e(X, Y) :- b1(X, Y)", {{Value::Int(1), Value::Int(10)}});
  auto plan = planner_.PlanQuery(Q("q(A) :- b1(A, B) & b2(B, C) & A < C"));
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->residual_comparisons.size(), 1u);
  EXPECT_EQ(plan->residual_comparisons[0].predicate, "<");
}

TEST_F(PlannerTest, EvaluablesAlwaysLocal) {
  auto plan = planner_.PlanQuery(Q("q(W) :- b1(X, Y) & plus(X, Y, W)"));
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->evaluables.size(), 1u);
  for (const PlanSource& s : plan->sources) {
    if (s.kind == PlanSource::Kind::kRemote) {
      EXPECT_TRUE(s.remote_query.EvaluableAtoms().empty());
      // W is needed by the evaluable; X, Y must be shipped.
      EXPECT_EQ(s.remote_vars.size(), 2u);
    }
  }
}

TEST_F(PlannerTest, GeneratorFormElementsNotUsedAsSources) {
  CaqlQuery def = Q("e(X, Y) :- b1(X, Y)");
  model_.Register(std::make_shared<CacheElement>("G1", def));  // generator
  auto plan = planner_.PlanQuery(Q("q(A, B) :- b1(A, B)"));
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan->fully_local);
}

TEST_F(PlannerTest, PureBuiltinQueryIsLocal) {
  auto plan = planner_.PlanQuery(Q("check() :- 1 < 2"));
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->fully_local);
  EXPECT_TRUE(plan->sources.empty());
  EXPECT_EQ(plan->residual_comparisons.size(), 1u);
}

}  // namespace
}  // namespace braid::cms
