// Tests for the IE ← CMS cache-model information flow (paper §3: "the IE
// can access cache model information from the CMS"): the cache model as a
// relation, and cache-aware conjunct ordering in the shaper.

#include <gtest/gtest.h>

#include "braid/braid_system.h"
#include "caql/caql_query.h"
#include "ie/shaper.h"
#include "logic/parser.h"

namespace braid {
namespace {

using rel::Value;

TEST(CacheModelRelation, ReflectsElements) {
  dbms::Database db;
  rel::Relation b("b", rel::Schema::FromNames({"x", "y"}));
  b.AppendUnchecked({Value::Int(1), Value::Int(2)});
  b.AppendUnchecked({Value::Int(3), Value::Int(4)});
  BRAID_CHECK_OK(db.AddTable(std::move(b)));
  dbms::RemoteDbms remote(std::move(db));
  cms::Cms cms(&remote, cms::CmsConfig{});

  rel::Relation empty_model = cms.cache().model().AsRelation();
  EXPECT_TRUE(empty_model.empty());
  EXPECT_EQ(empty_model.schema().size(), 6u);

  ASSERT_TRUE(cms.Query(caql::ParseCaql("q(X, Y) :- b(X, Y)").value()).ok());
  rel::Relation model = cms.cache().model().AsRelation();
  ASSERT_EQ(model.NumTuples(), 1u);
  EXPECT_EQ(model.tuple(0)[2], Value::String("extension"));
  EXPECT_EQ(model.tuple(0)[3], Value::Int(2));  // tuples
  EXPECT_GT(model.tuple(0)[4].AsInt(), 0);      // bytes
}

TEST(CacheModelRelation, HasMaterializedFor) {
  cms::CacheModel model;
  EXPECT_FALSE(model.HasMaterializedFor("b"));
  auto def = caql::ParseCaql("e(X, Y) :- b(X, Y)").value();
  // Generator-form element: present but not materialized.
  model.Register(std::make_shared<cms::CacheElement>("G1", def));
  EXPECT_FALSE(model.HasMaterializedFor("b"));
  auto ext = std::make_shared<rel::Relation>(
      "E1", rel::Schema::FromNames({"X", "Y"}));
  model.Register(std::make_shared<cms::CacheElement>("E1", def, ext));
  EXPECT_TRUE(model.HasMaterializedFor("b"));
  EXPECT_FALSE(model.HasMaterializedFor("other"));
}

TEST(CacheAwareShaping, CachedRelationOrderedFirst) {
  // Two equally sized tables; caching one should flip the shaper's
  // conjunct order in its favour.
  dbms::Database db;
  for (const char* name : {"t1", "t2"}) {
    rel::Relation t(name, rel::Schema::FromNames({"a", "b"}));
    for (int i = 0; i < 50; ++i) {
      t.AppendUnchecked({Value::Int(i), Value::Int(i + 1)});
    }
    BRAID_CHECK_OK(db.AddTable(std::move(t)));
  }
  logic::KnowledgeBase kb;
  ASSERT_TRUE(logic::ParseProgram(R"(
#base t1(a, b).
#base t2(a, b).
p(X, Z) :- t1(X, Y), t2(Y, Z).
)",
                                  &kb)
                  .ok());
  dbms::RemoteDbms remote(std::move(db));
  cms::Cms cms(&remote, cms::CmsConfig{});
  ie::InferenceEngine ie(&kb, &cms, ie::IeConfig{});
  auto query = logic::ParseQueryAtom("p(X, Z)").value();

  // Without anything cached, t1 and t2 tie; the shaper keeps t1 first.
  auto before = ie.Analyze(query);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->graph.root->alternatives[0]->subgoals[0]->goal.predicate,
            "t1");
  // A single-atom view per subgoal, so the advice shows the order. The
  // Ask memoizes this t1-first pre-analysis. Its queries cache both
  // tables, so clear the cache afterwards.
  ie::IeConfig one_atom_views;
  one_atom_views.max_conjunction_size = 1;
  ie.set_config(one_atom_views);
  auto first_ask = ie.Ask(query);
  ASSERT_TRUE(first_ask.ok()) << first_ask.status().ToString();
  EXPECT_EQ(first_ask->advice().view_specs[0].body[0].predicate, "t1");
  cms.DrainPrefetches();
  for (const auto& [id, e] : cms.cache().model().elements()) {
    cms.cache().model().Remove(*e);
  }

  // Cache t2: the cache-residency discount should move it first.
  ASSERT_TRUE(cms.Query(caql::ParseCaql("warm(A, B) :- t2(A, B)").value())
                  .ok());
  auto after = ie.Analyze(query);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->graph.root->alternatives[0]->subgoals[0]->goal.predicate,
            "t2");

  // And the query still answers correctly with the flipped order. The
  // memoized t1-first pre-analysis consulted t2's residency, which has
  // flipped, so the Ask re-analyzes and orders t2 first.
  auto out = ie.Ask(query);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->solutions.NumTuples(), 49u);
  EXPECT_EQ(out->advice().view_specs[0].body[0].predicate, "t2");
}

}  // namespace
}  // namespace braid
