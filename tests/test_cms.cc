// Tests for the CMS facade: outcomes, metrics, advice-driven behaviours
// (generalization, prefetching, indexing, lazy evaluation), and CMS-only
// operations (aggregation, transitive closure).

#include <gtest/gtest.h>

#include <algorithm>

#include "advice/advice.h"
#include "cms/cms.h"
#include "workload/generators.h"

namespace braid::cms {
namespace {

using caql::CaqlQuery;
using caql::ParseCaql;
using rel::Value;

CaqlQuery Q(const std::string& text) {
  auto r = ParseCaql(text);
  EXPECT_TRUE(r.ok()) << text << ": " << r.status().ToString();
  return r.value();
}

dbms::Database TestDb() {
  dbms::Database db;
  rel::Relation b1("b1", rel::Schema::FromNames({"a", "b"}));
  for (int i = 0; i < 20; ++i) {
    b1.AppendUnchecked({Value::Int(i % 5), Value::Int(i)});
  }
  rel::Relation b2("b2", rel::Schema::FromNames({"a", "b"}));
  for (int i = 0; i < 20; ++i) {
    b2.AppendUnchecked({Value::Int(i), Value::Int(i * 10)});
  }
  BRAID_CHECK_OK(db.AddTable(std::move(b1)));
  BRAID_CHECK_OK(db.AddTable(std::move(b2)));
  return db;
}

advice::ViewSpec ViewD(const std::string& id, advice::Binding x_binding,
                       advice::Binding y_binding) {
  advice::ViewSpec v;
  v.id = id;
  v.head = {advice::AnnotatedVar{"X", x_binding},
            advice::AnnotatedVar{"Y", y_binding}};
  v.body = {logic::Atom("b1", {logic::Term::Var("X"),
                               logic::Term::Var("Y")})};
  return v;
}

class CmsTest : public ::testing::Test {
 protected:
  CmsTest() : remote_(TestDb()), cms_(&remote_, CmsConfig{}) {}

  rel::Relation Answer(const std::string& text) {
    auto a = cms_.Query(Q(text));
    EXPECT_TRUE(a.ok()) << text << ": " << a.status().ToString();
    if (!a.ok()) return rel::Relation();
    return a->relation != nullptr ? *a->relation
                                  : stream::Drain(*a->stream);
  }

  dbms::RemoteDbms remote_;
  Cms cms_;
};

TEST_F(CmsTest, FirstQueryIsRemoteSecondIsExact) {
  auto a1 = cms_.Query(Q("q(X, Y) :- b1(X, Y)"));
  ASSERT_TRUE(a1.ok());
  EXPECT_EQ(a1->outcome, CacheOutcome::kRemote);
  auto a2 = cms_.Query(Q("q(P, R) :- b1(P, R)"));  // renamed: same canonical
  ASSERT_TRUE(a2.ok());
  EXPECT_EQ(a2->outcome, CacheOutcome::kExact);
  EXPECT_EQ(cms_.metrics().exact_hits, 1u);
  EXPECT_EQ(a1->relation->NumTuples(), a2->relation->NumTuples());
}

TEST_F(CmsTest, SubsumptionAnswersNarrowerQueryLocally) {
  ASSERT_TRUE(cms_.Query(Q("all(X, Y) :- b1(X, Y)")).ok());
  const size_t remote_before = remote_.stats().queries;
  auto a = cms_.Query(Q("narrow(Y) :- b1(2, Y)"));
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->outcome, CacheOutcome::kFullLocal);
  EXPECT_EQ(remote_.stats().queries, remote_before);
  EXPECT_EQ(a->relation->NumTuples(), 4u);  // i%5==2: 2,7,12,17
}

TEST_F(CmsTest, PartialHitJoinsCacheAndRemote) {
  ASSERT_TRUE(cms_.Query(Q("all(X, Y) :- b1(X, Y)")).ok());
  auto a = cms_.Query(Q("join(X, Z) :- b1(X, Y) & b2(Y, Z)"));
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->outcome, CacheOutcome::kPartial);
  EXPECT_EQ(a->relation->NumTuples(), 20u);
  EXPECT_EQ(cms_.metrics().partial_hits, 1u);
}

TEST_F(CmsTest, AnswersAreCorrectRegardlessOfPath) {
  // Remote answer vs cached-subsumption answer must coincide.
  auto direct = Answer("q1(Y) :- b1(3, Y)");
  ASSERT_TRUE(cms_.Query(Q("all(X, Y) :- b1(X, Y)")).ok());
  auto via_cache = Answer("q2(Y) :- b1(3, Y)");
  ASSERT_EQ(direct.NumTuples(), via_cache.NumTuples());
}

TEST_F(CmsTest, MetricsAccumulateAndReset) {
  ASSERT_TRUE(cms_.Query(Q("q(X, Y) :- b1(X, Y)")).ok());
  EXPECT_EQ(cms_.metrics().ie_queries, 1u);
  EXPECT_GT(cms_.metrics().response_ms, 0);
  cms_.ResetMetrics();
  EXPECT_EQ(cms_.metrics().ie_queries, 0u);
}

TEST_F(CmsTest, CachingDisabledAlwaysRemote) {
  CmsConfig config;
  config.enable_caching = false;
  Cms loose(&remote_, config);
  for (int i = 0; i < 3; ++i) {
    auto a = loose.Query(Q("q(X, Y) :- b1(X, Y)"));
    ASSERT_TRUE(a.ok());
    EXPECT_EQ(a->outcome, CacheOutcome::kRemote);
  }
  EXPECT_EQ(loose.metrics().remote_only, 3u);
  EXPECT_EQ(loose.metrics().exact_hits, 0u);
}

TEST_F(CmsTest, SingleRelationPolicyOnlyCachesBaseExtensions) {
  CmsConfig config;
  config.single_relation_only = true;
  config.enable_advice = false;
  Cms ceri(&remote_, config);
  ASSERT_TRUE(ceri.Query(Q("all(X, Y) :- b1(X, Y)")).ok());
  EXPECT_EQ(ceri.cache().model().size(), 1u);
  // A join result is not admitted by the CERI86 policy.
  ASSERT_TRUE(ceri.Query(Q("j(X, Z) :- b1(X, Y) & b2(Y, Z)")).ok());
  EXPECT_EQ(ceri.cache().model().size(), 1u);
  // A selection result is not admitted either.
  ASSERT_TRUE(ceri.Query(Q("sel(Y) :- b1(2, Y)")).ok());
  EXPECT_EQ(ceri.cache().model().size(), 1u);
}

TEST_F(CmsTest, LazyAnswerForAllProducerView) {
  advice::AdviceSet advice;
  advice.view_specs.push_back(
      ViewD("d1", advice::Binding::kProducer, advice::Binding::kProducer));
  cms_.BeginSession(advice);
  // Populate the cache with b1 so the lazy plan is fully local.
  ASSERT_TRUE(cms_.Query(Q("warm(X, Y) :- b1(X, Y)")).ok());
  auto a = cms_.Query(Q("d1(X, Y) :- b1(X, Y)"));
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->outcome, CacheOutcome::kLazy);
  EXPECT_TRUE(a->lazy);
  EXPECT_EQ(a->relation, nullptr);
  // Pulling two tuples must not scan everything.
  ASSERT_TRUE(a->stream->Next().has_value());
  ASSERT_TRUE(a->stream->Next().has_value());
  rel::Relation rest = stream::Drain(*a->stream);
  EXPECT_EQ(rest.NumTuples() + 2, 20u);
  EXPECT_EQ(cms_.metrics().lazy_answers, 1u);
}

TEST_F(CmsTest, ConsumerViewIsEagerWithIndex) {
  advice::AdviceSet advice;
  advice.view_specs.push_back(
      ViewD("d2", advice::Binding::kProducer, advice::Binding::kConsumer));
  cms_.BeginSession(advice);
  auto a = cms_.Query(Q("d2(X, 7) :- b1(X, 7)"));
  ASSERT_TRUE(a.ok());
  EXPECT_FALSE(a->lazy);
}

TEST_F(CmsTest, GeneralizationCachesGeneralForm) {
  // Path expression predicting d2 repeats → instance queries should be
  // generalized (§5.3.1).
  advice::AdviceSet advice;
  advice.view_specs.push_back(
      ViewD("d2", advice::Binding::kProducer, advice::Binding::kConsumer));
  advice.path_expression = advice::PathExpr::Sequence(
      {advice::PathExpr::Pattern(
          "d2", {advice::AnnotatedVar{"X", advice::Binding::kProducer},
                 advice::AnnotatedVar{"Y", advice::Binding::kConsumer}})},
      advice::RepBound::Fixed(0), advice::RepBound::Cardinality("Y"));
  cms_.BeginSession(advice);

  auto a1 = cms_.Query(Q("d2(X, 7) :- b1(X, 7)"));
  ASSERT_TRUE(a1.ok());
  EXPECT_EQ(cms_.metrics().generalizations, 1u);
  const size_t remote_after_first = remote_.stats().queries;

  // Subsequent instances with different constants answer locally.
  auto a2 = cms_.Query(Q("d2(X, 8) :- b1(X, 8)"));
  ASSERT_TRUE(a2.ok());
  EXPECT_EQ(a2->outcome, CacheOutcome::kFullLocal);
  EXPECT_EQ(remote_.stats().queries, remote_after_first);
}

TEST_F(CmsTest, PrefetchExecutesPredictedNextView) {
  advice::AdviceSet advice;
  advice.view_specs.push_back(
      ViewD("d1", advice::Binding::kProducer, advice::Binding::kProducer));
  advice::ViewSpec d2;
  d2.id = "d2";
  d2.head = {advice::AnnotatedVar{"A", advice::Binding::kProducer},
             advice::AnnotatedVar{"B", advice::Binding::kProducer}};
  d2.body = {logic::Atom("b2", {logic::Term::Var("A"),
                                logic::Term::Var("B")})};
  advice.view_specs.push_back(d2);
  advice.path_expression = advice::PathExpr::Sequence(
      {advice::PathExpr::Pattern("d1", {}),
       advice::PathExpr::Pattern("d2", {})},
      advice::RepBound::Fixed(1), advice::RepBound::Fixed(1));
  cms_.BeginSession(advice);

  auto a1 = cms_.Query(Q("d1(X, Y) :- b1(X, Y)"));
  ASSERT_TRUE(a1.ok());
  // d2 was predicted next → prefetched in the background; drain before
  // reading the counters.
  cms_.DrainPrefetches();
  EXPECT_EQ(cms_.metrics().prefetches, 1u);
  EXPECT_GT(cms_.metrics().prefetch_ms, 0);

  const size_t remote_before = remote_.stats().queries;
  auto a2 = cms_.Query(Q("d2(A, B) :- b2(A, B)"));
  ASSERT_TRUE(a2.ok());
  EXPECT_EQ(remote_.stats().queries, remote_before);  // served from cache
}

TEST_F(CmsTest, AggregateOverQueryResult) {
  auto agg = cms_.Aggregate(Q("q(X, Y) :- b1(X, Y)"), {"X"},
                            rel::AggFn::kCount, "Y");
  ASSERT_TRUE(agg.ok()) << agg.status().ToString();
  EXPECT_EQ(agg->NumTuples(), 5u);  // 5 distinct X groups
  for (const rel::Tuple& t : agg->tuples()) {
    EXPECT_EQ(t[1], Value::Int(4));  // 4 rows per group
  }
}

TEST_F(CmsTest, TransitiveClosureComputedAndCached) {
  dbms::Database db;
  rel::Relation edge("edge", rel::Schema::FromNames({"s", "d"}));
  edge.AppendUnchecked({Value::Int(1), Value::Int(2)});
  edge.AppendUnchecked({Value::Int(2), Value::Int(3)});
  BRAID_CHECK_OK(db.AddTable(std::move(edge)));
  dbms::RemoteDbms remote(std::move(db));
  Cms cms(&remote, CmsConfig{});

  auto tc1 = cms.TransitiveClosure("edge");
  ASSERT_TRUE(tc1.ok()) << tc1.status().ToString();
  EXPECT_EQ(tc1->NumTuples(), 3u);  // 12 23 13
  const size_t remote_q = remote.stats().queries;
  auto tc2 = cms.TransitiveClosure("edge");
  ASSERT_TRUE(tc2.ok());
  EXPECT_EQ(tc2->NumTuples(), 3u);
  EXPECT_EQ(remote.stats().queries, remote_q);  // cached
}

TEST_F(CmsTest, InvalidQueryRejected) {
  CaqlQuery bad;
  bad.name = "bad";
  bad.head_args = {logic::Term::Var("X")};
  bad.body = {logic::Atom("b1", {logic::Term::Var("Y"),
                                 logic::Term::Var("Z")})};
  EXPECT_FALSE(cms_.Query(bad).ok());
}

TEST_F(CmsTest, UnknownRelationErrorsCleanly) {
  auto a = cms_.Query(Q("q(X) :- nosuch(X)"));
  EXPECT_FALSE(a.ok());
  EXPECT_EQ(a.status().code(), StatusCode::kNotFound);
}

TEST(CmsExactMatch, ConstantsThatRenderAlikeGetTheirOwnAnswers) {
  // b(k, v) mixes int, string and double values in v. Each pair of
  // queries below once shared a canonical key, so the second query was an
  // exact hit answered with the first one's element.
  dbms::Database db;
  rel::Relation b("b", rel::Schema::FromNames({"k", "v"}));
  b.AppendUnchecked({Value::Int(1), Value::Int(1)});
  b.AppendUnchecked({Value::Int(2), Value::String("1")});
  b.AppendUnchecked({Value::Int(3), Value::Int(3)});
  b.AppendUnchecked({Value::Int(4), Value::String("V0")});
  b.AppendUnchecked({Value::Int(5), Value::Double(0.1234567)});
  b.AppendUnchecked({Value::Int(6), Value::Double(0.1234568)});
  BRAID_CHECK_OK(db.AddTable(std::move(b)));
  dbms::RemoteDbms remote(std::move(db));
  Cms cms(&remote, CmsConfig{});
  auto keys_of = [&cms](const std::string& text) {
    auto a = cms.Query(Q(text));
    EXPECT_TRUE(a.ok()) << text << ": " << a.status().ToString();
    std::vector<int64_t> keys;
    if (!a.ok()) return keys;
    rel::Relation r =
        a->relation != nullptr ? *a->relation : stream::Drain(*a->stream);
    for (const rel::Tuple& t : r.tuples()) keys.push_back(t[0].AsInt());
    std::sort(keys.begin(), keys.end());
    return keys;
  };
  const std::vector<std::pair<std::string, std::string>> pairs = {
      {"d(X) :- b(X, 1)", "d(X) :- b(X, '1')"},
      {"d(X) :- b(X, X)", "d(X) :- b(X, 'V0')"},
      {"d(X) :- b(X, 0.1234567)", "d(X) :- b(X, 0.1234568)"},
  };
  const std::vector<std::vector<int64_t>> first = {{1}, {1, 3}, {5}};
  const std::vector<std::vector<int64_t>> second = {{2}, {4}, {6}};
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(keys_of(pairs[i].first), first[i]) << pairs[i].first;
    EXPECT_EQ(keys_of(pairs[i].second), second[i]) << pairs[i].second;
  }
}

TEST_F(CmsTest, CacheEvictionUnderTinyBudget) {
  CmsConfig config;
  config.cache_budget_bytes = 4096;
  Cms tiny(&remote_, config);
  for (int c = 0; c < 6; ++c) {
    auto a = tiny.Query(Q("q" + std::to_string(c) + "(Y) :- b1(" +
                          std::to_string(c % 5) + ", Y)"));
    ASSERT_TRUE(a.ok());
  }
  EXPECT_LE(tiny.cache().model().TotalBytes(), 4096u);
}

}  // namespace
}  // namespace braid::cms

namespace braid::cms {
namespace {

TEST(SimplestAdvice, BaseRelationListProtectsSessionRelevantElements) {
  // §4.2: "even this simplest form of advice will provide the CMS with
  // significant knowledge" — here, replacement protection for elements
  // over the session's relevant base relations.
  dbms::Database db;
  for (const char* name : {"rel_a", "rel_b"}) {
    rel::Relation t(name, rel::Schema::FromNames({"x", "y"}));
    for (int i = 0; i < 40; ++i) {
      t.AppendUnchecked({rel::Value::Int(i), rel::Value::Int(i)});
    }
    BRAID_CHECK_OK(db.AddTable(std::move(t)));
  }
  dbms::RemoteDbms remote(std::move(db));

  // Budget for roughly one of the two extensions.
  CmsConfig config;
  config.cache_budget_bytes = 4000;
  Cms cms(&remote, config);

  advice::AdviceSet advice;
  advice.base_relations = {"rel_a"};  // only rel_a is session-relevant
  cms.BeginSession(advice);

  auto qa = caql::ParseCaql("qa(X, Y) :- rel_a(X, Y)").value();
  auto qb = caql::ParseCaql("qb(X, Y) :- rel_b(X, Y)").value();
  ASSERT_TRUE(cms.Query(qa).ok());
  ASSERT_TRUE(cms.Query(qb).ok());  // pressure: must evict something

  // The session-relevant element survived; the irrelevant fetch did not
  // displace it.
  bool has_a = false;
  for (const auto& [id, e] : cms.cache().model().elements()) {
    for (const logic::Atom& atom : e->definition().RelationAtoms()) {
      if (atom.predicate == "rel_a") has_a = true;
    }
  }
  EXPECT_TRUE(has_a);

  // Re-asking the relevant query is a cache hit.
  const size_t remote_before = remote.stats().queries;
  auto again = cms.Query(caql::ParseCaql("qa2(X, Y) :- rel_a(X, Y)").value());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(remote.stats().queries, remote_before);
}

}  // namespace
}  // namespace braid::cms
