// Tests for the inference engine: problem-graph extraction, shaping,
// view specification, path-expression creation, advice management, and
// the two inference strategies.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "caql/caql_query.h"
#include "cms/advice_manager.h"
#include "common/rng.h"
#include "common/strings.h"
#include "ie/inference_engine.h"
#include "logic/parser.h"
#include "workload/generators.h"

namespace braid::ie {
namespace {

using logic::Atom;
using logic::ParseProgram;
using logic::ParseQueryAtom;
using rel::Value;

logic::KnowledgeBase Kb(const std::string& text) {
  logic::KnowledgeBase kb;
  Status s = ParseProgram(text, &kb);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return kb;
}

Atom QA(const std::string& text) { return ParseQueryAtom(text).value(); }

const char* kExampleKb = R"(
#base b1(a, b).
#base b2(a, b).
#base b3(a, b, c).
k1(X, Y) :- b1(c1, Y), k2(X, Y).
k2(X, Y) :- b2(X, Z), b3(Z, c2, Y).
k2(X, Y) :- b3(X, c3, Z), b1(Z, Y).
)";

// ---------------------------------------------------------------------------
// Extractor

TEST(Extractor, BuildsAndOrGraph) {
  logic::KnowledgeBase kb = Kb(kExampleKb);
  ProblemGraphExtractor ex(&kb);
  auto g = ex.Extract(QA("k1(X, Y)"));
  ASSERT_TRUE(g.ok());
  ASSERT_EQ(g->root->alternatives.size(), 1u);
  const AndNode& r1 = *g->root->alternatives[0];
  EXPECT_EQ(r1.rule_id, "R1");
  ASSERT_EQ(r1.subgoals.size(), 2u);
  EXPECT_EQ(r1.subgoals[0]->leaf, OrNode::LeafKind::kBase);
  EXPECT_EQ(r1.subgoals[1]->leaf, OrNode::LeafKind::kExpanded);
  EXPECT_EQ(r1.subgoals[1]->alternatives.size(), 2u);
}

TEST(Extractor, ConstantsPropagateThroughUnification) {
  logic::KnowledgeBase kb = Kb(kExampleKb);
  ProblemGraphExtractor ex(&kb);
  auto g = ex.Extract(QA("k1(7, Y)"));
  ASSERT_TRUE(g.ok());
  // X=7 must reach k2's subgoals: b2(7, Z) under R2.
  const OrNode& k2 = *g->root->alternatives[0]->subgoals[1];
  const Atom& b2 = k2.alternatives[0]->subgoals[0]->goal;
  EXPECT_EQ(b2.args[0], logic::Term::Int(7));
}

TEST(Extractor, FailedHeadUnificationCullsAlternative) {
  logic::KnowledgeBase kb = Kb(R"(
#base b(x).
p(1) :- b(X).
p(2) :- b(X).
)");
  ProblemGraphExtractor ex(&kb);
  auto g = ex.Extract(QA("p(1)"));
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->root->alternatives.size(), 1u);
}

TEST(Extractor, RecursionMarkedNotExpanded) {
  logic::KnowledgeBase kb = Kb(workload::GraphKb());
  ProblemGraphExtractor ex(&kb);
  auto g = ex.Extract(QA("reachable(X, Y)"));
  ASSERT_TRUE(g.ok());
  const AndNode& rec_rule = *g->root->alternatives[1];
  ASSERT_EQ(rec_rule.subgoals.size(), 2u);
  EXPECT_EQ(rec_rule.subgoals[1]->leaf, OrNode::LeafKind::kRecursive);
}

TEST(Extractor, UnknownPredicateErrors) {
  logic::KnowledgeBase kb = Kb("#base b(x).");
  ProblemGraphExtractor ex(&kb);
  EXPECT_EQ(ex.Extract(QA("nosuch(X)")).status().code(),
            StatusCode::kNotFound);
}

TEST(Extractor, BaseRelationsListsAll) {
  logic::KnowledgeBase kb = Kb(kExampleKb);
  ProblemGraphExtractor ex(&kb);
  auto g = ex.Extract(QA("k1(X, Y)"));
  ASSERT_TRUE(g.ok());
  auto bases = g->BaseRelations();
  EXPECT_EQ(std::set<std::string>(bases.begin(), bases.end()),
            (std::set<std::string>{"b1", "b2", "b3"}));
}

// ---------------------------------------------------------------------------
// Shaper

TEST(Shaper, GroundFalseComparisonCullsAlternative) {
  logic::KnowledgeBase kb = Kb(R"(
#base b(x).
p(X) :- b(X), 1 > 2.
p(X) :- b(X), 2 > 1.
)");
  ProblemGraphExtractor ex(&kb);
  auto g = ex.Extract(QA("p(X)"));
  ASSERT_TRUE(g.ok());
  ProblemGraphShaper shaper(&kb, nullptr);
  ASSERT_TRUE(shaper.Shape(&g.value()).ok());
  // The impossible alternative is culled; the satisfied ground comparison
  // is deleted from the surviving body.
  ASSERT_EQ(g->root->alternatives.size(), 1u);
  EXPECT_EQ(g->root->alternatives[0]->subgoals.size(), 1u);
}

TEST(Shaper, DeadSubtreeCullsParent) {
  logic::KnowledgeBase kb = Kb(R"(
#base b(x).
p(X) :- q(X).
q(X) :- b(X), 1 > 2.
)");
  ProblemGraphExtractor ex(&kb);
  auto g = ex.Extract(QA("p(X)"));
  ASSERT_TRUE(g.ok());
  ProblemGraphShaper shaper(&kb, nullptr);
  ASSERT_TRUE(shaper.Shape(&g.value()).ok());
  EXPECT_TRUE(g->root->alternatives.empty());
}

TEST(Shaper, ReordersSelectiveConjunctFirst) {
  // big has 1000 rows, small has 2: the shaper should visit small first.
  dbms::Database db;
  rel::Relation big("big", rel::Schema::FromNames({"a", "b"}));
  for (int i = 0; i < 1000; ++i) {
    big.AppendUnchecked({Value::Int(i), Value::Int(i)});
  }
  rel::Relation small("small", rel::Schema::FromNames({"a", "b"}));
  small.AppendUnchecked({Value::Int(1), Value::Int(2)});
  small.AppendUnchecked({Value::Int(3), Value::Int(4)});
  BRAID_CHECK_OK(db.AddTable(std::move(big)));
  BRAID_CHECK_OK(db.AddTable(std::move(small)));

  logic::KnowledgeBase kb = Kb(R"(
#base big(a, b).
#base small(a, b).
p(X, Z) :- big(X, Y), small(Y, Z).
)");
  ProblemGraphExtractor ex(&kb);
  auto g = ex.Extract(QA("p(X, Z)"));
  ASSERT_TRUE(g.ok());
  ProblemGraphShaper shaper(&kb, &db);
  ASSERT_TRUE(shaper.Shape(&g.value()).ok());
  const AndNode& rule = *g->root->alternatives[0];
  EXPECT_EQ(rule.subgoals[0]->goal.predicate, "small");
  EXPECT_EQ(rule.subgoals[1]->goal.predicate, "big");
  // Binding pattern: big's Y is bound after small produced it.
  EXPECT_TRUE(rule.subgoals[1]->bound_vars.count(
      rule.subgoals[1]->goal.args[1].var_name()));
}

TEST(Shaper, FunctionalDependencyTightensEstimate) {
  // With an FD 0 -> 1 on person and the first argument bound, the lookup
  // is estimated as a single tuple, so it should be scheduled before an
  // unbound scan of another table of equal size.
  dbms::Database db;
  rel::Relation person("person", rel::Schema::FromNames({"id", "age"}));
  rel::Relation other("other", rel::Schema::FromNames({"a", "b"}));
  for (int i = 0; i < 100; ++i) {
    person.AppendUnchecked({Value::Int(i), Value::Int(i % 50)});
    other.AppendUnchecked({Value::Int(i % 10), Value::Int(i)});
  }
  BRAID_CHECK_OK(db.AddTable(std::move(person)));
  BRAID_CHECK_OK(db.AddTable(std::move(other)));
  logic::KnowledgeBase kb = Kb(R"(
#base person(id, age).
#base other(a, b).
#fd person: 0 -> 1.
p(A, B) :- other(A, B), person(7, A).
)");
  ProblemGraphExtractor ex(&kb);
  auto g = ex.Extract(QA("p(A, B)"));
  ASSERT_TRUE(g.ok());
  ProblemGraphShaper shaper(&kb, &db);
  ASSERT_TRUE(shaper.Shape(&g.value()).ok());
  EXPECT_EQ(g->root->alternatives[0]->subgoals[0]->goal.predicate, "person");
}

TEST(Shaper, MutexSoaMarksOrNode) {
  logic::KnowledgeBase kb = Kb(R"(
#base b(x, y).
#mutex g1, g2.
g1(X) :- b(X, Y), Y > 5.
g2(X) :- b(X, Y), Y <= 5.
p(X, Y) :- g1(X), b(X, Y).
p(X, Y) :- g2(X), b(X, Y).
top(X, Y) :- p(X, Y).
)");
  ProblemGraphExtractor ex(&kb);
  auto g = ex.Extract(QA("top(X, Y)"));
  ASSERT_TRUE(g.ok());
  ProblemGraphShaper shaper(&kb, nullptr);
  ASSERT_TRUE(shaper.Shape(&g.value()).ok());
  const OrNode& p = *g->root->alternatives[0]->subgoals[0];
  EXPECT_EQ(p.goal.predicate, "p");
  EXPECT_TRUE(p.alternatives_mutex);
}

// ---------------------------------------------------------------------------
// View specifier

TEST(ViewSpecifierTest, PaperExample1ViewSpecs) {
  logic::KnowledgeBase kb = Kb(kExampleKb);
  ProblemGraphExtractor ex(&kb);
  auto g = ex.Extract(QA("k1(X, Y)"));
  ASSERT_TRUE(g.ok());
  ProblemGraphShaper shaper(&kb, nullptr, ShaperConfig{true, false});
  ASSERT_TRUE(shaper.Shape(&g.value()).ok());
  ViewSpecifier vs(&kb, ViewSpecifierConfig{3});
  auto spec = vs.Specify(g.value());
  ASSERT_TRUE(spec.ok());
  ASSERT_EQ(spec->views.size(), 3u);

  // R1's run: d(Y^) =def b1(c1, Y). Y is a producer at that point.
  const advice::ViewSpec* r1_view = nullptr;
  for (const auto& v : spec->views) {
    if (v.source_rules[0] == "R1") r1_view = &v;
  }
  ASSERT_NE(r1_view, nullptr);
  ASSERT_EQ(r1_view->head.size(), 1u);
  EXPECT_EQ(r1_view->head[0].name, "Y");
  EXPECT_EQ(r1_view->head[0].binding, advice::Binding::kProducer);

  // R2's run: d(X^, Y?) with the Z join variable internal (minimum
  // argument set excludes Z).
  const advice::ViewSpec* r2_view = nullptr;
  for (const auto& v : spec->views) {
    if (v.source_rules[0] == "R2") r2_view = &v;
  }
  ASSERT_NE(r2_view, nullptr);
  EXPECT_EQ(r2_view->body.size(), 2u);
  std::set<std::string> head_names;
  for (const auto& av : r2_view->head) head_names.insert(av.name);
  EXPECT_EQ(head_names, (std::set<std::string>{"X", "Y"}));
  for (const auto& av : r2_view->head) {
    if (av.name == "Y") {
      EXPECT_EQ(av.binding, advice::Binding::kConsumer);
    } else {
      EXPECT_EQ(av.binding, advice::Binding::kProducer);
    }
  }
}

TEST(ViewSpecifierTest, MaxConjunctionSizeSplitsRuns) {
  logic::KnowledgeBase kb = Kb(R"(
#base a(x, y).
#base b(x, y).
#base c(x, y).
p(X, W) :- a(X, Y), b(Y, Z), c(Z, W).
)");
  ProblemGraphExtractor ex(&kb);
  auto g = ex.Extract(QA("p(X, W)"));
  ASSERT_TRUE(g.ok());
  ProblemGraphShaper shaper(&kb, nullptr, ShaperConfig{true, false});
  ASSERT_TRUE(shaper.Shape(&g.value()).ok());

  ViewSpecifier vs1(&kb, ViewSpecifierConfig{1});
  auto spec1 = vs1.Specify(g.value());
  ASSERT_TRUE(spec1.ok());
  EXPECT_EQ(spec1->views.size(), 3u);  // one view per atom

  ViewSpecifier vs3(&kb, ViewSpecifierConfig{3});
  auto spec3 = vs3.Specify(g.value());
  ASSERT_TRUE(spec3.ok());
  EXPECT_EQ(spec3->views.size(), 1u);  // whole body in one view
  EXPECT_EQ(spec3->views[0].body.size(), 3u);
}

TEST(ViewSpecifierTest, MinimumArgumentSetFormula) {
  // Paper §4.2.1: k9(X,Y) :- k2(X,Z) & b1(Z,W) & b2(W,U) & b3(U,V) & k3(V,Y)
  // gives d(Z,V) for the b1&b2&b3 run.
  logic::KnowledgeBase kb = Kb(R"(
#base b1(a, b).
#base b2(a, b).
#base b3(a, b).
k2(X, Z) :- b1(X, Z).
k3(V, Y) :- b2(V, Y).
k9(X, Y) :- k2(X, Z), b1(Z, W), b2(W, U), b3(U, V), k3(V, Y).
)");
  ProblemGraphExtractor ex(&kb);
  auto g = ex.Extract(QA("k9(X, Y)"));
  ASSERT_TRUE(g.ok());
  ProblemGraphShaper shaper(&kb, nullptr, ShaperConfig{true, false});
  ASSERT_TRUE(shaper.Shape(&g.value()).ok());
  ViewSpecifier vs(&kb, ViewSpecifierConfig{3});
  auto spec = vs.Specify(g.value());
  ASSERT_TRUE(spec.ok());
  auto plan_it = spec->rule_plans.find("R3");  // k9's rule
  ASSERT_NE(plan_it, spec->rule_plans.end());
  const advice::ViewSpec* run_view = nullptr;
  for (const RuleItem& item : plan_it->second.items) {
    if (item.kind == RuleItem::Kind::kRun && item.run_atoms.size() == 3) {
      run_view = spec->FindView(item.view_id);
    }
  }
  ASSERT_NE(run_view, nullptr);
  std::set<std::string> args;
  for (const auto& av : run_view->head) args.insert(av.name);
  EXPECT_EQ(args, (std::set<std::string>{"Z", "V"}));
}

// ---------------------------------------------------------------------------
// Path creator

TEST(PathCreatorTest, Example1SequenceShape) {
  logic::KnowledgeBase kb = Kb(kExampleKb);
  ProblemGraphExtractor ex(&kb);
  auto g = ex.Extract(QA("k1(X, Y)"));
  ASSERT_TRUE(g.ok());
  ProblemGraphShaper shaper(&kb, nullptr, ShaperConfig{true, false});
  ASSERT_TRUE(shaper.Shape(&g.value()).ok());
  ViewSpecifier vs(&kb, ViewSpecifierConfig{3});
  auto spec = vs.Specify(g.value());
  ASSERT_TRUE(spec.ok());
  PathExpressionCreator pc(&spec.value());
  auto path = pc.Create(g.value());
  ASSERT_NE(path, nullptr);
  const std::string s = path->ToString();
  // Without guards the k2 alternatives form a sequence (Example 1), with
  // the tail repeated <0,|Y|> on R1's producer.
  EXPECT_NE(s.find("<0,|Y|>"), std::string::npos) << s;
  EXPECT_EQ(s.find('['), std::string::npos) << s;  // no alternation
  EXPECT_EQ(path->MentionedViews().size(), 3u);
}

TEST(PathCreatorTest, Example2GuardedAlternation) {
  // Example 2: guards k3/k4 make the k2 alternatives conditional.
  logic::KnowledgeBase kb = Kb(R"(
#base b1(a, b).
#base b2(a, b).
#base b3(a, b, c).
#mutex k3, k4.
k3(X) :- b1(X, W).
k4(X) :- b2(X, W).
k1(X, Y) :- b1(c1, Y), k2(X, Y).
k2(X, Y) :- k3(X), b2(X, Z), b3(Z, c2, Y).
k2(X, Y) :- k4(X), b3(X, c3, Z), b1(Z, Y).
)");
  ProblemGraphExtractor ex(&kb);
  auto g = ex.Extract(QA("k1(X, Y)"));
  ASSERT_TRUE(g.ok());
  ProblemGraphShaper shaper(&kb, nullptr, ShaperConfig{true, false});
  ASSERT_TRUE(shaper.Shape(&g.value()).ok());
  ViewSpecifier vs(&kb, ViewSpecifierConfig{3});
  auto spec = vs.Specify(g.value());
  ASSERT_TRUE(spec.ok());
  PathExpressionCreator pc(&spec.value());
  auto path = pc.Create(g.value());
  ASSERT_NE(path, nullptr);
  EXPECT_NE(path->ToString().find('['), std::string::npos)
      << path->ToString();
}

TEST(PathCreatorTest, RecursionWrapsInRepetition) {
  logic::KnowledgeBase kb = Kb(workload::GraphKb());
  ProblemGraphExtractor ex(&kb);
  auto g = ex.Extract(QA("reachable(X, Y)"));
  ASSERT_TRUE(g.ok());
  ProblemGraphShaper shaper(&kb, nullptr, ShaperConfig{true, false});
  ASSERT_TRUE(shaper.Shape(&g.value()).ok());
  ViewSpecifier vs(&kb, ViewSpecifierConfig{3});
  auto spec = vs.Specify(g.value());
  ASSERT_TRUE(spec.ok());
  PathExpressionCreator pc(&spec.value());
  auto path = pc.Create(g.value());
  ASSERT_NE(path, nullptr);
  EXPECT_NE(path->ToString().find("|rec|"), std::string::npos)
      << path->ToString();
}

// ---------------------------------------------------------------------------
// Advice manager (IE-side semantics validated through CMS component)

TEST(AdviceManagerTest, GeneralizationTriggersFromCrossViewSubsumption) {
  // The paper's trigger: b1(X,Y) in another view subsumes b1(c1,Y).
  cms::AdviceManager mgr;
  advice::AdviceSet advice;
  advice::ViewSpec d1;
  d1.id = "d1";
  d1.head = {advice::AnnotatedVar{"Y", advice::Binding::kProducer}};
  d1.body = {Atom("b1", {logic::Term::Str("c1"), logic::Term::Var("Y")})};
  advice::ViewSpec d3;
  d3.id = "d3";
  d3.head = {advice::AnnotatedVar{"Z", advice::Binding::kProducer},
             advice::AnnotatedVar{"Y", advice::Binding::kProducer}};
  d3.body = {Atom("b1", {logic::Term::Var("Z"), logic::Term::Var("Y")})};
  advice.view_specs = {d1, d3};
  mgr.BeginSession(advice::Compile(advice));

  caql::CaqlQuery instance = d1.AsCaql();
  EXPECT_TRUE(mgr.ShouldGeneralize("d1", instance));
}

TEST(AdviceManagerTest, NoAdviceMeansDefaults) {
  cms::AdviceManager mgr;
  EXPECT_TRUE(mgr.ShouldCacheResult("d1"));
  EXPECT_TRUE(mgr.IndexHints("d1").empty());
  EXPECT_FALSE(mgr.LazyHint("d1"));
  EXPECT_EQ(mgr.PredictedDistance("d1"), std::nullopt);
  EXPECT_TRUE(mgr.PrefetchCandidates().empty());
}

TEST(AdviceManagerTest, NoFutureOccurrenceMeansDoNotCache) {
  cms::AdviceManager mgr;
  advice::AdviceSet advice;
  advice.path_expression = advice::PathExpr::Sequence(
      {advice::PathExpr::Pattern("d1", {}),
       advice::PathExpr::Pattern("d2", {})},
      advice::RepBound::Fixed(1), advice::RepBound::Fixed(1));
  mgr.BeginSession(advice::Compile(advice));
  mgr.OnQuery("d1");
  // d1 cannot recur; d2 can still appear.
  EXPECT_FALSE(mgr.ShouldCacheResult("d1"));
  EXPECT_TRUE(mgr.ShouldCacheResult("d2"));
}

// ---------------------------------------------------------------------------
// Strategies

TEST(Strategies, SingleSolutionModeStopsEarly) {
  workload::GenealogyParams params;
  params.people = 200;
  dbms::RemoteDbms remote(workload::MakeGenealogyDatabase(params));
  cms::Cms cms(&remote, cms::CmsConfig{});
  logic::KnowledgeBase kb = Kb(workload::GenealogyKb());

  IeConfig all_config;
  InferenceEngine ie_all(&kb, &cms, all_config);
  auto all = ie_all.Ask("ancestor(150, Y)?");
  ASSERT_TRUE(all.ok()) << all.status().ToString();

  IeConfig one_config;
  one_config.max_solutions = 1;
  cms::Cms cms2(&remote, cms::CmsConfig{});
  InferenceEngine ie_one(&kb, &cms2, one_config);
  auto one = ie_one.Ask("ancestor(150, Y)?");
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(one->solutions.NumTuples(), 1u);
  EXPECT_LE(one->interpreter_stats.tuples_consumed,
            all->interpreter_stats.tuples_consumed);
}

TEST(Strategies, InterpretedEmitsCaqlPerRunCompiledPerRelation) {
  workload::GenealogyParams params;
  params.people = 80;
  dbms::RemoteDbms remote(workload::MakeGenealogyDatabase(params));
  logic::KnowledgeBase kb = Kb(workload::GenealogyKb());

  cms::Cms cms_i(&remote, cms::CmsConfig{});
  InferenceEngine interp(&kb, &cms_i, IeConfig{});
  auto a = interp.Ask("grandparent(60, Y)?");
  ASSERT_TRUE(a.ok());
  EXPECT_GT(a->interpreter_stats.caql_queries, 0u);

  cms::Cms cms_c(&remote, cms::CmsConfig{});
  IeConfig comp_config;
  comp_config.strategy = StrategyKind::kCompiled;
  InferenceEngine comp(&kb, &cms_c, comp_config);
  auto b = comp.Ask("grandparent(60, Y)?");
  ASSERT_TRUE(b.ok());
  // Compiled strategy: one fetch per reachable base relation.
  EXPECT_LE(b->compiled_stats.caql_queries, 2u);

  std::set<std::string> sa, sb;
  for (const auto& t : a->solutions.tuples()) sa.insert(TupleToString(t));
  for (const auto& t : b->solutions.tuples()) sb.insert(TupleToString(t));
  EXPECT_EQ(sa, sb);
}

TEST(Strategies, CompiledUsesClosureSoaThroughCms) {
  workload::GraphParams params;
  params.nodes = 40;
  params.edges = 80;
  dbms::RemoteDbms remote(workload::MakeGraphDatabase(params));
  cms::Cms cms(&remote, cms::CmsConfig{});
  logic::KnowledgeBase kb = Kb(workload::GraphKb());
  IeConfig config;
  config.strategy = StrategyKind::kCompiled;
  InferenceEngine ie(&kb, &cms, config);
  auto out = ie.Ask("reachable(1, Y)?");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  // The closure SOA routes recursion to the CMS fixed-point operator, so
  // no fixpoint iterations happen in the IE.
  EXPECT_EQ(out->compiled_stats.iterations, 0u);
  EXPECT_FALSE(out->solutions.empty());
}

TEST(Strategies, CompiledFixpointWithoutSoa) {
  // Same graph, but a KB without the #closure SOA: bottom-up iteration.
  workload::GraphParams params;
  params.nodes = 30;
  params.edges = 60;
  dbms::RemoteDbms remote(workload::MakeGraphDatabase(params));
  cms::Cms cms(&remote, cms::CmsConfig{});
  logic::KnowledgeBase kb = Kb(R"(
#base edge(src, dst).
reachable(X, Y) :- edge(X, Y).
reachable(X, Y) :- edge(X, Z), reachable(Z, Y).
)");
  IeConfig config;
  config.strategy = StrategyKind::kCompiled;
  InferenceEngine ie(&kb, &cms, config);
  auto out = ie.Ask("reachable(1, Y)?");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_GT(out->compiled_stats.iterations, 1u);

  // Cross-check against the SOA-based run on the same database.
  cms::Cms cms2(&remote, cms::CmsConfig{});
  logic::KnowledgeBase kb2 = Kb(workload::GraphKb());
  InferenceEngine ie2(&kb2, &cms2, config);
  auto out2 = ie2.Ask("reachable(1, Y)?");
  ASSERT_TRUE(out2.ok());
  std::set<std::string> s1, s2;
  for (const auto& t : out->solutions.tuples()) s1.insert(TupleToString(t));
  for (const auto& t : out2->solutions.tuples()) s2.insert(TupleToString(t));
  EXPECT_EQ(s1, s2);
}

TEST(Strategies, InterpretedHandlesRecursionWithDepthBound) {
  workload::GraphParams params;
  params.nodes = 25;
  params.edges = 40;
  dbms::RemoteDbms remote(workload::MakeGraphDatabase(params));
  cms::Cms cms(&remote, cms::CmsConfig{});
  logic::KnowledgeBase kb = Kb(workload::GraphKb());
  InferenceEngine ie(&kb, &cms, IeConfig{});
  auto interp = ie.Ask("reachable(0, Y)?");
  ASSERT_TRUE(interp.ok()) << interp.status().ToString();

  cms::Cms cms2(&remote, cms::CmsConfig{});
  IeConfig comp_config;
  comp_config.strategy = StrategyKind::kCompiled;
  InferenceEngine comp(&kb, &cms2, comp_config);
  auto compiled = comp.Ask("reachable(0, Y)?");
  ASSERT_TRUE(compiled.ok());

  std::set<std::string> si, sc;
  for (const auto& t : interp->solutions.tuples()) {
    si.insert(TupleToString(t));
  }
  for (const auto& t : compiled->solutions.tuples()) {
    sc.insert(TupleToString(t));
  }
  // Distinct solutions agree (the interpreter may emit duplicates).
  EXPECT_EQ(si, sc);
}

TEST(Strategies, BuiltinEvaluationInRules) {
  dbms::Database db;
  rel::Relation nums("nums", rel::Schema::FromNames({"n"}));
  for (int i = 0; i < 10; ++i) nums.AppendUnchecked({Value::Int(i)});
  BRAID_CHECK_OK(db.AddTable(std::move(nums)));
  dbms::RemoteDbms remote(std::move(db));
  cms::Cms cms(&remote, cms::CmsConfig{});
  logic::KnowledgeBase kb = Kb(R"(
#base nums(n).
doubled(X, Y) :- nums(X), times(X, 2, Y).
big_doubled(X, Y) :- doubled(X, Y), Y > 10.
)");
  InferenceEngine ie(&kb, &cms, IeConfig{});
  auto out = ie.Ask("big_doubled(X, Y)?");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->solutions.NumTuples(), 4u);  // X in {6,7,8,9}
}

TEST(Strategies, FactsOnlyPredicates) {
  dbms::Database db;
  rel::Relation b("b", rel::Schema::FromNames({"x"}));
  b.AppendUnchecked({Value::Int(1)});
  BRAID_CHECK_OK(db.AddTable(std::move(b)));
  dbms::RemoteDbms remote(std::move(db));
  cms::Cms cms(&remote, cms::CmsConfig{});
  logic::KnowledgeBase kb = Kb(R"(
#base b(x).
const_fact(42).
p(X, Y) :- b(X), const_fact(Y).
)");
  InferenceEngine ie(&kb, &cms, IeConfig{});
  auto out = ie.Ask("p(X, Y)?");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->solutions.NumTuples(), 1u);
  EXPECT_EQ(out->solutions.tuple(0)[1], Value::Int(42));
}

// ---------------------------------------------------------------------------
// Pre-analysis memo: a memoized Ask must run on exactly what a fresh
// pre-analysis would produce, however the cache, the knowledge base and
// the configuration move between Asks.

/// Rows of `r`, sorted: answers compared as bags, since a different
/// shaping may produce them in another order.
std::vector<rel::Tuple> SortedRows(const rel::Relation& r) {
  std::vector<rel::Tuple> rows = r.tuples();
  std::sort(rows.begin(), rows.end());
  return rows;
}

struct MemoScenario {
  dbms::Database db;
  std::string kb_text;
  /// Goal predicates with their arities.
  std::vector<std::pair<std::string, size_t>> goals;
  /// Base relations whose residency the test flips.
  std::vector<std::pair<std::string, size_t>> bases;
  /// Rules added one at a time as knowledge-base edits.
  std::vector<std::string> added_rules;
  logic::FunctionalDependencySoa added_fd;
};

/// Random Asks over `scenario`, drawn from a small pool of random goals so
/// that goals recur. Between Asks the test flips the residency of base relations
/// (installing or evicting their cache elements), edits the knowledge base
/// and changes the configuration. Every Ask's advice and rule plans must
/// equal a fresh Analyze taken just before it, and its answers those of an
/// engine with an empty memo.
void CheckMemoAgainstFresh(MemoScenario scenario, uint64_t seed) {
  dbms::RemoteDbms remote(std::move(scenario.db));
  cms::CmsConfig cms_config;
  cms_config.enable_parallel = false;  // deterministic: no background
  cms_config.prefetch_async = false;   // installs between two steps
  cms::Cms cms(&remote, cms_config);
  logic::KnowledgeBase kb = Kb(scenario.kb_text);
  InferenceEngine engine(&kb, &cms);
  Rng rng(seed);
  size_t next_rule = 0;
  bool fd_added = false;
  size_t memo_hits = 0;
  std::map<std::string, const CompiledPreanalysis*> last_used;
  // A small pool of random goals, so that goals recur: one per goal
  // predicate (every knowledge-base edit then touches a pooled goal), plus
  // a few more.
  std::vector<Atom> pool;
  for (size_t g = 0; g < scenario.goals.size() + 4; ++g) {
    const auto& [predicate, arity] =
        scenario.goals[g < scenario.goals.size()
                           ? g
                           : rng.Uniform(0, scenario.goals.size() - 1)];
    std::vector<logic::Term> args;
    for (size_t i = 0; i < arity; ++i) {
      args.push_back(rng.Bernoulli(0.5)
                         ? logic::Term::Var(StrCat("A", i))
                         : logic::Term::Int(rng.Uniform(0, 4)));
    }
    pool.emplace_back(predicate, std::move(args));
  }

  for (int step = 0; step < 120; ++step) {
    const int64_t action = rng.Uniform(0, 9);
    if (action <= 2) {
      // Flip a base relation's residency.
      const auto& [base, arity] =
          scenario.bases[rng.Uniform(0, scenario.bases.size() - 1)];
      if (cms.cache().model().HasMaterializedFor(base)) {
        for (const cms::CacheElementPtr& e :
             cms.cache().model().ByPredicate(base)) {
          cms.cache().model().Remove(*e);
        }
        ASSERT_FALSE(cms.cache().model().HasMaterializedFor(base));
      } else {
        std::vector<std::string> vars;
        for (size_t i = 0; i < arity; ++i) vars.push_back(StrCat("V", i));
        const std::string args = StrJoin(vars, ", ");
        auto q = caql::ParseCaql(StrCat("w_", base, "(", args, ") :- ", base,
                                        "(", args, ")"));
        ASSERT_TRUE(q.ok());
        ASSERT_TRUE(cms.Query(*q).ok());
        ASSERT_TRUE(cms.cache().model().HasMaterializedFor(base));
      }
    } else if (action == 3) {
      if (next_rule < scenario.added_rules.size()) {
        auto rule = logic::ParseRuleText(scenario.added_rules[next_rule++]);
        ASSERT_TRUE(rule.ok());
        ASSERT_TRUE(kb.AddRule(*rule).ok());
      } else if (!fd_added) {
        kb.AddFunctionalDependency(scenario.added_fd);
        fd_added = true;
      }
    } else if (action == 4) {
      IeConfig config = engine.config();
      switch (rng.Uniform(0, 2)) {
        case 0:
          config.shaper_reorder = !config.shaper_reorder;
          break;
        case 1:
          config.max_conjunction_size =
              static_cast<size_t>(rng.Uniform(1, 3));
          break;
        default:
          config.send_path_expression = !config.send_path_expression;
          break;
      }
      engine.set_config(config);
    }

    const Atom& goal = pool[rng.Uniform(0, pool.size() - 1)];
    SCOPED_TRACE(StrCat("step ", step, ": ", goal.ToString()));

    auto fresh = engine.Analyze(goal);
    ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
    auto asked = engine.Ask(goal);
    // The Ask's installs may flip residency, so the reference engine can
    // shape the goal differently. Some shapings fail on a built-in whose
    // variables are not yet bound; statuses must agree when the two
    // pre-analyses do, and answers whenever both succeed.
    auto reference_pre = engine.Analyze(goal);
    ASSERT_TRUE(reference_pre.ok());
    InferenceEngine unmemoized(&kb, &cms, engine.config());
    auto reference = unmemoized.Ask(goal);
    if (reference_pre->advice.ToString() == fresh->advice.ToString() &&
        reference_pre->spec.rule_plans == fresh->spec.rule_plans) {
      ASSERT_EQ(asked.status().ToString(), reference.status().ToString());
    }
    if (!asked.ok()) continue;
    const CompiledPreanalysis*& last = last_used[goal.ToString()];
    if (last == asked->preanalysis.get()) ++memo_hits;
    last = asked->preanalysis.get();
    EXPECT_EQ(asked->advice().ToString(), fresh->advice.ToString());
    EXPECT_TRUE(asked->preanalysis->rule_plans == fresh->spec.rule_plans);
    if (reference.ok()) {
      EXPECT_EQ(SortedRows(asked->solutions),
                SortedRows(reference->solutions));
    }
  }
  // The walk must exercise reuse, not only fresh analyses.
  EXPECT_GT(memo_hits, 20u);
}

TEST(PreanalysisMemo, MatchesFreshAnalysisOnGenealogy) {
  workload::GenealogyParams params;
  params.people = 40;
  MemoScenario scenario;
  scenario.db = workload::MakeGenealogyDatabase(params);
  // `kin` joins two different base relations of about the same size, so
  // caching either one reorders its body.
  scenario.kb_text = workload::GenealogyKb() +
                     "kin(X, A) :- person(X, A, C), parent(X, P).\n";
  scenario.goals = {{"ancestor", 2},  {"grandparent", 2}, {"greatgrand", 2},
                    {"sibling", 2},   {"elder", 2},       {"townsfolk", 2},
                    {"kin", 2}};
  scenario.bases = {{"parent", 2}, {"person", 3}};
  scenario.added_rules = {
      "kin(X, A) :- parent(X, P), person(P, A, C).",
      "sibling(X, Y) :- parent(Y, X), parent(X, Y).",
      "grandparent(X, Y) :- parent(X, Y), person(Y, A, C), A > 90.",
      "townsfolk(X, Y) :- parent(X, Y), parent(Y, X)."};
  scenario.added_fd = logic::FunctionalDependencySoa{"parent", {0}, {1}};
  for (uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE(StrCat("seed ", seed));
    CheckMemoAgainstFresh(scenario, seed);
  }
}

TEST(PreanalysisMemo, MatchesFreshAnalysisOnSuppliers) {
  workload::SupplierParams params;
  params.suppliers = 20;
  params.parts = 40;
  params.supplies = 1200;  // more than a derived goal's 1000-row guess
  MemoScenario scenario;
  scenario.db = workload::MakeSupplierDatabase(params);
  scenario.kb_text = workload::SupplierKb();
  scenario.goals = {{"supplier_of", 2},    {"co_located", 2},
                    {"heavy_part", 1},     {"light_part", 1},
                    {"heavy_supplier", 2}, {"light_supplier", 2},
                    {"bulk_supply", 2},    {"second_source", 3},
                    {"single_sourced", 1}};
  scenario.bases = {{"supplier", 2}, {"part", 3}, {"supplies", 3}};
  scenario.added_rules = {
      "heavy_supplier(S, P) :- supplies(S, P, Q), part(P, C, W), W > 90.",
      "co_located(S1, S2) :- supplies(S1, P, Q), supplies(S2, P, R), "
      "S1 != S2.",
      "bulk_supply(S, P) :- supplies(S, P, Q), part(P, C, W), Q > W.",
      "supplier_of(P, S) :- supplier(S, C), supplies(S, P, Q), Q < 10."};
  scenario.added_fd = logic::FunctionalDependencySoa{"supplies", {0, 1}, {2}};
  for (uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE(StrCat("seed ", seed));
    CheckMemoAgainstFresh(scenario, seed);
  }
}

TEST(PreanalysisMemo, RepeatedGoalReusesOneEntry) {
  workload::GenealogyParams params;
  params.people = 40;
  dbms::RemoteDbms remote(workload::MakeGenealogyDatabase(params));
  cms::Cms cms(&remote, cms::CmsConfig{});
  logic::KnowledgeBase kb = Kb(workload::GenealogyKb());
  InferenceEngine engine(&kb, &cms);
  auto first = engine.Ask("grandparent(7, Y)?");
  ASSERT_TRUE(first.ok());
  // The first Ask cached `parent` data, which flips the residency bit its
  // shaping consulted: the second Ask re-analyzes and replaces the entry.
  auto second = engine.Ask("grandparent(7, Y)?");
  ASSERT_TRUE(second.ok());
  auto third = engine.Ask("grandparent(7, Y)?");
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(engine.memo_size(), 1u);
  EXPECT_EQ(third->preanalysis, second->preanalysis);  // shared, not rebuilt
  // A knowledge-base edit invalidates the entry.
  kb.AddFunctionalDependency(logic::FunctionalDependencySoa{"parent", {0}, {1}});
  auto fourth = engine.Ask("grandparent(7, Y)?");
  ASSERT_TRUE(fourth.ok());
  EXPECT_NE(fourth->preanalysis, third->preanalysis);
  EXPECT_EQ(engine.memo_size(), 1u);
}

}  // namespace
}  // namespace braid::ie
