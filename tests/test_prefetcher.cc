// Tests for the background prefetch pipeline: async execution and
// foreground install, join semantics (exact key and via view), session
// drain/cancel, admission memoization, and the measured wall-clock
// overlap the pipeline exists to produce. Runs under TSan in CI.

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <tuple>

#include "advice/advice.h"
#include "cms/cms.h"
#include "cms/prefetcher.h"
#include "obs/metrics.h"
#include "testing/fault_remote.h"
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
  // A wide filler table used by the eviction tests: big enough that
  // evicting its cached extension frees room for anything else here.
  rel::Relation b3("b3", rel::Schema::FromNames({"a", "b"}));
  for (int i = 0; i < 60; ++i) {
    b3.AppendUnchecked({Value::Int(i), Value::Int(i + 100)});
  }
  BRAID_CHECK_OK(db.AddTable(std::move(b1)));
  BRAID_CHECK_OK(db.AddTable(std::move(b2)));
  BRAID_CHECK_OK(db.AddTable(std::move(b3)));
  return db;
}

/// Session advice: view d1 over b1, view d2 over b2, path d1 then d2 —
/// after d1 the tracker predicts d2, so the CMS prefetches d2's general
/// form.
advice::AdviceSet D1ThenD2Advice() {
  advice::AdviceSet advice;
  advice::ViewSpec d1;
  d1.id = "d1";
  d1.head = {advice::AnnotatedVar{"X", advice::Binding::kProducer},
             advice::AnnotatedVar{"Y", advice::Binding::kProducer}};
  d1.body = {logic::Atom("b1", {logic::Term::Var("X"),
                                logic::Term::Var("Y")})};
  advice.view_specs.push_back(d1);
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
  return advice;
}

/// Like D1ThenD2Advice but the d1-d2 sequence may repeat up to three
/// times, so after observing d1 the advisor still predicts d1 itself
/// within the replacement horizon — the element is eviction-protected.
advice::AdviceSet RepeatingD1D2Advice() {
  advice::AdviceSet advice = D1ThenD2Advice();
  advice.path_expression = advice::PathExpr::Sequence(
      {advice::PathExpr::Pattern("d1", {}),
       advice::PathExpr::Pattern("d2", {})},
      advice::RepBound::Fixed(1), advice::RepBound::Fixed(3));
  return advice;
}

uint64_t Fetches() {
  return obs::MetricsRegistry::Global().CounterValue("remote.fetches");
}

TEST(Prefetcher, AsyncPrefetchInstalledAfterDrain) {
  dbms::RemoteDbms remote(TestDb());
  Cms cms(&remote, CmsConfig{});
  cms.BeginSession(D1ThenD2Advice());

  ASSERT_TRUE(cms.Query(Q("d1(X, Y) :- b1(X, Y)")).ok());
  cms.DrainPrefetches();
  EXPECT_EQ(cms.prefetches_in_flight(), 0u);
  EXPECT_EQ(cms.metrics().prefetches, 1u);
  EXPECT_GT(cms.metrics().prefetch_ms, 0);
  // The general form of d2 is now materialized: the follow-up answers
  // from the cache without another remote round trip.
  const uint64_t before = Fetches();
  auto a2 = cms.Query(Q("d2(A, B) :- b2(A, B)"));
  ASSERT_TRUE(a2.ok());
  EXPECT_EQ(a2->outcome, CacheOutcome::kExact);
  EXPECT_EQ(Fetches(), before);
}

TEST(Prefetcher, ForegroundJoinFetchesRemoteExactlyOnce) {
  // Real sleeps make the prefetch still be in flight when the foreground
  // query for the same definition arrives: it must join, not re-fetch.
  dbms::NetworkModel net;
  net.msg_latency_ms = 60.0;
  net.wall_clock_scale = 1.0;
  dbms::RemoteDbms remote(TestDb(), net, dbms::DbmsCostModel{});
  Cms cms(&remote, CmsConfig{});
  cms.BeginSession(D1ThenD2Advice());

  const uint64_t before = Fetches();
  ASSERT_TRUE(cms.Query(Q("d1(X, Y) :- b1(X, Y)")).ok());
  auto a2 = cms.Query(Q("d2(A, B) :- b2(A, B)"));
  ASSERT_TRUE(a2.ok());
  EXPECT_EQ(a2->outcome, CacheOutcome::kExact);
  // Exactly two remote fetches total: d1's own and the single prefetch
  // of d2 — the foreground query joined the in-flight fetch instead of
  // issuing a duplicate.
  EXPECT_EQ(Fetches(), before + 2);
  EXPECT_EQ(cms.metrics().prefetch_joins, 1u);
  EXPECT_EQ(a2->relation->NumTuples(), 20u);
}

TEST(Prefetcher, InstanceQueryJoinsGeneralFormViaView) {
  dbms::NetworkModel net;
  net.msg_latency_ms = 60.0;
  net.wall_clock_scale = 1.0;
  dbms::RemoteDbms remote(TestDb(), net, dbms::DbmsCostModel{});
  Cms cms(&remote, CmsConfig{});
  cms.BeginSession(D1ThenD2Advice());

  const uint64_t before = Fetches();
  ASSERT_TRUE(cms.Query(Q("d1(X, Y) :- b1(X, Y)")).ok());
  // A constant-bound instance of d2: its canonical key differs from the
  // in-flight general form, but the view join waits for it, and
  // subsumption then answers locally.
  auto a2 = cms.Query(Q("d2(A, 30) :- b2(A, 30)"));
  ASSERT_TRUE(a2.ok());
  EXPECT_EQ(a2->outcome, CacheOutcome::kFullLocal);
  EXPECT_EQ(Fetches(), before + 2);
  EXPECT_EQ(cms.metrics().prefetch_joins, 1u);
  EXPECT_EQ(a2->relation->NumTuples(), 1u);  // b2(3, 30)
}

TEST(Prefetcher, BeginSessionDrainsAndSettlesInFlight) {
  dbms::NetworkModel net;
  net.msg_latency_ms = 40.0;
  net.wall_clock_scale = 1.0;
  dbms::RemoteDbms remote(TestDb(), net, dbms::DbmsCostModel{});
  Cms cms(&remote, CmsConfig{});
  cms.BeginSession(D1ThenD2Advice());

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  const uint64_t cancelled_before = reg.CounterValue("prefetch.cancelled");
  ASSERT_TRUE(cms.Query(Q("d1(X, Y) :- b1(X, Y)")).ok());
  // A new session invalidates the prediction: the pending prefetch is
  // cancelled or, if its fetch already ran, kept (the cache is
  // cross-session) — either way nothing stays in flight.
  cms.BeginSession(advice::AdviceSet{});
  EXPECT_EQ(cms.prefetches_in_flight(), 0u);
  const uint64_t settled =
      cms.metrics().prefetches +
      (reg.CounterValue("prefetch.cancelled") - cancelled_before);
  EXPECT_EQ(settled, 1u);
}

TEST(Prefetcher, DestructionWithInFlightWorkIsSafe) {
  dbms::NetworkModel net;
  net.msg_latency_ms = 40.0;
  net.wall_clock_scale = 1.0;
  dbms::RemoteDbms remote(TestDb(), net, dbms::DbmsCostModel{});
  {
    Cms cms(&remote, CmsConfig{});
    cms.BeginSession(D1ThenD2Advice());
    ASSERT_TRUE(cms.Query(Q("d1(X, Y) :- b1(X, Y)")).ok());
    EXPECT_GE(cms.prefetches_in_flight(), 0u);
    // Destroyed here with the background fetch likely still sleeping:
    // the prefetcher cancels and waits it out before the pool dies.
  }
}

TEST(Prefetcher, JudgeSpeculativeVerdicts) {
  dbms::RemoteDbms remote(TestDb());
  CacheModel model;
  QueryPlanner planner(&model, &remote, PlannerConfig{true});
  const CaqlQuery general = Q("g(X, Y) :- b1(X, Y)");
  auto small = [] { return 100.0; };

  Plan plan;
  EXPECT_EQ(JudgeSpeculative(model, planner, general, general.Key(), small,
                             1 << 20, /*skip_if_fully_local=*/true, &plan),
            SpeculativeAdmission::kAdmit);
  ASSERT_EQ(plan.sources.size(), 1u);
  EXPECT_EQ(plan.sources[0].kind, PlanSource::Kind::kRemote);

  EXPECT_EQ(JudgeSpeculative(model, planner, general, general.Key(),
                             [] { return 1e9; }, 1 << 20, true),
            SpeculativeAdmission::kTooLarge);

  // Head variable not in the body: unplannable.
  CaqlQuery bad;
  bad.name = "bad";
  bad.head_args = {logic::Term::Var("Z")};
  bad.body = {logic::Atom("b1", {logic::Term::Var("X"),
                                 logic::Term::Var("Y")})};
  EXPECT_EQ(JudgeSpeculative(model, planner, bad, bad.Key(), small, 1 << 20,
                             true),
            SpeculativeAdmission::kUnplannable);

  // Cache b1's full extension: the same general form is now an exact
  // cache entry, and a narrower selection plans fully local.
  rel::Relation ext("E", rel::Schema::FromNames({"X", "Y"}));
  ext.AppendUnchecked({Value::Int(1), Value::Int(2)});
  model.Register(std::make_shared<CacheElement>(
      model.NextId(), general, std::make_shared<rel::Relation>(ext)));
  EXPECT_EQ(JudgeSpeculative(model, planner, general, general.Key(), small,
                             1 << 20, true),
            SpeculativeAdmission::kAlreadyCached);
  const CaqlQuery narrow = Q("n(Y) :- b1(2, Y)");
  EXPECT_EQ(JudgeSpeculative(model, planner, narrow, narrow.Key(), small,
                             1 << 20, /*skip_if_fully_local=*/true),
            SpeculativeAdmission::kFullyLocal);
  // Generalization has no fully-local skip: the same query is admitted.
  EXPECT_EQ(JudgeSpeculative(model, planner, narrow, narrow.Key(), small,
                             1 << 20, /*skip_if_fully_local=*/false),
            SpeculativeAdmission::kAdmit);
}

TEST(Prefetcher, AdmissionRejectionsAreMemoizedUntilCacheChanges) {
  dbms::RemoteDbms remote(TestDb());
  CmsConfig config;
  // 20-tuple results neither fit the admission cap (estimate 800 bytes >
  // 250) nor the cache itself, so the cache content version stays put.
  config.cache_budget_bytes = 500;
  Cms cms(&remote, config);
  cms.BeginSession(D1ThenD2Advice());

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  const uint64_t rejected_before = reg.CounterValue("prefetch.rejected");
  const uint64_t memo_before = reg.CounterValue("prefetch.memo_hits");

  ASSERT_TRUE(cms.Query(Q("d1(X, Y) :- b1(X, Y)")).ok());
  EXPECT_EQ(reg.CounterValue("prefetch.rejected"), rejected_before + 1);
  EXPECT_EQ(reg.CounterValue("prefetch.memo_hits"), memo_before);

  // Same verdict next query, from the memo: no second judgement.
  ASSERT_TRUE(cms.Query(Q("d1(X, Y) :- b1(X, Y)")).ok());
  EXPECT_EQ(reg.CounterValue("prefetch.rejected"), rejected_before + 1);
  EXPECT_EQ(reg.CounterValue("prefetch.memo_hits"), memo_before + 1);

  // Any cache-content change invalidates the memo: the next admission
  // pass re-judges the candidate.
  rel::Relation tiny("t", rel::Schema::FromNames({"X"}));
  tiny.AppendUnchecked({Value::Int(1)});
  cms.cache().Insert(std::make_shared<CacheElement>(
      cms.cache().model().NextId(), Q("tiny(X) :- b1(X, 0)"),
      std::make_shared<rel::Relation>(std::move(tiny))));
  ASSERT_TRUE(cms.Query(Q("d1(X, Y) :- b1(X, Y)")).ok());
  EXPECT_EQ(reg.CounterValue("prefetch.rejected"), rejected_before + 2);
  EXPECT_EQ(reg.CounterValue("prefetch.memo_hits"), memo_before + 1);
}

TEST(Prefetcher, RejectionMemoSurvivesBeginSession) {
  // A verdict depends on the query and the cache, not on the advice: a
  // new session keeps the memo while the cache version holds.
  dbms::RemoteDbms remote(TestDb());
  CmsConfig config;
  config.cache_budget_bytes = 500;  // nothing here fits: version stays put
  Cms cms(&remote, config);
  cms.BeginSession(D1ThenD2Advice());

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  const uint64_t rejected_before = reg.CounterValue("prefetch.rejected");
  const uint64_t memo_before = reg.CounterValue("prefetch.memo_hits");
  ASSERT_TRUE(cms.Query(Q("d1(X, Y) :- b1(X, Y)")).ok());
  EXPECT_EQ(reg.CounterValue("prefetch.rejected"), rejected_before + 1);

  // New session, same cache version: the memoized rejection answers.
  const uint64_t version = cms.cache().model().version();
  cms.BeginSession(D1ThenD2Advice());
  ASSERT_TRUE(cms.Query(Q("d1(X, Y) :- b1(X, Y)")).ok());
  ASSERT_EQ(cms.cache().model().version(), version);
  EXPECT_EQ(reg.CounterValue("prefetch.rejected"), rejected_before + 1);
  EXPECT_EQ(reg.CounterValue("prefetch.memo_hits"), memo_before + 1);

  // A cache change still forces a re-judgement, in the new session too.
  rel::Relation tiny("t", rel::Schema::FromNames({"X"}));
  tiny.AppendUnchecked({Value::Int(1)});
  cms.cache().Insert(std::make_shared<CacheElement>(
      cms.cache().model().NextId(), Q("tiny(X) :- b1(X, 0)"),
      std::make_shared<rel::Relation>(std::move(tiny))));
  cms.BeginSession(D1ThenD2Advice());
  ASSERT_TRUE(cms.Query(Q("d1(X, Y) :- b1(X, Y)")).ok());
  EXPECT_EQ(reg.CounterValue("prefetch.rejected"), rejected_before + 2);
  EXPECT_EQ(reg.CounterValue("prefetch.memo_hits"), memo_before + 1);
}

TEST(Prefetcher, OverlapReducesMeasuredWallClock) {
  // The point of the pipeline: with real sleeps standing in for the
  // network, the predicted view's fetch hides behind IE think time, and
  // the follow-up query's measured latency collapses.
  dbms::NetworkModel net;
  net.msg_latency_ms = 20.0;
  net.wall_clock_scale = 1.0;
  const auto think = std::chrono::milliseconds(150);

  auto follow_up_ms = [&](bool prefetch_on) {
    dbms::RemoteDbms remote(TestDb(), net, dbms::DbmsCostModel{});
    CmsConfig config;
    config.enable_prefetch = prefetch_on;
    Cms cms(&remote, config);
    cms.BeginSession(D1ThenD2Advice());
    EXPECT_TRUE(cms.Query(Q("d1(X, Y) :- b1(X, Y)")).ok());
    std::this_thread::sleep_for(think);  // the IE "processing" window
    const auto start = std::chrono::steady_clock::now();
    auto a = cms.Query(Q("d2(A, B) :- b2(A, B)"));
    EXPECT_TRUE(a.ok());
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
  };

  const double off = follow_up_ms(false);
  const double on = follow_up_ms(true);
  // Without prefetching the follow-up pays the full ~40ms+ simulated
  // fetch sleep; with it the data arrived during think time. Comparative
  // bound keeps this robust under sanitizer and CI load.
  EXPECT_LT(on, off * 0.5) << "prefetch off " << off << "ms, on " << on
                           << "ms";
}

TEST(Prefetcher, HarvestAtCapacityEvictsUnadvisedKeepsAdvised) {
  // A harvested prefetch that lands at cache capacity must go through
  // MakeRoom like any other insert, and replacement must sacrifice the
  // unadvised element while the advised one (predicted again within the
  // horizon by the repeating path) survives.
  const auto q0 = Q("q0(X, Y) :- b3(X, Y)");
  const auto d1q = Q("d1(X, Y) :- b1(X, Y)");
  auto sizes_of = [](Cms& cms) {
    size_t q0_size = 0, d1_size = 0, d2_size = 0;
    for (const auto& [id, e] : cms.cache().model().elements()) {
      if (e->definition().name == "q0") q0_size = e->ByteSize();
      if (e->definition().name == "d1") d1_size = e->ByteSize();
      if (e->definition().name == "d2") d2_size = e->ByteSize();
    }
    return std::make_tuple(q0_size, d1_size, d2_size);
  };
  auto run_session = [&](Cms& cms) {
    // Session 1 has no advice: q0's cached answer is unprotected. The
    // cache persists into session 2, where d1 is advised and its query
    // launches the d2 prefetch; nothing else runs before the drain, so
    // the harvest install is the only insert that can evict.
    cms.BeginSession(advice::AdviceSet{});
    ASSERT_TRUE(cms.Query(q0).ok());
    cms.BeginSession(RepeatingD1D2Advice());
    ASSERT_TRUE(cms.Query(d1q).ok());
  };

  // Measuring pass: an effectively unbounded budget records each
  // element's real footprint so the constrained budget below is exact.
  size_t q0_size = 0, d1_size = 0, d2_size = 0;
  {
    dbms::RemoteDbms remote(TestDb());
    Cms cms(&remote, CmsConfig{});
    run_session(cms);
    cms.DrainPrefetches();
    std::tie(q0_size, d1_size, d2_size) = sizes_of(cms);
    ASSERT_GT(q0_size, 0u);
    ASSERT_GT(d1_size, 0u);
    ASSERT_GT(d2_size, 0u);
    // Evicting q0 alone must free enough for d2, so exactly one
    // eviction settles the constrained pass.
    ASSERT_GE(q0_size + 64, d2_size);
  }

  // Constrained pass: q0 and d1 fill the cache to within 64 bytes.
  CmsConfig config;
  config.cache_budget_bytes = q0_size + d1_size + 64;
  dbms::RemoteDbms remote(TestDb());
  Cms cms(&remote, config);
  run_session(cms);
  EXPECT_EQ(cms.cache().stats().evictions, 0u);

  cms.DrainPrefetches();  // harvest installs d2 at capacity
  EXPECT_EQ(cms.cache().stats().evictions, 1u);
  auto [q0_after, d1_after, d2_after] = sizes_of(cms);
  EXPECT_EQ(q0_after, 0u) << "unadvised element should be the victim";
  EXPECT_GT(d1_after, 0u) << "advised element must survive the harvest";
  EXPECT_GT(d2_after, 0u) << "harvested prefetch must be installed";
}

TEST(Prefetcher, OversizedHarvestIsCountedWastedNotInstalled) {
  // The admission estimate for a skewed join is far below the actual
  // result: d2 passes JudgeSpeculative (estimate 40 rows, well under
  // budget/2) but the fetched extension (152 rows) exceeds the whole
  // budget, so the harvest-time Insert refuses it and the pipeline
  // charges prefetch.wasted instead of evicting everything else.
  dbms::Database db;
  rel::Relation b1("b1", rel::Schema::FromNames({"a", "b"}));
  for (int i = 0; i < 20; ++i) {
    b1.AppendUnchecked({Value::Int(i % 5), Value::Int(i)});
  }
  rel::Relation s1("s1", rel::Schema::FromNames({"a", "b"}));
  for (int i = 0; i < 20; ++i) {
    s1.AppendUnchecked({Value::Int(i), Value::Int(i < 10 ? i : 7)});
  }
  rel::Relation s2("s2", rel::Schema::FromNames({"b", "c"}));
  for (int i = 0; i < 24; ++i) {
    s2.AppendUnchecked({Value::Int(i < 12 ? i : 7), Value::Int(100 + i)});
  }
  BRAID_CHECK_OK(db.AddTable(std::move(b1)));
  BRAID_CHECK_OK(db.AddTable(std::move(s1)));
  BRAID_CHECK_OK(db.AddTable(std::move(s2)));

  advice::AdviceSet advice;
  advice::ViewSpec d1;
  d1.id = "d1";
  d1.head = {advice::AnnotatedVar{"X", advice::Binding::kProducer},
             advice::AnnotatedVar{"Y", advice::Binding::kProducer}};
  d1.body = {logic::Atom("b1", {logic::Term::Var("X"),
                                logic::Term::Var("Y")})};
  advice.view_specs.push_back(d1);
  advice::ViewSpec d2;
  d2.id = "d2";
  d2.head = {advice::AnnotatedVar{"A", advice::Binding::kProducer},
             advice::AnnotatedVar{"C", advice::Binding::kProducer}};
  d2.body = {logic::Atom("s1", {logic::Term::Var("A"),
                                logic::Term::Var("B")}),
             logic::Atom("s2", {logic::Term::Var("B"),
                                logic::Term::Var("C")})};
  advice.view_specs.push_back(d2);
  advice.path_expression = advice::PathExpr::Sequence(
      {advice::PathExpr::Pattern("d1", {}),
       advice::PathExpr::Pattern("d2", {})},
      advice::RepBound::Fixed(1), advice::RepBound::Fixed(1));

  CmsConfig config;
  config.cache_budget_bytes = 4000;
  dbms::RemoteDbms remote(std::move(db));
  Cms cms(&remote, config);
  cms.BeginSession(advice);

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  const uint64_t wasted_before = reg.CounterValue("prefetch.wasted");
  ASSERT_TRUE(cms.Query(Q("d1(X, Y) :- b1(X, Y)")).ok());
  cms.DrainPrefetches();

  EXPECT_EQ(reg.CounterValue("prefetch.wasted"), wasted_before + 1);
  EXPECT_EQ(cms.cache().stats().rejected_too_large, 1u);
  // The refusal happened before MakeRoom: d1 was not pointlessly
  // sacrificed for an element that could never fit.
  EXPECT_EQ(cms.cache().stats().evictions, 0u);
  bool has_d1 = false, has_d2 = false;
  for (const auto& [id, e] : cms.cache().model().elements()) {
    if (e->definition().name == "d1") has_d1 = true;
    if (e->definition().name == "d2") has_d2 = true;
  }
  EXPECT_TRUE(has_d1);
  EXPECT_FALSE(has_d2);
}

TEST(Prefetcher, FailedPrefetchIsCountedAndNeverInstalled) {
  // Regression for the swallowed-error class the [[nodiscard]] audit
  // targets, driven through the fault-injecting remote: a prefetch whose
  // fetch fails must be counted on the prefetch.errors counter and must
  // NOT install a cache element — and the follow-up foreground query for
  // the same definition re-issues the fetch and surfaces the injected
  // fault status to the caller, never an OK-but-empty answer.
  testing::FaultPlan plan;
  plan.seed = 7;
  plan.error_rate = 1.0;
  plan.warmup_calls = 1;  // d1's own fetch succeeds; everything after fails
  testing::FaultyRemoteDbms remote(TestDb(), plan);
  Cms cms(&remote, CmsConfig{});
  cms.BeginSession(D1ThenD2Advice());

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  const uint64_t errors_before = reg.CounterValue("prefetch.errors");
  const uint64_t installs_before = cms.metrics().prefetches;

  ASSERT_TRUE(cms.Query(Q("d1(X, Y) :- b1(X, Y)")).ok());
  cms.DrainPrefetches();
  EXPECT_EQ(reg.CounterValue("prefetch.errors"), errors_before + 1);
  EXPECT_EQ(cms.metrics().prefetches, installs_before);
  EXPECT_GE(remote.injected_errors(), 1u);

  // No d2 element was installed, so the foreground query goes remote and
  // the injected fault reaches the caller intact.
  auto a2 = cms.Query(Q("d2(A, B) :- b2(A, B)"));
  ASSERT_FALSE(a2.ok());
  EXPECT_TRUE(testing::IsInjectedFault(a2.status()))
      << a2.status().ToString();

  // d1 is still cached and still answerable: the failed speculative work
  // did not poison the session.
  auto a1 = cms.Query(Q("d1(X, Y) :- b1(X, Y)"));
  ASSERT_TRUE(a1.ok());
  EXPECT_EQ(a1->relation->NumTuples(), 20u);
}

}  // namespace
}  // namespace braid::cms
