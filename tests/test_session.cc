// Tests for the multi-session CMS: N independent IE sessions sharing one
// striped cache, the session scheduler's fairness/serialization contract,
// the replacement policy's advice protection under concurrent eviction,
// and the replacement-advice index against its per-session definition.
// They run under TSan in CI.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "advice/path_expr.h"
#include "caql/caql_query.h"
#include "cms/advice_manager.h"
#include "cms/cache_element.h"
#include "cms/cache_model.h"
#include "cms/cms.h"
#include "cms/session_scheduler.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/strings.h"
#include "dbms/remote_dbms.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "relational/relation.h"
#include "relational/value.h"

namespace braid::cms {
namespace {

/// A small database: `a` (referenced by the test advice, so cached
/// elements over it are session-relevant) and `b` (never advised).
dbms::Database MakeDatabase(size_t rows = 64) {
  dbms::Database db;
  for (const char* name : {"a", "b"}) {
    rel::Relation t(name, rel::Schema::FromNames({"x", "y"}));
    for (size_t i = 0; i < rows; ++i) {
      t.AppendUnchecked({rel::Value::Int(static_cast<int64_t>(i)),
                         rel::Value::Int(static_cast<int64_t>(i % 8))});
    }
    BRAID_CHECK_OK(db.AddTable(std::move(t)));
  }
  return db;
}

advice::AdviceSet AdviceOverA() {
  advice::ViewSpec v;
  v.id = "va";
  v.head = {advice::AnnotatedVar{"X", advice::Binding::kProducer},
            advice::AnnotatedVar{"Y", advice::Binding::kProducer}};
  v.body = {logic::Atom("a", {logic::Term::Var("X"), logic::Term::Var("Y")})};
  advice::AdviceSet advice;
  advice.view_specs = {v};
  // Declares `a` session-relevant: cached elements reading it are
  // protected at the horizon boundary by AdvisedDistance.
  advice.base_relations = {"a"};
  return advice;
}

caql::CaqlQuery Parse(const std::string& text) {
  auto q = caql::ParseCaql(text);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return std::move(q.value());
}

CmsConfig PlainConfig(size_t threads = 4) {
  CmsConfig config;
  config.enable_advice = false;
  config.enable_prefetch = false;
  config.enable_generalization = false;
  config.num_threads = threads;
  return config;
}

TEST(CacheModelStripes, SameKeyRegisterDisplacesTheRaceLoser) {
  CacheModel model;
  const caql::CaqlQuery def = Parse("e(X, Y) :- a(X, Y)");
  auto ext = std::make_shared<rel::Relation>(
      "ext", rel::Schema::FromNames({"X", "Y"}));
  model.Register(std::make_shared<CacheElement>("E1", def, ext));
  // Same canonical definition under a fresh id — two sessions raced to
  // install the same result and this one lost. The earlier element must
  // be displaced so the key maps to exactly one element. (Regression:
  // RemoveLocked took the displaced id by reference into the very map
  // node it erased, then read the freed string.)
  model.Register(std::make_shared<CacheElement>("E2", def, ext));
  EXPECT_EQ(model.Find("E1"), nullptr);
  ASSERT_NE(model.Find("E2"), nullptr);
  ASSERT_NE(model.ByCanonicalKey(def.Key()), nullptr);
  EXPECT_EQ(model.ByCanonicalKey(def.Key())->id(), "E2");
  EXPECT_EQ(model.elements().size(), 1u);
}

TEST(CmsSessions, SessionsShareOneCache) {
  dbms::RemoteDbms remote(MakeDatabase());
  Cms cms(&remote, PlainConfig());
  CmsSession* s1 = cms.OpenSession();
  CmsSession* s2 = cms.OpenSession();

  const caql::CaqlQuery q = Parse("d(X, Y) :- a(X, Y)");
  auto a1 = cms.Query(*s1, q);
  ASSERT_TRUE(a1.ok()) << a1.status().ToString();
  EXPECT_EQ(a1.value().outcome, CacheOutcome::kRemote);

  // The second session hits the element the first one installed.
  auto a2 = cms.Query(*s2, q);
  ASSERT_TRUE(a2.ok()) << a2.status().ToString();
  EXPECT_EQ(a2.value().outcome, CacheOutcome::kExact);
  EXPECT_EQ(remote.stats().queries, 1u);

  // Metrics are per session.
  EXPECT_EQ(s1->metrics().ie_queries, 1u);
  EXPECT_EQ(s1->metrics().remote_only, 1u);
  EXPECT_EQ(s1->metrics().exact_hits, 0u);
  EXPECT_EQ(s2->metrics().exact_hits, 1u);
  EXPECT_EQ(cms.metrics().ie_queries, 0u);  // default session untouched

  cms.CloseSession(s1);
  cms.CloseSession(s2);
}

TEST(CmsSessions, CloseSessionIsIdempotentAndIgnoresDefault) {
  dbms::RemoteDbms remote(MakeDatabase());
  Cms cms(&remote, PlainConfig());
  cms.CloseSession(nullptr);
  CmsSession* s = cms.OpenSession();
  cms.CloseSession(s);
  cms.CloseSession(s);  // already gone: no-op
  // The default session is owned by the Cms for its whole lifetime.
  BRAID_CHECK_OK(cms.Query(Parse("d(X, Y) :- a(X, Y)")).status());
  EXPECT_EQ(cms.metrics().ie_queries, 1u);
}

TEST(CmsSessions, QueryAsyncSerializesWithinASession) {
  dbms::RemoteDbms remote(MakeDatabase());
  Cms cms(&remote, PlainConfig(/*threads=*/4));
  CmsSession* s = cms.OpenSession();

  constexpr size_t kQueries = 24;
  std::vector<std::future<Result<CmsAnswer>>> futures;
  futures.reserve(kQueries);
  for (size_t i = 0; i < kQueries; ++i) {
    // All identical: after the first remote fetch, every later one must be
    // an exact hit — which can only be counted correctly if the session's
    // (unlocked) metrics are never touched by two queries at once.
    futures.push_back(cms.QueryAsync(*s, Parse("d(X, Y) :- a(X, Y)")));
  }
  for (auto& f : futures) {
    auto a = f.get();
    ASSERT_TRUE(a.ok()) << a.status().ToString();
  }
  EXPECT_EQ(s->metrics().ie_queries, kQueries);
  EXPECT_EQ(s->metrics().remote_only + s->metrics().exact_hits, kQueries);
  EXPECT_EQ(s->metrics().exact_hits, kQueries - 1);
  EXPECT_EQ(remote.stats().queries, 1u);
  cms.CloseSession(s);
}

TEST(CmsSessions, ConcurrentSessionsGetCorrectAnswers) {
  const size_t kRows = 64;
  dbms::RemoteDbms remote(MakeDatabase(kRows));
  Cms cms(&remote, PlainConfig(/*threads=*/4));

  constexpr size_t kSessions = 4;
  constexpr size_t kPerSession = 16;
  std::vector<CmsSession*> sessions;
  for (size_t s = 0; s < kSessions; ++s) sessions.push_back(cms.OpenSession());

  std::vector<std::thread> drivers;
  std::atomic<size_t> wrong{0};
  for (size_t s = 0; s < kSessions; ++s) {
    drivers.emplace_back([&cms, &sessions, &wrong, s] {
      for (size_t i = 0; i < kPerSession; ++i) {
        // y = (s*kPerSession + i) % 8 selects kRows/8 tuples of `a`; the
        // mix of distinct constants across sessions makes installs and
        // in-place stripe reads race on the same stripes.
        const size_t y = (s * kPerSession + i) % 8;
        auto q = caql::ParseCaql(StrCat("q", s, "_", i, "(X) :- a(X, ", y,
                                        ")"));
        auto answer = cms.QueryAsync(*sessions[s], q.value()).get();
        if (!answer.ok() || answer.value().relation == nullptr ||
            answer.value().relation->NumTuples() != 64 / 8) {
          wrong.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : drivers) t.join();
  EXPECT_EQ(wrong.load(), 0u);
  for (CmsSession* s : sessions) {
    EXPECT_EQ(s->metrics().ie_queries, kPerSession);
    cms.CloseSession(s);
  }
}

TEST(CmsSessions, CloseSessionWhileOthersAreQuerying) {
  dbms::RemoteDbms remote(MakeDatabase());
  CmsConfig config = PlainConfig(/*threads=*/4);
  config.enable_advice = true;  // sessions publish to the advice index
  config.cache_budget_bytes = 8u << 10;  // small: evictions consult it
  Cms cms(&remote, config);

  CmsSession* doomed = cms.OpenSession(AdviceOverA());
  CmsSession* survivor = cms.OpenSession(AdviceOverA());
  std::thread driver([&cms, survivor] {
    for (size_t i = 0; i < 24; ++i) {
      auto q = caql::ParseCaql(StrCat("w", i, "(X) :- b(X, ", i % 8, ")"));
      BRAID_CHECK_OK(cms.Query(*survivor, q.value()).status());
    }
  });
  // Unregistering `doomed` races the survivor's queries (and any eviction
  // pass probing the advice index) — this must neither deadlock nor crash.
  cms.CloseSession(doomed);
  driver.join();
  EXPECT_EQ(survivor->metrics().ie_queries, 24u);
  cms.CloseSession(survivor);
}

TEST(CmsSessions, ObsRegistryExportsSessionAndStripeInstruments) {
  dbms::RemoteDbms remote(MakeDatabase());
  Cms cms(&remote, PlainConfig());
  CmsSession* s = cms.OpenSession();
  BRAID_CHECK_OK(cms.QueryAsync(*s, Parse("d(X, Y) :- a(X, Y)")).get()
                     .status());
  cms.DrainSessions();
  cms.CloseSession(s);
  const std::string json = obs::MetricsRegistry::Global().ToJson();
  EXPECT_NE(json.find("sessions.active"), std::string::npos);
  EXPECT_NE(json.find("sessions.queued"), std::string::npos);
  EXPECT_NE(json.find("cache.lock_wait_ms"), std::string::npos);
  EXPECT_NE(json.find("cache.stripe_contention"), std::string::npos);
}

// --- session scheduler unit tests -------------------------------------

TEST(SessionScheduler, PerSessionFifoAndAtMostOneInFlight) {
  exec::ThreadPool pool(4);
  SessionScheduler scheduler(&pool);

  constexpr uint64_t kSessions = 3;
  constexpr int kTasks = 40;
  std::vector<std::vector<int>> order(kSessions);
  std::vector<std::atomic<int>> running(kSessions);
  std::atomic<bool> overlapped{false};
  Mutex order_mu;

  for (int t = 0; t < kTasks; ++t) {
    for (uint64_t s = 0; s < kSessions; ++s) {
      scheduler.Enqueue(s, [&, s, t] {
        if (running[s].fetch_add(1, std::memory_order_acq_rel) != 0) {
          overlapped.store(true, std::memory_order_relaxed);
        }
        {
          MutexLock lock(&order_mu);
          order[s].push_back(t);
        }
        running[s].fetch_sub(1, std::memory_order_acq_rel);
      });
    }
  }
  scheduler.Drain();

  EXPECT_FALSE(overlapped.load());  // serialization per session
  for (uint64_t s = 0; s < kSessions; ++s) {
    ASSERT_EQ(order[s].size(), static_cast<size_t>(kTasks));
    for (int t = 0; t < kTasks; ++t) EXPECT_EQ(order[s][t], t);  // FIFO
  }
  EXPECT_EQ(scheduler.NumActive(), 0u);
  EXPECT_EQ(scheduler.NumQueued(), 0u);
}

TEST(SessionScheduler, PoollessDegradesToInlineExecution) {
  SessionScheduler scheduler(nullptr);
  int runs = 0;
  scheduler.Enqueue(7, [&runs] { ++runs; });
  EXPECT_EQ(runs, 1);  // ran inside Enqueue
  scheduler.Drain();
  EXPECT_EQ(runs, 1);
}

TEST(SessionScheduler, DrainFromAPoolThreadDoesNotDeadlock) {
  // A scheduled task that itself waits for other scheduled work must
  // help-drain rather than park a worker forever.
  exec::ThreadPool pool(1);
  SessionScheduler scheduler(&pool);
  std::atomic<int> done{0};
  scheduler.Enqueue(1, [&] {
    scheduler.Enqueue(2, [&] { done.fetch_add(1); });
    done.fetch_add(1);
  });
  scheduler.Drain();
  EXPECT_EQ(done.load(), 2);
}

// --- concurrent eviction under advice protection ----------------------

TEST(CmsSessions, ConcurrentEvictionNeverTakesAdvisedOverUnadvised) {
  // N sessions install at capacity and race MakeRoom. The advice marks
  // elements over `a` session-relevant (protected within the horizon);
  // elements over `b` are unadvised. Since unadvised victims exist at
  // every point of the run, no advised element may ever be evicted, and
  // the footprint must settle within budget.
  dbms::RemoteDbms remote(MakeDatabase(/*rows=*/64));
  CmsConfig config;
  config.enable_prefetch = false;
  config.enable_generalization = false;
  config.enable_advice = true;
  config.num_threads = 4;
  config.cache_budget_bytes = 24u << 10;  // small enough to churn
  Cms cms(&remote, config);

  constexpr size_t kSessions = 4;
  std::vector<CmsSession*> sessions;
  for (size_t s = 0; s < kSessions; ++s) {
    sessions.push_back(cms.OpenSession(AdviceOverA()));
  }

  // Seed the advised (protected) elements: a handful of small selections
  // over `a`, well under budget on their own.
  constexpr size_t kHot = 4;
  for (size_t h = 0; h < kHot; ++h) {
    auto q = caql::ParseCaql(StrCat("hot", h, "(X) :- a(X, ", h, ")"));
    BRAID_CHECK_OK(cms.Query(*sessions[0], q.value()).status());
  }

  std::vector<std::thread> drivers;
  for (size_t s = 0; s < kSessions; ++s) {
    drivers.emplace_back([&cms, &sessions, s] {
      for (size_t i = 0; i < 24; ++i) {
        // Distinct definitions over the unadvised `b`: every one installs
        // a new element, forcing eviction passes once at capacity.
        auto q = caql::ParseCaql(
            StrCat("cold", s, "_", i, "(X, Y) :- b(X, Y) & b(Y, ", i % 8,
                   ")"));
        BRAID_CHECK_OK(cms.Query(*sessions[s], q.value()).status());
      }
    });
  }
  for (std::thread& t : drivers) t.join();

  EXPECT_LE(cms.cache().model().TotalBytes(), cms.cache().budget_bytes());
  EXPECT_GT(cms.cache().stats().evictions.load(), 0u)
      << "budget never reached: the race under test did not happen";

  // Every advised element survived; only unadvised ones were evicted.
  size_t advised_resident = 0;
  for (const auto& [id, element] : cms.cache().model().elements()) {
    bool advised = false;
    for (const auto& atom : element->definition().RelationAtoms()) {
      if (atom.predicate == "a") advised = true;
    }
    advised_resident += advised ? 1 : 0;
  }
  EXPECT_EQ(advised_resident, kHot);

  for (CmsSession* s : sessions) cms.CloseSession(s);
}

// --- replacement-advice index -----------------------------------------

using advice::PathExpr;
using advice::PathExprPtr;
using advice::RepBound;

PathExprPtr Pat(const std::string& view) {
  return PathExpr::Pattern(view, {});
}

/// (v0, v1, ..., v<n-1>)<1,1>: view vi sits i queries away at the start.
PathExprPtr Chain(size_t n) {
  std::vector<PathExprPtr> members;
  for (size_t i = 0; i < n; ++i) members.push_back(Pat(StrCat("v", i)));
  return PathExpr::Sequence(std::move(members), RepBound::Fixed(1),
                            RepBound::Fixed(1));
}

advice::CompiledAdvicePtr Advice(std::vector<std::string> base_relations,
                                 PathExprPtr path = nullptr) {
  advice::AdviceSet advice;
  advice.base_relations = std::move(base_relations);
  advice.path_expression = std::move(path);
  return advice::Compile(std::move(advice));
}

/// A generator-form element: the index reads only its origin view and
/// definition, never its id or extension.
CacheElementPtr Element(const std::string& origin_view,
                        const std::string& definition) {
  auto e = std::make_shared<CacheElement>("T", Parse(definition));
  e->set_origin_view(origin_view);
  return e;
}

/// The definition the index must reproduce: the minimum over `sessions`
/// of their own AdvisedDistance.
std::optional<size_t> MinAdvised(
    const std::vector<std::unique_ptr<CmsSession>>& sessions,
    const CacheElement& e, size_t horizon) {
  std::optional<size_t> best;
  for (const auto& s : sessions) {
    auto d = s->AdvisedDistance(e, horizon);
    if (d.has_value() && (!best.has_value() || *d < *best)) best = d;
  }
  return best;
}

TEST(ReplacementAdviceIndex, BaseRelationFallbackAndTrackerDistance) {
  ReplacementAdviceIndex index(/*horizon=*/4);
  CmsSession tracked(1, index);
  tracked.InstallAdvice(Advice({"a"}, Chain(6)));
  // A tracker distance wins for its session even past the horizon: v5 is
  // five queries away, and the session's `a` does not lower that to 3.
  const CacheElementPtr far = Element("v5", "e(X) :- a(X, Y)");
  EXPECT_EQ(tracked.AdvisedDistance(*far, 4), 5u);
  EXPECT_EQ(index.Lookup(*far), 5u);
  // A session with `a` relevant but no prediction for v5 protects it at
  // the horizon boundary, max(horizon, 1) - 1.
  {
    CmsSession listing(2, index);
    listing.InstallAdvice(Advice({"a", "a", "c"}));  // duplicates count once
    EXPECT_EQ(index.Lookup(*far), 3u);
    // Only relation atoms count: a comparison or an unlisted predicate
    // does not trigger the fallback.
    EXPECT_EQ(index.Lookup(*Element("zz", "e(X) :- b(X, Y) & X < 3")),
              std::nullopt);
    EXPECT_EQ(index.Lookup(*Element("zz", "e(X) :- b(X, Y) & c(Y, Z)")), 3u);
    listing.WithdrawAdvice();
  }
  EXPECT_EQ(index.Lookup(*far), 5u);
  // Advancing moves the distance; a view that can no longer appear falls
  // back to the session's own base relations.
  tracked.OnQuery("v0");
  EXPECT_EQ(index.Lookup(*far), 4u);
  tracked.OnQuery("v1");
  tracked.OnQuery("v2");
  tracked.OnQuery("v3");
  tracked.OnQuery("v4");
  tracked.OnQuery("v5");
  EXPECT_EQ(index.Lookup(*far), 3u);
  EXPECT_EQ(index.Lookup(*Element("v5", "e(X) :- b(X, Y)")), std::nullopt);
  tracked.WithdrawAdvice();
  EXPECT_EQ(index.Lookup(*far), std::nullopt);
}

TEST(ReplacementAdviceIndex, EmptyAndUnknownOriginViews) {
  ReplacementAdviceIndex index(/*horizon=*/4);
  CmsSession s(1, index);
  s.InstallAdvice(Advice({"a"}, Chain(3)));
  // An empty origin view never has a distance, even though the tracker
  // knows views; only the base relations can protect the element.
  EXPECT_EQ(index.Lookup(*Element("", "e(X) :- a(X, Y)")), 3u);
  EXPECT_EQ(index.Lookup(*Element("", "e(X) :- b(X, Y)")), std::nullopt);
  // Likewise for a view no session's path expression mentions.
  EXPECT_EQ(index.Lookup(*Element("zz", "e(X) :- a(X, Y)")), 3u);
  EXPECT_EQ(index.Lookup(*Element("zz", "e(X) :- b(X, Y)")), std::nullopt);
  EXPECT_EQ(index.Lookup(*Element("v1", "e(X) :- b(X, Y)")), 1u);
  s.WithdrawAdvice();
}

TEST(ReplacementAdviceIndex, HorizonZeroFallsBackToZero) {
  ReplacementAdviceIndex index(/*horizon=*/0);
  CmsSession s(1, index);
  s.InstallAdvice(Advice({"a"}));
  const CacheElementPtr e = Element("v0", "e(X) :- a(X, Y)");
  EXPECT_EQ(s.AdvisedDistance(*e, 0), 0u);
  EXPECT_EQ(index.Lookup(*e), 0u);
  s.WithdrawAdvice();
}

TEST(ReplacementAdviceIndex, ReinstallReplacesTheContribution) {
  ReplacementAdviceIndex index(/*horizon=*/4);
  CmsSession s(1, index);
  const CacheElementPtr over_a = Element("v2", "e(X) :- a(X, Y)");
  const CacheElementPtr over_b = Element("v2", "e(X) :- b(X, Y)");
  s.InstallAdvice(Advice({"a"}, Chain(3)));
  EXPECT_EQ(index.Lookup(*over_a), 2u);
  EXPECT_EQ(index.Lookup(*over_b), 2u);
  s.InstallAdvice(Advice({"b"}));  // no path expression any more
  EXPECT_EQ(index.Lookup(*over_a), std::nullopt);
  EXPECT_EQ(index.Lookup(*over_b), 3u);
  s.InstallAdvice(Advice({}));
  EXPECT_EQ(index.Lookup(*over_b), std::nullopt);
}

TEST(ReplacementAdviceIndex, QueriesAfterWithdrawPublishNothing) {
  ReplacementAdviceIndex index(/*horizon=*/4);
  CmsSession other(1, index);
  other.InstallAdvice(Advice({}, Chain(6)));
  CmsSession s(2, index);
  s.InstallAdvice(Advice({"a"}, Chain(6)));
  const CacheElementPtr v4 = Element("v4", "e(X) :- a(X, Y)");
  const CacheElementPtr unknown = Element("zz", "e(X) :- a(X, Y)");
  s.OnQuery("v0");
  EXPECT_EQ(index.Lookup(*v4), 3u);
  EXPECT_EQ(index.Lookup(*unknown), 3u);
  s.WithdrawAdvice();
  EXPECT_EQ(index.Lookup(*v4), 4u);  // `other` is the only contributor
  EXPECT_EQ(index.Lookup(*unknown), std::nullopt);
  // The withdrawn session still advances its own tracker, but neither its
  // new distances nor its base relations reach the index.
  s.OnQuery("v1");
  s.OnQuery("v2");
  EXPECT_EQ(s.AdvisedDistance(*v4, 4), 1u);
  EXPECT_EQ(index.Lookup(*v4), 4u);
  EXPECT_EQ(index.Lookup(*unknown), std::nullopt);
  // Installing advice again publishes it afresh.
  s.InstallAdvice(Advice({"a"}, Chain(6)));
  s.OnQuery("v0");
  EXPECT_EQ(index.Lookup(*v4), 3u);
  EXPECT_EQ(index.Lookup(*unknown), 3u);
}

/// Random advice over predicates a..d and views v0..v5 (sometimes with
/// duplicate base relations, sometimes without a path expression).
advice::CompiledAdvicePtr RandomAdvice(Rng& rng) {
  advice::AdviceSet advice;
  const int64_t relations = rng.Uniform(0, 3);
  for (int64_t i = 0; i < relations; ++i) {
    advice.base_relations.push_back(
        std::string(1, static_cast<char>('a' + rng.Uniform(0, 3))));
  }
  if (rng.Bernoulli(0.8)) {
    std::vector<PathExprPtr> members;
    const int64_t n = rng.Uniform(1, 5);
    for (int64_t i = 0; i < n; ++i) {
      PathExprPtr leaf = Pat(StrCat("v", rng.Uniform(0, 5)));
      members.push_back(rng.Bernoulli(0.2)
                            ? PathExpr::Alternation(
                                  {leaf, Pat(StrCat("v", rng.Uniform(0, 5)))},
                                  static_cast<size_t>(rng.Uniform(0, 2)))
                            : leaf);
    }
    advice.path_expression = PathExpr::Sequence(
        std::move(members), RepBound::Fixed(rng.Uniform(0, 1)),
        rng.Bernoulli(0.5) ? RepBound::Fixed(1) : RepBound::Cardinality("Y"));
  }
  return advice::Compile(std::move(advice));
}

TEST(ReplacementAdviceIndex, MatchesAdvisedDistanceUnderRandomSessions) {
  std::vector<CacheElementPtr> elements;
  for (const char* origin : {"", "v0", "v1", "v2", "v3", "v4", "v5", "zz"}) {
    for (const char* body :
         {"e(X) :- a(X, Y)", "e(X) :- b(X, Y)", "e(X) :- c(X, Y) & d(Y, Z)",
          "e(X) :- a(X, Y) & X < 3", "e(X) :- e(X, Y)"}) {
      elements.push_back(Element(origin, body));
    }
  }
  size_t compared = 0;
  size_t advised = 0;
  for (size_t horizon : {0u, 1u, 4u}) {
    for (uint64_t seed = 0; seed < 20; ++seed) {
      Rng rng(seed);
      ReplacementAdviceIndex index(horizon);
      std::vector<std::unique_ptr<CmsSession>> open;
      uint64_t next_id = 1;
      for (int step = 0; step < 200; ++step) {
        const int64_t op = rng.Uniform(0, 9);
        if (open.empty() || (op == 0 && open.size() < 6)) {
          open.push_back(std::make_unique<CmsSession>(next_id++, index));
          open.back()->InstallAdvice(RandomAdvice(rng));
        } else {
          const size_t pick = static_cast<size_t>(
              rng.Uniform(0, static_cast<int64_t>(open.size()) - 1));
          if (op == 1) {
            open[pick]->InstallAdvice(RandomAdvice(rng));
          } else if (op == 2) {
            open[pick]->WithdrawAdvice();
            open.erase(open.begin() + static_cast<ptrdiff_t>(pick));
          } else {
            // Views the expressions use, the empty view, and one unknown.
            const int64_t v = rng.Uniform(-1, 6);
            open[pick]->OnQuery(v < 0    ? std::string()
                                : v == 6 ? std::string("zz")
                                         : StrCat("v", v));
          }
        }
        for (const CacheElementPtr& e : elements) {
          const std::optional<size_t> want = MinAdvised(open, *e, horizon);
          ASSERT_EQ(index.Lookup(*e), want)
              << "horizon " << horizon << " seed " << seed << " step "
              << step << " element " << e->origin_view() << ": "
              << e->definition().ToString();
          ++compared;
          advised += want.has_value() ? 1 : 0;
        }
      }
      for (const auto& s : open) s->WithdrawAdvice();
      for (const CacheElementPtr& e : elements) {
        EXPECT_EQ(index.Lookup(*e), std::nullopt);
      }
    }
  }
  EXPECT_GT(advised, compared / 4) << "too few advised elements to matter";
  EXPECT_LT(advised, compared) << "every element advised";
}

/// Caches one element per query and reports which survive: `a` elements
/// first, then `b` elements past the budget.
std::vector<std::string> SurvivorsAfterPressure(bool enable_advice) {
  dbms::RemoteDbms remote(MakeDatabase());
  CmsConfig config = PlainConfig(/*threads=*/1);
  config.enable_advice = enable_advice;
  config.enable_intermediates = false;
  config.cache_budget_bytes = 6u << 10;
  Cms cms(&remote, config);
  CmsSession* advised = cms.OpenSession(AdviceOverA());
  CmsSession* plain = cms.OpenSession();
  BRAID_CHECK_OK(cms.Query(*plain, Parse("hot(X) :- a(X, 3)")).status());
  for (size_t i = 0; i < 16; ++i) {
    BRAID_CHECK_OK(
        cms.Query(*plain, Parse(StrCat("cold", i, "(X) :- b(X, ", i % 8,
                                       ")")))
            .status());
  }
  EXPECT_GT(cms.cache().stats().evictions.load(), 0u);
  EXPECT_EQ(cms.CheckReplacementAdvice(), "");
  std::vector<std::string> names;
  for (const auto& [id, e] : cms.cache().model().elements()) {
    names.push_back(e->definition().name);
  }
  cms.CloseSession(advised);
  EXPECT_EQ(cms.CheckReplacementAdvice(), "");
  cms.CloseSession(plain);
  return names;
}

TEST(CmsSessions, AdviceProtectsOnlyWhenEnabled) {
  auto has_hot = [](const std::vector<std::string>& names) {
    return std::find(names.begin(), names.end(), "hot") != names.end();
  };
  // The oldest element survives only through advice: `a` is relevant to
  // an open session.
  EXPECT_TRUE(has_hot(SurvivorsAfterPressure(/*enable_advice=*/true)));
  // With advice disabled, the advisor answers nothing and LRU evicts it.
  EXPECT_FALSE(has_hot(SurvivorsAfterPressure(/*enable_advice=*/false)));
}

TEST(CmsSessions, ClosedSessionNoLongerProtects) {
  dbms::RemoteDbms remote(MakeDatabase());
  CmsConfig config = PlainConfig(/*threads=*/1);
  config.enable_advice = true;
  config.enable_intermediates = false;
  config.cache_budget_bytes = 6u << 10;
  Cms cms(&remote, config);
  CmsSession* advised = cms.OpenSession(AdviceOverA());
  BRAID_CHECK_OK(cms.Query(*advised, Parse("hot(X) :- a(X, 3)")).status());
  cms.CloseSession(advised);
  EXPECT_EQ(cms.CheckReplacementAdvice(), "");
  for (size_t i = 0; i < 16; ++i) {
    BRAID_CHECK_OK(
        cms.Query(Parse(StrCat("cold", i, "(X) :- b(X, ", i % 8, ")")))
            .status());
  }
  EXPECT_EQ(cms.cache().model().ByCanonicalKey(
                Parse("hot(X) :- a(X, 3)").Key()),
            nullptr);
}

TEST(CmsSessions, DefaultSessionBeginSessionReplacesAdvice) {
  dbms::RemoteDbms remote(MakeDatabase());
  CmsConfig config = PlainConfig(/*threads=*/1);
  config.enable_advice = true;
  Cms cms(&remote, config);
  cms.BeginSession(AdviceOverA());
  BRAID_CHECK_OK(cms.Query(Parse("va(X, Y) :- a(X, Y)")).status());
  BRAID_CHECK_OK(cms.Query(Parse("vb(X, Y) :- b(X, Y)")).status());
  EXPECT_EQ(cms.CheckReplacementAdvice(), "");
  // New advice: `b` relevant, a path expression over vb. The old
  // contribution must be gone, not added to.
  cms.BeginSession(Advice({"b"}, Chain(2)));
  EXPECT_EQ(cms.CheckReplacementAdvice(), "");
  BRAID_CHECK_OK(cms.Query(Parse("v0(X, Y) :- b(X, Y)")).status());
  EXPECT_EQ(cms.CheckReplacementAdvice(), "");
  cms.BeginSession(advice::AdviceSet{});
  EXPECT_EQ(cms.CheckReplacementAdvice(), "");
}

TEST(CmsSessions, ConcurrentOpenQueryCloseKeepsTheIndexExact) {
  // Four threads churn sessions (open with advice, query past the budget
  // so evictions consult the index, close) while the others do the same.
  // At quiescence the index must equal the per-session definition, and
  // with every session closed it must protect nothing.
  dbms::RemoteDbms remote(MakeDatabase());
  CmsConfig config;
  config.enable_prefetch = false;
  config.enable_generalization = false;
  config.enable_advice = true;
  config.num_threads = 4;
  config.cache_budget_bytes = 8u << 10;
  Cms cms(&remote, config);

  std::vector<std::thread> drivers;
  for (size_t t = 0; t < 4; ++t) {
    drivers.emplace_back([&cms, t] {
      for (size_t round = 0; round < 6; ++round) {
        advice::AdviceSet advice = AdviceOverA();
        advice.path_expression = Chain(4);
        CmsSession* s = cms.OpenSession(advice);
        for (size_t i = 0; i < 8; ++i) {
          const char* relation = (i + t) % 2 == 0 ? "a" : "b";
          auto q = caql::ParseCaql(StrCat("v", i % 4, "(X) :- ", relation,
                                          "(X, ", (t + round + i) % 8, ")"));
          BRAID_CHECK_OK(cms.Query(*s, q.value()).status());
        }
        cms.CloseSession(s);
      }
    });
  }
  for (std::thread& d : drivers) d.join();
  EXPECT_GT(cms.cache().stats().evictions.load(), 0u);
  EXPECT_GT(cms.cache().model().size(), 0u);
  // Only the advice-less default session is left, so this also checks
  // that every closed session's counts were withdrawn.
  EXPECT_EQ(cms.CheckReplacementAdvice(), "");
}

}  // namespace
}  // namespace braid::cms
