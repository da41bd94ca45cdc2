// Intermediate-result caching (DESIGN.md §12): the cost-based admission
// gate, the derived budget slice, eviction ordering (derived before
// advised), end-to-end stage reuse through subsumption, and the
// concurrent multi-session path (run under TSan in CI).

#include <gtest/gtest.h>

#include <future>
#include <thread>
#include <vector>

#include "caql/caql_query.h"
#include "cms/cache_manager.h"
#include "cms/cms.h"
#include "common/strings.h"
#include "obs/metrics.h"
#include "workload/generators.h"

namespace braid::cms {
namespace {

using caql::CaqlQuery;
using caql::ParseCaql;

CaqlQuery Q(const std::string& text) {
  auto r = ParseCaql(text);
  EXPECT_TRUE(r.ok()) << text << ": " << r.status().ToString();
  return r.value();
}

CacheElementPtr MakeElement(const std::string& id, const std::string& def,
                            size_t rows, bool derived = false) {
  auto ext = std::make_shared<rel::Relation>(
      id, rel::Schema::FromNames({"x", "y"}));
  for (size_t i = 0; i < rows; ++i) {
    ext->AppendUnchecked({rel::Value::Int(static_cast<int64_t>(i)),
                          rel::Value::Int(static_cast<int64_t>(i * 2))});
  }
  auto e = std::make_shared<CacheElement>(id, Q(def), ext);
  e->set_derived(derived);
  return e;
}

// ---------------------------------------------------------------------------
// The admission gate in isolation.

TEST(IntermediateGate, OversizedRejected) {
  CacheManager mgr(1 << 20, 4, /*intermediate_budget_fraction=*/0.25);
  ASSERT_EQ(mgr.intermediate_budget_bytes(), (1u << 20) / 4);
  // Far over the slice; enormous benefit must not rescue it.
  auto v = mgr.JudgeIntermediate(mgr.intermediate_budget_bytes() + 1,
                                 /*tuples=*/10, /*recompute_ms=*/1e6,
                                 /*predicted_distance=*/size_t{1},
                                 /*local_per_tuple_ms=*/0.01);
  EXPECT_FALSE(v.admit);
  EXPECT_STREQ(v.reason, "oversized");
  EXPECT_EQ(mgr.stats().intermediates_rejected, 1u);
  EXPECT_EQ(mgr.stats().intermediates_admitted, 0u);
}

TEST(IntermediateGate, NeverReusedCheapStageRejected) {
  CacheManager mgr(1 << 20, 4);
  // Recomputation costs exactly one scan of the result: with no reuse
  // prediction the benefit is halved, so keeping it can never pay off.
  auto v = mgr.JudgeIntermediate(/*bytes=*/1024, /*tuples=*/100,
                                 /*recompute_ms=*/1.0,
                                 /*predicted_distance=*/std::nullopt,
                                 /*local_per_tuple_ms=*/0.01);
  EXPECT_FALSE(v.admit);
  EXPECT_STREQ(v.reason, "low-benefit");
  EXPECT_DOUBLE_EQ(v.cost_ms, 1.0);
  EXPECT_DOUBLE_EQ(v.benefit_ms, 0.5);
  EXPECT_EQ(mgr.stats().intermediates_rejected, 1u);
}

TEST(IntermediateGate, ExpensiveReusableStageAdmitted) {
  CacheManager mgr(1 << 20, 4);
  // Ten scans' worth of recomputation, predicted back within the horizon.
  auto v = mgr.JudgeIntermediate(/*bytes=*/1024, /*tuples=*/100,
                                 /*recompute_ms=*/10.0,
                                 /*predicted_distance=*/size_t{2},
                                 /*local_per_tuple_ms=*/0.01);
  EXPECT_TRUE(v.admit);
  EXPECT_STREQ(v.reason, "admit");
  EXPECT_DOUBLE_EQ(v.benefit_ms, 10.0);  // full reuse credit inside horizon
  EXPECT_EQ(mgr.stats().intermediates_admitted, 1u);
  EXPECT_EQ(mgr.stats().intermediates_rejected, 0u);
}

TEST(IntermediateGate, PredictedReuseDecaysBeyondHorizon) {
  CacheManager mgr(1 << 20, /*replacement_horizon=*/4);
  auto near = mgr.JudgeIntermediate(1024, 100, 10.0, size_t{4}, 0.01);
  auto far = mgr.JudgeIntermediate(1024, 100, 10.0, size_t{9}, 0.01);
  EXPECT_TRUE(near.admit);
  EXPECT_LT(far.benefit_ms, near.benefit_ms);
  // (horizon+1)/(d+1) = 5/10 at distance 9.
  EXPECT_DOUBLE_EQ(far.benefit_ms, 5.0);
}

// ---------------------------------------------------------------------------
// The derived budget slice and eviction ordering.

TEST(IntermediateSlice, DerivedBytesStayWithinSlice) {
  const size_t element_bytes =
      MakeElement("probe", "p(X, Y) :- b(X, Y)", 32, true)->ByteSize();
  // Slice fits ~2.5 derived elements; the whole budget fits 10.
  CacheManager mgr(element_bytes * 10, 4, /*fraction=*/0.25);
  for (int i = 0; i < 6; ++i) {
    auto e = MakeElement(StrCat("D", i), StrCat("d", i, "(X, Y) :- b(X, Y)"),
                         32, /*derived=*/true);
    EXPECT_TRUE(mgr.InsertIntermediate(std::move(e)));
    mgr.Tick();
    EXPECT_LE(mgr.DerivedBytes(), mgr.intermediate_budget_bytes());
  }
  // Six inserts into a 2-element slice: at least four derived evictions,
  // all counted on both the derived and the global eviction counters.
  EXPECT_GE(mgr.stats().intermediates_evicted, 4u);
  EXPECT_GE(mgr.stats().evictions, mgr.stats().intermediates_evicted);
}

TEST(IntermediateEviction, DerivedEvictedBeforeAdvisedElements) {
  const size_t element_bytes =
      MakeElement("probe", "p(X, Y) :- b(X, Y)", 32)->ByteSize();
  CacheManager mgr(element_bytes * 3 + element_bytes / 2, 4, /*fraction=*/1.0);
  // The advisor protects the advised view (needed immediately) and has no
  // prediction for anything else.
  mgr.set_replacement_advisor([](const CacheElement& e) {
    return e.id() == "advised" ? std::optional<size_t>(0) : std::nullopt;
  });

  ASSERT_TRUE(mgr.Insert(MakeElement("advised", "a(X, Y) :- b1(X, Y)", 32)));
  mgr.Tick();
  auto derived =
      MakeElement("derived", "d(X, Y) :- b2(X, Y)", 32, /*derived=*/true);
  ASSERT_TRUE(mgr.InsertIntermediate(derived));
  mgr.Tick();
  // Make the derived element the most recently used: plain LRU would now
  // pick `advised` as the victim; the derived-first rank must not.
  mgr.Touch(*derived);
  mgr.Tick();
  ASSERT_TRUE(mgr.Insert(MakeElement("E3", "c(X, Y) :- b3(X, Y)", 32)));
  ASSERT_TRUE(mgr.Insert(MakeElement("E4", "e(X, Y) :- b4(X, Y)", 32)));

  EXPECT_EQ(mgr.model().Find("derived"), nullptr);
  EXPECT_NE(mgr.model().Find("advised"), nullptr);
  EXPECT_GE(mgr.stats().intermediates_evicted, 1u);
}

// ---------------------------------------------------------------------------
// End to end through the CMS: the bench_intermediates shared-core shape.

struct GenealogyCms {
  explicit GenealogyCms(bool intermediates) {
    workload::GenealogyParams params;
    params.people = 300;
    remote = std::make_unique<dbms::RemoteDbms>(
        workload::MakeGenealogyDatabase(params), dbms::NetworkModel{},
        dbms::DbmsCostModel{});
    CmsConfig config;
    config.enable_intermediates = intermediates;
    config.enable_advice = false;
    config.enable_prefetch = false;
    config.enable_generalization = false;
    config.enable_parallel = false;  // deterministic modeled times
    cms = std::make_unique<Cms>(remote.get(), config);
  }

  double Ask(const std::string& text) {
    auto a = cms->Query(Q(text));
    EXPECT_TRUE(a.ok()) << text << ": " << a.status().ToString();
    return a.ok() ? a->response_ms : 0;
  }

  // Warm base relations, then evaluate the expensive ancestor-chain core
  // once; its head projects the interface variable G away, so only a
  // derived join stage (which keeps G) can serve the followers.
  void WarmAndSeed() {
    Ask("warm_parent(C, P) :- parent(C, P)");
    Ask("warm_person(I, A, C) :- person(I, A, C)");
    Ask("seed(X) :- parent(X, P) & parent(P, G) & person(G, A, C) & A >= 97");
  }

  size_t DerivedElements() const {
    size_t n = 0;
    for (const auto& [id, e] : cms->cache().model().elements()) {
      if (e->is_derived()) ++n;
    }
    return n;
  }

  std::unique_ptr<dbms::RemoteDbms> remote;
  std::unique_ptr<Cms> cms;
};

TEST(CmsIntermediates, SeedStageServesFollowerWithoutRemoteWork) {
  GenealogyCms on(/*intermediates=*/true);
  on.WarmAndSeed();
  EXPECT_GE(on.DerivedElements(), 1u);
  ASSERT_EQ(on.cms->cache().model().CheckCatalogConsistency(), "");

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  const uint64_t hits_before = reg.counter("intermediate.hits").value();
  const size_t remote_before = on.remote->stats().queries;
  const double on_ms =
      on.Ask("t0(X, G) :- parent(X, P) & parent(P, G) & person(G, A, C)"
             " & A >= 97 & person(X, 0, CX)");
  // Quiescent CMS (no prefetch, no sessions): the follower must answer
  // from cache alone, through the seed's derived join stage.
  EXPECT_EQ(on.remote->stats().queries, remote_before);
  EXPECT_GE(reg.counter("intermediate.hits").value(), hits_before + 1);

  // Same follower with the gate off recomputes the chain from the warm
  // base relations; modeled times are deterministic, so the reuse win is a
  // hard bound, not a flaky timing assertion.
  GenealogyCms off(/*intermediates=*/false);
  off.WarmAndSeed();
  EXPECT_EQ(off.DerivedElements(), 0u);
  const double off_ms =
      off.Ask("t0(X, G) :- parent(X, P) & parent(P, G) & person(G, A, C)"
              " & A >= 97 & person(X, 0, CX)");
  EXPECT_GT(off_ms, on_ms * 1.5);
}

TEST(CmsIntermediates, DisabledConfigAdmitsNothing) {
  GenealogyCms off(/*intermediates=*/false);
  off.WarmAndSeed();
  EXPECT_EQ(off.DerivedElements(), 0u);
  EXPECT_EQ(off.cms->cache().stats().intermediates_admitted, 0u);
  EXPECT_EQ(off.cms->cache().stats().intermediates_rejected, 0u);
}

// Regression (difftest seed 92): a stage bound from a cached element whose
// definition carries its own comparison was offered with only the covered
// atoms — claiming all of b(A, A) while actually holding b(A, A) & A < 7 —
// and a later unrestricted query served from it lost rows. The stage view
// must carry the element's comparisons rewritten into query variables.
TEST(CmsIntermediates, ElementSourceComparisonsCarriedIntoStageView) {
  dbms::Database db;
  rel::Relation b("b", rel::Schema::FromNames({"x", "y"}));
  b.AppendUnchecked({rel::Value::Int(5), rel::Value::Int(5)});
  b.AppendUnchecked({rel::Value::Int(9), rel::Value::Int(9)});
  b.AppendUnchecked({rel::Value::Int(1), rel::Value::Int(2)});
  rel::Relation c("c", rel::Schema::FromNames({"x", "z"}));
  for (int i = 0; i < 12; ++i) {
    c.AppendUnchecked({rel::Value::Int(i), rel::Value::Int(i * 3)});
  }
  BRAID_CHECK_OK(db.AddTable(std::move(b)));
  BRAID_CHECK_OK(db.AddTable(std::move(c)));
  dbms::RemoteDbms remote(std::move(db));
  CmsConfig config;
  config.enable_prefetch = false;
  Cms cms(&remote, config);

  // Cache the restricted view, then a join whose b-atom it subsumes (the
  // query's X < 6 implies the element's X < 7, so the match is legal and
  // the bind stage holds b(X, X) & X < 7 — not all of b(X, X)).
  ASSERT_TRUE(cms.Query(Q("w(X, Y) :- b(X, Y) & X < 7")).ok());
  ASSERT_TRUE(cms.Query(Q("j(X, Z) :- b(X, X) & c(X, Z) & X < 6")).ok());

  // The unrestricted self-join must still see (5,5) AND (9,9): a derived
  // stage claiming plain b(X, X) would drop the 9.
  auto a = cms.Query(Q("q(X) :- b(X, X)"));
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->relation->NumTuples(), 2u);
}

// ---------------------------------------------------------------------------
// Concurrent sessions racing installs of the same stages (TSan target).

TEST(IntermediatesSessions, ConcurrentSharedCoreQueries) {
  workload::GenealogyParams params;
  params.people = 200;
  dbms::RemoteDbms remote(workload::MakeGenealogyDatabase(params),
                          dbms::NetworkModel{}, dbms::DbmsCostModel{});
  CmsConfig config;
  config.enable_intermediates = true;
  config.enable_advice = false;
  config.enable_generalization = false;
  config.num_threads = 4;
  Cms cms(&remote, config);

  constexpr size_t kSessions = 4;
  constexpr size_t kPerSession = 6;
  std::vector<CmsSession*> sessions;
  for (size_t s = 0; s < kSessions; ++s) sessions.push_back(cms.OpenSession());

  // Every session races the same shared core (identical stage keys, so
  // installs collide on ByCanonicalKey and the derived slice) plus a
  // private selection per query.
  std::vector<std::thread> drivers;
  drivers.reserve(kSessions);
  for (size_t s = 0; s < kSessions; ++s) {
    drivers.emplace_back([&cms, &sessions, s] {
      for (size_t i = 0; i < kPerSession; ++i) {
        CaqlQuery q = Q(StrCat("c", s, "_", i,
                               "(X, G) :- parent(X, P) & parent(P, G)",
                               " & person(G, A, C) & A >= 90",
                               " & person(X, ", (s * kPerSession + i) % 100,
                               ", CX)"));
        auto answer = cms.QueryAsync(*sessions[s], q).get();
        EXPECT_TRUE(answer.ok()) << answer.status().ToString();
      }
    });
  }
  for (std::thread& t : drivers) t.join();
  cms.DrainSessions();
  cms.DrainPrefetches();

  // The catalog/stripe invariant holds over derived elements too, and the
  // derived slice never overflows its budget.
  EXPECT_EQ(cms.cache().model().CheckCatalogConsistency(), "");
  EXPECT_LE(cms.cache().DerivedBytes(),
            cms.cache().intermediate_budget_bytes());
  for (CmsSession* s : sessions) cms.CloseSession(s);
}

}  // namespace
}  // namespace braid::cms
