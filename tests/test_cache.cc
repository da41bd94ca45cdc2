// Unit tests for cache elements, the cache model, and the cache manager's
// replacement policy (LRU modified by advice, paper §5.4).

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "caql/caql_query.h"
#include "cms/cache_manager.h"

namespace braid::cms {
namespace {

using caql::ParseCaql;

CacheElementPtr MakeElement(const std::string& id, const std::string& def,
                            size_t rows, const std::string& origin = "") {
  auto q = ParseCaql(def);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  auto ext = std::make_shared<rel::Relation>(
      id, rel::Schema::FromNames({"x", "y"}));
  for (size_t i = 0; i < rows; ++i) {
    ext->AppendUnchecked({rel::Value::Int(static_cast<int64_t>(i)),
                          rel::Value::Int(static_cast<int64_t>(i * 2))});
  }
  auto e = std::make_shared<CacheElement>(id, q.value(), ext);
  e->set_origin_view(origin);
  return e;
}

CacheElementPtr MakeDerived(const std::string& id, const std::string& def,
                            size_t rows) {
  CacheElementPtr e = MakeElement(id, def, rows);
  e->set_derived(true);
  return e;
}

TEST(CacheElement, MaterializedVsGenerator) {
  auto m = MakeElement("E1", "d(X, Y) :- b(X, Y)", 3);
  EXPECT_TRUE(m->is_materialized());
  CacheElement g("E2", ParseCaql("d(X, Y) :- b(X, Y)").value());
  EXPECT_FALSE(g.is_materialized());
  EXPECT_LT(g.ByteSize(), m->ByteSize());
}

TEST(CacheElement, EnsureIndexBuildsOnce) {
  auto e = MakeElement("E1", "d(X, Y) :- b(X, Y)", 10);
  auto i1 = e->EnsureIndex(0);
  ASSERT_NE(i1, nullptr);
  auto i2 = e->EnsureIndex(0);
  EXPECT_EQ(i1.get(), i2.get());
  EXPECT_EQ(e->index(1), nullptr);
  EXPECT_EQ(e->index(0), i1);
}

TEST(CacheElement, IndexCountsTowardByteSize) {
  auto e = MakeElement("E1", "d(X, Y) :- b(X, Y)", 50);
  const size_t before = e->ByteSize();
  e->EnsureIndex(0);
  EXPECT_GT(e->ByteSize(), before);
}

TEST(CacheModel, RegisterFindRemove) {
  CacheModel model;
  EXPECT_EQ(model.NextId(), "E1");
  EXPECT_EQ(model.NextId(), "E2");
  auto e = MakeElement("E1", "d(X, Y) :- b1(X, Y)", 2);
  model.Register(e);
  EXPECT_NE(model.Find("E1"), nullptr);
  EXPECT_EQ(model.Find("E9"), nullptr);
  EXPECT_GT(model.Remove(*e), 0u);
  EXPECT_EQ(model.Find("E1"), nullptr);
  EXPECT_EQ(model.Remove(*e), 0u);  // No longer resident: frees nothing.
}

TEST(CacheModel, PredicateIndex) {
  CacheModel model;
  model.Register(MakeElement("E1", "d(X, Y) :- b1(X, Z) & b2(Z, Y)", 2));
  model.Register(MakeElement("E2", "e(X, Y) :- b2(X, Y)", 2));
  EXPECT_EQ(model.ByPredicate("b1").size(), 1u);
  EXPECT_EQ(model.ByPredicate("b2").size(), 2u);
  EXPECT_EQ(model.ByPredicate("zz").size(), 0u);
  model.Remove(*model.Find("E1"));
  EXPECT_EQ(model.ByPredicate("b2").size(), 1u);
  EXPECT_EQ(model.ByPredicate("b1").size(), 0u);
}

TEST(CacheModel, CanonicalKeyLookup) {
  CacheModel model;
  auto e = MakeElement("E1", "d(X, Y) :- b(X, Y)", 2);
  model.Register(e);
  const caql::QueryKey key = ParseCaql("d(P, Q) :- b(P, Q)").value().Key();
  EXPECT_EQ(model.ByCanonicalKey(key), e);
  EXPECT_EQ(model.ByCanonicalKey(caql::QueryKey::Of("nope")), nullptr);
}

TEST(CacheModel, ExactProbeConfirmsTheKeyText) {
  CacheModel model;
  auto e = MakeElement("E1", "d(X, Y) :- b(X, Y)", 2);
  model.Register(e);
  EXPECT_EQ(model.ByCanonicalKey(e->key()), e);
  // Same hash, different text: a colliding key must miss.
  caql::QueryKey colliding = e->key();
  colliding.text += "&b(V0,V1)";
  EXPECT_EQ(model.ByCanonicalKey(colliding), nullptr);
  // Removal takes the element out of the index.
  model.Remove(*e);
  EXPECT_EQ(model.ByCanonicalKey(e->key()), nullptr);
}

TEST(CacheModelConcurrency, InPlaceReadsRaceWithWrites) {
  CacheModel model;
  constexpr int kWriters = 4;
  constexpr int kReaders = 3;
  constexpr int kOps = 400;
  const QueryDescriptor probe =
      DescribeQuery(ParseCaql("q(X, Y) :- b1(X, Y) & X > 7").value());
  std::atomic<int> waiting{kWriters + kReaders};
  std::atomic<int> writers_left{kWriters};
  std::atomic<size_t> wrong{0};
  // Every thread starts once all have started, so reads overlap writes.
  auto start_together = [&waiting] {
    waiting.fetch_sub(1, std::memory_order_acq_rel);
    while (waiting.load(std::memory_order_acquire) > 0) {
      std::this_thread::yield();
    }
  };
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&model, &writers_left, &start_together, w] {
      start_together();
      std::vector<CacheElementPtr> live;
      for (int i = 0; i < kOps; ++i) {
        // Definitions repeat across writers, so writers share stripes and
        // displace each other's same-key elements; half of the range
        // conditions admit the probe.
        const std::string c = std::to_string((w + i) % 16);
        const std::string b = std::to_string((w + i) % 3);
        const std::string def =
            i % 3 == 0 ? "e" + c + "(X, Y) :- b" + b + "(X, Y)"
                       : "d" + c + "(X, Y) :- b1(X, Y) & X > " + c;
        live.push_back(MakeElement(model.NextId(), def, 4));
        model.Register(live.back());
        if (i % 2 == 1) {
          model.Remove(*live.front());
          live.erase(live.begin());
        }
      }
      writers_left.fetch_sub(1, std::memory_order_acq_rel);
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&model, &writers_left, &wrong, &probe,
                          &start_together] {
      start_together();
      while (writers_left.load(std::memory_order_acquire) > 0) {
        for (const CacheElementPtr& e : model.SubsumptionCandidates(probe)) {
          if (!SignatureAdmits(ComputeSignature(e->definition()), probe)) {
            wrong.fetch_add(1, std::memory_order_relaxed);
          }
        }
        for (const CacheElementPtr& e : model.ByPredicate("b1")) {
          if (e->definition().RelationAtoms()[0].predicate != "b1") {
            wrong.fetch_add(1, std::memory_order_relaxed);
          }
        }
        model.HasMaterializedFor("b2");
        for (const CacheElementPtr& e : model.ResidentElements()) {
          const CacheElementPtr found = model.Find(e->id());
          if (found != nullptr && found != e) {
            wrong.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_EQ(model.ResidentElements().size(), model.size());
  EXPECT_EQ(model.CheckCatalogConsistency(), "");
  EXPECT_EQ(model.CheckByteAccounting(), "");
}

TEST(CacheManager, InsertWithinBudget) {
  CacheManager mgr(1 << 20, 4);
  EXPECT_TRUE(mgr.Insert(MakeElement("E1", "d(X, Y) :- b(X, Y)", 10)));
  EXPECT_EQ(mgr.stats().insertions, 1u);
  EXPECT_EQ(mgr.stats().evictions, 0u);
}

TEST(CacheManager, OversizedElementRejected) {
  CacheManager mgr(256, 4);
  EXPECT_FALSE(mgr.Insert(MakeElement("E1", "d(X, Y) :- b(X, Y)", 1000)));
  EXPECT_EQ(mgr.stats().rejected_too_large, 1u);
  EXPECT_EQ(mgr.model().size(), 0u);
}

TEST(CacheManager, EvictsLruWhenFull) {
  // Budget for roughly two elements of 20 rows.
  auto probe = MakeElement("P", "d(X, Y) :- b(X, Y)", 20);
  const size_t budget = probe->ByteSize() * 2 + 64;
  CacheManager mgr(budget, 4);
  auto e1 = MakeElement("E1", "d1(X, Y) :- b1(X, Y)", 20);
  ASSERT_TRUE(mgr.Insert(e1));
  mgr.Tick();
  ASSERT_TRUE(mgr.Insert(MakeElement("E2", "d2(X, Y) :- b2(X, Y)", 20)));
  mgr.Tick();
  mgr.Touch(*e1);  // E1 now more recently used than E2.
  mgr.Tick();
  ASSERT_TRUE(mgr.Insert(MakeElement("E3", "d3(X, Y) :- b3(X, Y)", 20)));
  EXPECT_EQ(mgr.stats().evictions, 1u);
  EXPECT_EQ(mgr.model().Find("E2"), nullptr);  // LRU victim.
  EXPECT_NE(mgr.model().Find("E1"), nullptr);
  EXPECT_NE(mgr.model().Find("E3"), nullptr);
}

TEST(CacheManager, AdviceProtectsPredictedElement) {
  auto probe = MakeElement("P", "d(X, Y) :- b(X, Y)", 20);
  const size_t budget = probe->ByteSize() * 2 + 64;
  CacheManager mgr(budget, 4);
  // E1 is predicted to be needed soon; E2 is not, despite being more
  // recently used.
  mgr.set_replacement_advisor(
      [](const CacheElement& e) -> std::optional<size_t> {
        if (e.origin_view() == "d1") return 1;   // needed soon
        return std::nullopt;                     // unknown
      });
  ASSERT_TRUE(mgr.Insert(MakeElement("E1", "d1(X, Y) :- b1(X, Y)", 20, "d1")));
  mgr.Tick();
  auto e2 = MakeElement("E2", "d2(X, Y) :- b2(X, Y)", 20, "d2");
  ASSERT_TRUE(mgr.Insert(e2));
  mgr.Tick();
  mgr.Touch(*e2);
  mgr.Tick();
  ASSERT_TRUE(mgr.Insert(MakeElement("E3", "d3(X, Y) :- b3(X, Y)", 20, "d3")));
  // Plain LRU would evict E1 (least recently used); advice protects it.
  EXPECT_NE(mgr.model().Find("E1"), nullptr);
  EXPECT_EQ(mgr.model().Find("E2"), nullptr);
}

TEST(CacheManager, TouchUpdatesHitCount) {
  CacheManager mgr(1 << 20, 4);
  auto e1 = MakeElement("E1", "d(X, Y) :- b(X, Y)", 5);
  ASSERT_TRUE(mgr.Insert(e1));
  mgr.Touch(*e1);
  mgr.Touch(*e1);
  EXPECT_EQ(mgr.model().Find("E1")->stats().hits, 2u);
}

TEST(CacheManager, MultipleEvictionsToFit) {
  auto probe = MakeElement("P", "d(X, Y) :- b(X, Y)", 10);
  const size_t budget = probe->ByteSize() * 3 + 64;
  CacheManager mgr(budget, 4);
  ASSERT_TRUE(mgr.Insert(MakeElement("E1", "d1(X, Y) :- b1(X, Y)", 10)));
  ASSERT_TRUE(mgr.Insert(MakeElement("E2", "d2(X, Y) :- b2(X, Y)", 10)));
  ASSERT_TRUE(mgr.Insert(MakeElement("E3", "d3(X, Y) :- b3(X, Y)", 10)));
  // An element of double size needs two evictions.
  ASSERT_TRUE(mgr.Insert(MakeElement("E4", "d4(X, Y) :- b4(X, Y)", 20)));
  EXPECT_GE(mgr.stats().evictions, 1u);
  size_t total = mgr.model().TotalBytes();
  EXPECT_LE(total, budget);
}

TEST(CacheManager, AdvisorConsultedOncePerElementPerPass) {
  auto probe = MakeElement("P", "d(X, Y) :- b(X, Y)", 10);
  const size_t budget = probe->ByteSize() * 4 + 64;
  CacheManager mgr(budget, 4);
  size_t advisor_calls = 0;
  // Distinct unprotected distances: E1 farthest (best victim), E4
  // nearest. The advisor models an expensive NFA reachability search, so
  // the manager must consult it once per element per eviction pass — not
  // on both sides of every sort comparison.
  mgr.set_replacement_advisor(
      [&advisor_calls](const CacheElement& e) -> std::optional<size_t> {
        ++advisor_calls;
        return static_cast<size_t>(10 - (e.id().back() - '0'));
      });
  for (int i = 1; i <= 4; ++i) {
    const std::string n = std::to_string(i);
    ASSERT_TRUE(mgr.Insert(
        MakeElement("E" + n, "d" + n + "(X, Y) :- b" + n + "(X, Y)", 10)));
    mgr.Tick();
  }
  advisor_calls = 0;
  // Double-size element: two evictions in one MakeRoom pass.
  ASSERT_TRUE(mgr.Insert(MakeElement("E5", "d5(X, Y) :- b5(X, Y)", 20)));
  EXPECT_EQ(advisor_calls, 4u);
  EXPECT_EQ(mgr.stats().evictions, 2u);
  // Deterministic victim order: farthest predicted distance first.
  EXPECT_EQ(mgr.model().Find("E1"), nullptr);
  EXPECT_EQ(mgr.model().Find("E2"), nullptr);
  EXPECT_NE(mgr.model().Find("E3"), nullptr);
  EXPECT_NE(mgr.model().Find("E4"), nullptr);
  EXPECT_NE(mgr.model().Find("E5"), nullptr);
}

TEST(CacheManager, EvictionOrderDeterministicUnderAdvisorTies) {
  // Identical advisor answers and last-used sequence: the element id is
  // the final tie-break, so repeated runs evict the same victims.
  auto run = [] {
    auto probe = MakeElement("P", "d(X, Y) :- b(X, Y)", 10);
    const size_t budget = probe->ByteSize() * 3 + 64;
    CacheManager mgr(budget, 4);
    mgr.set_replacement_advisor(
        [](const CacheElement&) -> std::optional<size_t> { return 7; });
    ASSERT_TRUE(mgr.Insert(MakeElement("E1", "d1(X, Y) :- b1(X, Y)", 10)));
    ASSERT_TRUE(mgr.Insert(MakeElement("E2", "d2(X, Y) :- b2(X, Y)", 10)));
    ASSERT_TRUE(mgr.Insert(MakeElement("E3", "d3(X, Y) :- b3(X, Y)", 10)));
    ASSERT_TRUE(mgr.Insert(MakeElement("E4", "d4(X, Y) :- b4(X, Y)", 10)));
    EXPECT_EQ(mgr.model().Find("E1"), nullptr);  // smallest id among ties
    EXPECT_NE(mgr.model().Find("E2"), nullptr);
    EXPECT_NE(mgr.model().Find("E3"), nullptr);
    EXPECT_NE(mgr.model().Find("E4"), nullptr);
  };
  run();
  run();
}

// --- Byte accounting: the model's totals against the recount ----------

TEST(CacheByteAccounting, MemoizedSizeMatchesRecount) {
  auto e = MakeElement("E1", "d(X, Y) :- b(X, Y)", 40);
  EXPECT_EQ(e->ByteSize(), e->ComputeByteSize());
  e->EnsureIndex(0);
  e->EnsureSorted({1});
  EXPECT_EQ(e->ByteSize(), e->ComputeByteSize());
  CacheElement generator("G1", ParseCaql("d(X, Y) :- b(X, Y)").value());
  EXPECT_EQ(generator.ByteSize(), generator.ComputeByteSize());
}

TEST(CacheByteAccounting, ReRegisteringTheSameIdReplacesItsCharge) {
  CacheModel model;
  auto first = MakeElement("E1", "d(X, Y) :- b1(X, Y)", 5);
  model.Register(first);
  model.Register(first);  // the same element again: charged once
  EXPECT_EQ(model.TotalBytes(), first->ByteSize());
  // Same id and definition, a rebuilt element: it displaces the first.
  auto second = MakeElement("E1", "d(X, Y) :- b1(X, Y)", 9);
  model.Register(second);
  EXPECT_EQ(model.size(), 1u);
  EXPECT_EQ(model.TotalBytes(), second->ByteSize());
  // The replaced element no longer charges the model.
  first->EnsureIndex(0);
  EXPECT_EQ(model.TotalBytes(), second->ByteSize());
  EXPECT_EQ(model.CheckByteAccounting(), "");
}

TEST(CacheByteAccounting, DisplacingTheSameCanonicalKeyDischarges) {
  CacheModel model;
  auto earlier = MakeElement("E1", "d(X, Y) :- b(X, Y)", 5);
  auto later = MakeElement("E2", "d(P, Q) :- b(P, Q)", 7);
  model.Register(earlier);
  model.Register(later);
  EXPECT_EQ(model.Find("E1"), nullptr);
  EXPECT_EQ(model.Remove(*earlier), 0u);  // displaced: frees nothing
  EXPECT_EQ(model.size(), 1u);
  EXPECT_EQ(model.TotalBytes(), later->ByteSize());
  EXPECT_EQ(model.CheckByteAccounting(), "");
}

TEST(CacheByteAccounting, DerivedAndPlainTotalsThroughMakeRoomDerived) {
  auto probe = MakeElement("P", "d(X, Y) :- b(X, Y)", 10);
  // Room for four elements, two of them in the derived slice.
  CacheManager mgr(probe->ByteSize() * 4 + 64, 4, 0.5);
  auto plain = MakeElement("E1", "d1(X, Y) :- b1(X, Y)", 10);
  ASSERT_TRUE(mgr.Insert(plain));
  std::vector<CacheElementPtr> derived;
  for (int i = 2; i <= 4; ++i) {
    const std::string n = std::to_string(i);
    derived.push_back(
        MakeDerived("E" + n, "d" + n + "(X, Y) :- b" + n + "(X, Y)", 10));
    ASSERT_TRUE(mgr.InsertIntermediate(derived.back()));
    mgr.Tick();
  }
  // The third derived element pushed the least recently used one out.
  EXPECT_EQ(mgr.stats().intermediates_evicted, 1u);
  EXPECT_EQ(mgr.model().Find("E2"), nullptr);
  const size_t derived_bytes = derived[1]->ByteSize() + derived[2]->ByteSize();
  EXPECT_EQ(mgr.DerivedBytes(), derived_bytes);
  EXPECT_EQ(mgr.model().TotalBytes(), plain->ByteSize() + derived_bytes);
  EXPECT_EQ(mgr.model().CheckByteAccounting(), "");
}

TEST(CacheByteAccounting, GrowthThenEvictionRestoresBothTotals) {
  CacheManager mgr(1 << 20, 4);
  ASSERT_TRUE(mgr.Insert(MakeElement("E1", "d1(X, Y) :- b1(X, Y)", 10)));
  ASSERT_TRUE(mgr.InsertIntermediate(MakeDerived("E2", "d2(X, Y) :- b2(X, Y)", 10)));
  const size_t total_before = mgr.model().TotalBytes();
  const size_t derived_before = mgr.DerivedBytes();

  auto e = MakeDerived("E3", "d3(X, Y) :- b3(X, Y)", 30);
  const size_t installed = e->ByteSize();
  ASSERT_TRUE(mgr.InsertIntermediate(e));
  EXPECT_EQ(mgr.model().TotalBytes(), total_before + installed);
  EXPECT_EQ(mgr.DerivedBytes(), derived_before + installed);

  // Representations built after install count against the budget.
  e->EnsureIndex(0);
  ASSERT_NE(mgr.EnsureSorted(e, {1}), nullptr);
  EXPECT_EQ(e->NumSortedRepresentations(), 1u);
  const size_t grown = e->ByteSize();
  EXPECT_GT(grown, installed);
  EXPECT_EQ(mgr.model().TotalBytes(), total_before + grown);
  EXPECT_EQ(mgr.DerivedBytes(), derived_before + grown);
  EXPECT_EQ(mgr.model().CheckByteAccounting(), "");

  // Evicting the element frees everything it was charged.
  EXPECT_EQ(mgr.model().Remove(*e), grown);
  EXPECT_EQ(mgr.model().TotalBytes(), total_before);
  EXPECT_EQ(mgr.DerivedBytes(), derived_before);
  EXPECT_EQ(mgr.model().CheckByteAccounting(), "");
}

TEST(CacheByteAccounting, SortedCopyMakesRoomButNeverEvictsItsElement) {
  auto probe = MakeElement("P", "d(X, Y) :- b(X, Y)", 10);
  CacheManager mgr(probe->ByteSize() * 2 + 64, 4);
  auto other = MakeElement("E1", "d1(X, Y) :- b1(X, Y)", 10);
  auto e = MakeElement("E2", "d2(X, Y) :- b2(X, Y)", 10);
  ASSERT_TRUE(mgr.Insert(other));
  ASSERT_TRUE(mgr.Insert(e));
  // The copy fits once E1 is evicted.
  ASSERT_NE(mgr.EnsureSorted(e, {1}), nullptr);
  EXPECT_EQ(mgr.model().Find("E1"), nullptr);
  EXPECT_NE(mgr.model().Find("E2"), nullptr);
  EXPECT_EQ(e->NumSortedRepresentations(), 1u);
  EXPECT_LE(mgr.model().TotalBytes(), mgr.budget_bytes());
  // A second ordering cannot fit beside the first: served, not kept.
  auto by_x = mgr.EnsureSorted(e, {0});
  ASSERT_NE(by_x, nullptr);
  EXPECT_EQ(by_x->NumTuples(), 10u);
  EXPECT_EQ(e->NumSortedRepresentations(), 1u);
  EXPECT_LE(mgr.model().TotalBytes(), mgr.budget_bytes());
  EXPECT_EQ(mgr.model().CheckByteAccounting(), "");
}

TEST(CacheByteAccounting, ConcurrentInsertEvictSortKeepsTotalsExact) {
  auto probe = MakeElement("P", "d(X, Y) :- b(X, Y)", 16);
  CacheManager mgr(probe->ByteSize() * 6, 4);
  constexpr int kThreads = 4;
  constexpr int kOps = 150;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&mgr, t] {
      for (int i = 0; i < kOps; ++i) {
        // Names repeat, so installs also displace same-key elements.
        const std::string n = std::to_string(t) + "_" + std::to_string(i % 7);
        auto e = MakeElement(mgr.model().NextId(),
                             "d" + n + "(X, Y) :- b" + n + "(X, Y)", 16);
        if (i % 3 == 0) e->EnsureIndex(0);  // built before install
        if (i % 4 == 0) e->set_derived(true);
        mgr.Insert(e);
        mgr.EnsureSorted(e, {static_cast<size_t>(i % 2)});
        if (i % 5 == 0) mgr.model().Remove(*e);
        mgr.Tick();
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mgr.model().CheckByteAccounting(), "");
  EXPECT_LE(mgr.model().TotalBytes(), mgr.budget_bytes());
}

}  // namespace
}  // namespace braid::cms
