// Tests for §5.2: co-existing, alternative representations of the same
// relation — sorted copies alongside the extension and its hash indexes,
// and a single cached instance serving multiple uniquely named uses.

#include <gtest/gtest.h>

#include "caql/caql_query.h"
#include "cms/cms.h"

namespace braid::cms {
namespace {

using caql::ParseCaql;
using rel::Value;

dbms::Database TestDb() {
  dbms::Database db;
  rel::Relation b1("b1", rel::Schema::FromNames({"a", "b"}));
  b1.AppendUnchecked({Value::Int(3), Value::Int(30)});
  b1.AppendUnchecked({Value::Int(1), Value::Int(10)});
  b1.AppendUnchecked({Value::Int(2), Value::Int(20)});
  b1.AppendUnchecked({Value::Int(1), Value::Int(5)});
  BRAID_CHECK_OK(db.AddTable(std::move(b1)));
  return db;
}

CacheElementPtr MakeElement() {
  auto def = ParseCaql("e(X, Y) :- b1(X, Y)").value();
  auto ext = std::make_shared<rel::Relation>(
      "E1", rel::Schema::FromNames({"X", "Y"}));
  ext->AppendUnchecked({Value::Int(3), Value::Int(30)});
  ext->AppendUnchecked({Value::Int(1), Value::Int(10)});
  ext->AppendUnchecked({Value::Int(2), Value::Int(20)});
  return std::make_shared<CacheElement>("E1", def, ext);
}

TEST(AlternativeRepresentations, SortedCopyBuiltOnceAndShared) {
  CacheElementPtr e = MakeElement();
  auto s1 = e->EnsureSorted({0});
  ASSERT_NE(s1, nullptr);
  EXPECT_EQ(s1->tuple(0)[0], Value::Int(1));
  EXPECT_EQ(s1->tuple(2)[0], Value::Int(3));
  auto s2 = e->EnsureSorted({0});
  EXPECT_EQ(s1.get(), s2.get());  // one instance, two uses
  EXPECT_EQ(e->NumSortedRepresentations(), 1u);
}

TEST(AlternativeRepresentations, DifferentOrderingsCoexist) {
  CacheElementPtr e = MakeElement();
  auto by_x = e->EnsureSorted({0});
  auto by_y = e->EnsureSorted({1});
  ASSERT_NE(by_x, nullptr);
  ASSERT_NE(by_y, nullptr);
  EXPECT_NE(by_x.get(), by_y.get());
  EXPECT_EQ(e->NumSortedRepresentations(), 2u);
  // The unsorted extension is untouched.
  EXPECT_EQ(e->extension()->tuple(0)[0], Value::Int(3));
}

TEST(AlternativeRepresentations, SortedIndexedAndPlainShareOneElement) {
  CacheElementPtr e = MakeElement();
  const size_t base = e->ByteSize();
  e->EnsureIndex(0);
  const size_t with_index = e->ByteSize();
  e->EnsureSorted({1});
  const size_t with_both = e->ByteSize();
  EXPECT_GT(with_index, base);
  EXPECT_GT(with_both, with_index);  // representations cost budget
  EXPECT_NE(e->index(0), nullptr);
  EXPECT_NE(e->sorted({1}), nullptr);
}

TEST(AlternativeRepresentations, GeneratorFormHasNoSortedCopy) {
  auto def = ParseCaql("e(X, Y) :- b1(X, Y)").value();
  CacheElement generator("G1", def);
  EXPECT_EQ(generator.EnsureSorted({0}), nullptr);
}

TEST(QuerySorted, OrdersAnswer) {
  dbms::RemoteDbms remote(TestDb());
  Cms cms(&remote, CmsConfig{});
  auto q = ParseCaql("q(X, Y) :- b1(X, Y)").value();
  auto sorted = cms.QuerySorted(q, {"X", "Y"});
  ASSERT_TRUE(sorted.ok()) << sorted.status().ToString();
  ASSERT_EQ(sorted->NumTuples(), 4u);
  for (size_t i = 1; i < sorted->NumTuples(); ++i) {
    const auto& prev = sorted->tuple(i - 1);
    const auto& cur = sorted->tuple(i);
    const int c0 = prev[0].Compare(cur[0]);
    EXPECT_TRUE(c0 < 0 || (c0 == 0 && prev[1] <= cur[1]));
  }
}

TEST(QuerySorted, ReusesRepresentationOnExactRepeat) {
  dbms::RemoteDbms remote(TestDb());
  Cms cms(&remote, CmsConfig{});
  auto q = ParseCaql("q(X, Y) :- b1(X, Y)").value();
  ASSERT_TRUE(cms.QuerySorted(q, {"Y"}).ok());  // caches + sorts
  CacheElementPtr element =
      cms.cache().model().ByCanonicalKey(q.Key());
  ASSERT_NE(element, nullptr);
  EXPECT_EQ(element->NumSortedRepresentations(), 1u);
  auto before = element->sorted({1});
  ASSERT_TRUE(cms.QuerySorted(q, {"Y"}).ok());
  EXPECT_EQ(element->sorted({1}).get(), before.get());
  EXPECT_EQ(element->NumSortedRepresentations(), 1u);
}

/// `rows` rows of two ints: 32 bytes a row, 6464 bytes for 200.
dbms::Database WideDb(int rows) {
  dbms::Database db;
  rel::Relation b1("b1", rel::Schema::FromNames({"a", "b"}));
  for (int i = 0; i < rows; ++i) {
    b1.AppendUnchecked({Value::Int(i), Value::Int(rows - i)});
  }
  BRAID_CHECK_OK(db.AddTable(std::move(b1)));
  return db;
}

void ExpectSortedOnSecondColumn(const rel::Relation& r) {
  for (size_t i = 1; i < r.NumTuples(); ++i) {
    EXPECT_LE(r.tuple(i - 1)[1], r.tuple(i)[1]);
  }
}

// Regression: the sorted copy used to be kept on the resident element with
// no budget check. A 200-row answer (6592 bytes cached) plus its sorted
// copy (6464) left a 10 000-byte cache at 13 056 bytes with no insert in
// flight.
TEST(QuerySorted, SortedCopyThatDoesNotFitIsServedNotKept) {
  dbms::RemoteDbms remote(WideDb(200));
  CmsConfig config;
  config.cache_budget_bytes = 10000;
  Cms cms(&remote, config);
  auto q = ParseCaql("q(X, Y) :- b1(X, Y)").value();
  auto sorted = cms.QuerySorted(q, {"Y"});
  ASSERT_TRUE(sorted.ok()) << sorted.status().ToString();
  ASSERT_EQ(sorted->NumTuples(), 200u);
  ExpectSortedOnSecondColumn(*sorted);
  EXPECT_LE(cms.cache().model().TotalBytes(), 10000u);
  CacheElementPtr element =
      cms.cache().model().ByCanonicalKey(q.Key());
  ASSERT_NE(element, nullptr);  // the answer itself stays cached
  EXPECT_EQ(element->NumSortedRepresentations(), 0u);
  EXPECT_EQ(cms.cache().model().CheckByteAccounting(), "");
}

TEST(QuerySorted, MakesRoomForTheSortedCopyByEvictingOthers) {
  dbms::RemoteDbms remote(WideDb(200));
  CmsConfig config;
  config.cache_budget_bytes = 16000;
  Cms cms(&remote, config);
  auto other = ParseCaql("p(X) :- b1(X, Y)").value();  // 4992 bytes cached
  ASSERT_TRUE(cms.Query(other).ok());
  auto q = ParseCaql("q(X, Y) :- b1(X, Y)").value();
  auto sorted = cms.QuerySorted(q, {"Y"});
  ASSERT_TRUE(sorted.ok()) << sorted.status().ToString();
  ExpectSortedOnSecondColumn(*sorted);
  EXPECT_EQ(cms.cache().model().ByCanonicalKey(other.Key()),
            nullptr);
  CacheElementPtr element =
      cms.cache().model().ByCanonicalKey(q.Key());
  ASSERT_NE(element, nullptr);
  EXPECT_EQ(element->NumSortedRepresentations(), 1u);
  EXPECT_LE(cms.cache().model().TotalBytes(), 16000u);
  EXPECT_EQ(cms.cache().model().CheckByteAccounting(), "");
}

TEST(QuerySorted, RejectsNonHeadVariable) {
  dbms::RemoteDbms remote(TestDb());
  Cms cms(&remote, CmsConfig{});
  auto q = ParseCaql("q(X) :- b1(X, Y)").value();
  EXPECT_EQ(cms.QuerySorted(q, {"Y"}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SharedUse, IdenticalDefinitionsShareOneCachedInstance) {
  // §5.2: two uniquely named uses of the same relation — the CMS keeps a
  // single instance. Two queries identical up to renaming share a
  // canonical key, so the second is an exact hit on the first's element.
  dbms::RemoteDbms remote(TestDb());
  Cms cms(&remote, CmsConfig{});
  auto use1 = ParseCaql("q(X, Y) :- b1(X, Y)").value();
  auto use2 = ParseCaql("q(A, B) :- b1(A, B)").value();
  ASSERT_TRUE(cms.Query(use1).ok());
  const size_t elements_after_first = cms.cache().model().size();
  auto a2 = cms.Query(use2);
  ASSERT_TRUE(a2.ok());
  EXPECT_EQ(a2->outcome, CacheOutcome::kExact);
  EXPECT_EQ(cms.cache().model().size(), elements_after_first);
}

}  // namespace
}  // namespace braid::cms
