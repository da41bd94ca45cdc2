// Tests for the semantic catalog (DESIGN.md §11): signature computation,
// the admission pre-filter, its soundness against the real containment-
// mapping search, catalog/stripe consistency, the configurable mapping
// cap with truncation surfacing, and the interval-implication property
// the range filter relies on.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "caql/caql_query.h"
#include "cms/cache_model.h"
#include "cms/catalog.h"
#include "cms/planner.h"
#include "cms/subsumption.h"
#include "dbms/remote_dbms.h"
#include "obs/trace.h"
#include "relational/predicate.h"

namespace braid::cms {
namespace {

using caql::CaqlQuery;
using caql::ParseCaql;
using rel::CompareOp;
using rel::EvalCompare;
using rel::Value;

// Parses CAQL; a "SETOF " prefix sets the distinct flag (the parser has
// no surface syntax for it).
CaqlQuery Q(const std::string& text) {
  std::string body = text;
  bool distinct = false;
  if (body.rfind("SETOF ", 0) == 0) {
    distinct = true;
    body = body.substr(6);
  }
  auto r = ParseCaql(body);
  EXPECT_TRUE(r.ok()) << text << ": " << r.status().ToString();
  CaqlQuery q = r.value();
  q.distinct = distinct;
  return q;
}

CacheElementPtr MakeElement(const std::string& id, const std::string& def) {
  CaqlQuery q = Q(def);
  auto ext = std::make_shared<rel::Relation>(
      id, rel::Schema::FromNames(q.HeadVariables()));
  return std::make_shared<CacheElement>(id, q, ext);
}

// ---------------------------------------------------------------------------
// Signatures.

TEST(CatalogSignature, PlainConjunctiveView) {
  CatalogSignature sig = ComputeSignature(Q("v(X, Y) :- b1(X, Y) & b2(Y, Z)"));
  EXPECT_FALSE(sig.exact_only);
  EXPECT_FALSE(sig.distinct);
  ASSERT_EQ(sig.predicate_counts.size(), 2u);
  EXPECT_EQ(sig.predicate_counts[0].first, "b1");
  EXPECT_EQ(sig.predicate_counts[0].second, 1u);
  EXPECT_EQ(sig.predicate_counts[1].first, "b2");
  EXPECT_TRUE(sig.constants.empty());
  EXPECT_TRUE(sig.ranges.empty());
  EXPECT_NE(sig.predicate_mask, 0u);
}

TEST(CatalogSignature, SelfJoinCountsAtoms) {
  CatalogSignature sig = ComputeSignature(Q("v(X, Z) :- b(X, Y) & b(Y, Z)"));
  ASSERT_EQ(sig.predicate_counts.size(), 1u);
  EXPECT_EQ(sig.predicate_counts[0].second, 2u);
}

TEST(CatalogSignature, ConstantsAndRangesRecorded) {
  CatalogSignature sig = ComputeSignature(Q("v(Y) :- b1(7, Y) & Y < 100"));
  ASSERT_EQ(sig.constants.size(), 1u);
  EXPECT_EQ(sig.constants[0].predicate, "b1");
  EXPECT_EQ(sig.constants[0].pos, 0u);
  EXPECT_EQ(sig.constants[0].value, Value::Int(7));
  ASSERT_EQ(sig.ranges.size(), 1u);
  EXPECT_EQ(sig.ranges[0].predicate, "b1");
  EXPECT_EQ(sig.ranges[0].pos, 1u);
  EXPECT_EQ(sig.ranges[0].op, CompareOp::kLt);
  EXPECT_EQ(sig.ranges[0].bound, Value::Int(100));
}

TEST(CatalogSignature, EvaluableAndNegationAreExactOnly) {
  EXPECT_TRUE(
      ComputeSignature(Q("v(W) :- b1(X, Y) & plus(X, Y, W)")).exact_only);
  EXPECT_TRUE(ComputeSignature(Q("v(X) :- b1(X, Y) & not b2(Y, X)")).exact_only);
  EXPECT_FALSE(ComputeSignature(Q("v(X) :- b1(X, Y)")).exact_only);
}

// ---------------------------------------------------------------------------
// Admission filter.

TEST(SignatureAdmits, PredicateSubsetRequired) {
  CatalogSignature sig = ComputeSignature(Q("v(X) :- b1(X, Y) & b2(Y, Z)"));
  EXPECT_TRUE(
      SignatureAdmits(sig, DescribeQuery(Q("q(X) :- b1(X, Y) & b2(Y, Z)"))));
  // Query lacks b2 entirely: the injective mapping cannot exist.
  EXPECT_FALSE(SignatureAdmits(sig, DescribeQuery(Q("q(X) :- b1(X, Y)"))));
}

TEST(SignatureAdmits, MultisetCountsRequired) {
  CatalogSignature sig = ComputeSignature(Q("v(X, Z) :- b(X, Y) & b(Y, Z)"));
  EXPECT_FALSE(SignatureAdmits(sig, DescribeQuery(Q("q(X) :- b(X, Y)"))));
  EXPECT_TRUE(
      SignatureAdmits(sig, DescribeQuery(Q("q(X, Z) :- b(X, Y) & b(Y, Z)"))));
}

TEST(SignatureAdmits, DefinitionConstantMustAppearInQuery) {
  CatalogSignature sig = ComputeSignature(Q("v(Y) :- b1(7, Y)"));
  EXPECT_TRUE(SignatureAdmits(sig, DescribeQuery(Q("q(Y) :- b1(7, Y)"))));
  // One-way matching never maps a definition constant onto a query
  // variable or a different constant.
  EXPECT_FALSE(SignatureAdmits(sig, DescribeQuery(Q("q(Y) :- b1(8, Y)"))));
  EXPECT_FALSE(SignatureAdmits(sig, DescribeQuery(Q("q(X, Y) :- b1(X, Y)"))));
}

TEST(SignatureAdmits, RangeSatisfiabilityViaConstant) {
  CatalogSignature sig = ComputeSignature(Q("v(X, Y) :- b1(X, Y) & Y < 10"));
  // Query constant 5 satisfies Y < 10 after mapping.
  EXPECT_TRUE(SignatureAdmits(sig, DescribeQuery(Q("q(X) :- b1(X, 5)"))));
  // Query constant 50 cannot: the definition is strictly narrower.
  EXPECT_FALSE(SignatureAdmits(sig, DescribeQuery(Q("q(X) :- b1(X, 50)"))));
}

TEST(SignatureAdmits, RangeSatisfiabilityViaImpliedComparison) {
  CatalogSignature sig = ComputeSignature(Q("v(X, Y) :- b1(X, Y) & Y < 10"));
  EXPECT_TRUE(
      SignatureAdmits(sig, DescribeQuery(Q("q(X, Y) :- b1(X, Y) & Y < 5"))));
  EXPECT_FALSE(
      SignatureAdmits(sig, DescribeQuery(Q("q(X, Y) :- b1(X, Y) & Y < 50"))));
  EXPECT_FALSE(SignatureAdmits(sig, DescribeQuery(Q("q(X, Y) :- b1(X, Y)"))));
}

TEST(SignatureAdmits, DistinctElementCannotServeBagQuery) {
  CatalogSignature sig = ComputeSignature(Q("SETOF v(X) :- b1(X, Y)"));
  ASSERT_TRUE(sig.distinct);
  EXPECT_FALSE(SignatureAdmits(sig, DescribeQuery(Q("q(X) :- b1(X, Y)"))));
  EXPECT_TRUE(SignatureAdmits(sig, DescribeQuery(Q("SETOF q(X) :- b1(X, Y)"))));
}

// ---------------------------------------------------------------------------
// Soundness: the filter never rejects a pair the mapping search matches,
// and the model-level candidate set is a superset of the matched set.
// Swept over a deliberately diverse def × query cross product.

TEST(CatalogSoundness, CandidatesSupersetOfSubsumptionMatches) {
  const std::vector<std::string> defs = {
      "v0(X, Y) :- b1(X, Y)",
      "v1(X, Y) :- b1(X, Y) & Y > 3",
      "v2(Y) :- b1(7, Y)",
      "v3(X, Z) :- b1(X, Y) & b2(Y, Z)",
      "v4(X, Z) :- b1(X, Y) & b1(Y, Z)",
      "SETOF v5(X) :- b1(X, Y)",
      "v6(W) :- b1(X, Y) & plus(X, Y, W)",
      "v7(X) :- b1(X, Y) & not b2(Y, X)",
      "v8(X, Y) :- b2(X, Y) & X >= 2 & Y <= 9",
  };
  const std::vector<std::string> queries = {
      "q(X, Y) :- b1(X, Y)",
      "q(X, Y) :- b1(X, Y) & Y > 5",
      "q(Y) :- b1(7, Y)",
      "q(Y) :- b1(7, Y) & Y > 4",
      "q(X, Z) :- b1(X, Y) & b2(Y, Z)",
      "q(X, Z) :- b1(X, Y) & b1(Y, Z)",
      "q(X, Z) :- b1(X, Y) & b1(Y, Z) & b2(Z, W)",
      "SETOF q(X) :- b1(X, Y)",
      "q(W) :- b1(X, Y) & plus(X, Y, W)",
      "q(X) :- b1(X, Y) & not b2(Y, X)",
      "q(X, Y) :- b2(X, Y) & X >= 2 & Y <= 9",
      "q(X, Y) :- b2(X, Y) & X > 2 & Y < 9",
      "q(X) :- b2(X, 5)",
  };

  CacheModel model;
  for (size_t i = 0; i < defs.size(); ++i) {
    model.Register(MakeElement("E" + std::to_string(i), defs[i]));
  }
  ASSERT_EQ(model.CheckCatalogConsistency(), "");

  for (const std::string& qt : queries) {
    const CaqlQuery query = Q(qt);
    const QueryDescriptor descriptor = DescribeQuery(query);

    std::set<std::string> candidate_ids;
    for (const CacheElementPtr& e : model.SubsumptionCandidates(descriptor)) {
      EXPECT_TRUE(candidate_ids.insert(e->id()).second)
          << "duplicate candidate " << e->id() << " for " << qt;
    }

    for (size_t i = 0; i < defs.size(); ++i) {
      const bool matches =
          !ComputeSubsumptionAll(Q(defs[i]), query).empty();
      const std::string id = "E" + std::to_string(i);
      if (matches) {
        EXPECT_TRUE(candidate_ids.count(id))
            << "catalog rejected a true match: " << defs[i] << " vs " << qt;
        EXPECT_TRUE(
            SignatureAdmits(ComputeSignature(Q(defs[i])), descriptor))
            << defs[i] << " vs " << qt;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Planner equivalence: catalog-on and catalog-off retrieval feed the same
// matches to the planner.

TEST(CatalogPlanner, OnOffRelevantElementsAgree) {
  CacheModel model;
  model.Register(MakeElement("E1", "v1(X, Y) :- b1(X, Y)"));
  model.Register(MakeElement("E2", "v2(X, Y) :- b1(X, Y) & Y > 3"));
  model.Register(MakeElement("E3", "v3(X, Z) :- b1(X, Y) & b2(Y, Z)"));
  model.Register(MakeElement("E4", "v4(Y) :- b2(9, Y)"));

  dbms::Database db;
  dbms::RemoteDbms remote(db);
  QueryPlanner with(&model, &remote, PlannerConfig{true, /*use_catalog=*/true});
  QueryPlanner without(&model, &remote,
                       PlannerConfig{true, /*use_catalog=*/false});

  for (const std::string& qt :
       {std::string("q(X, Y) :- b1(X, Y) & Y > 5"),
        std::string("q(X, Z) :- b1(X, Y) & b2(Y, Z)"),
        std::string("q(Y) :- b2(9, Y)")}) {
    const CaqlQuery query = Q(qt);
    std::multiset<std::string> a, b;
    for (const auto& [element, match] : with.RelevantElements(query)) {
      a.insert(element->id() + "/" + match.ToString());
    }
    for (const auto& [element, match] : without.RelevantElements(query)) {
      b.insert(element->id() + "/" + match.ToString());
    }
    EXPECT_EQ(a, b) << qt;
  }
}

// ---------------------------------------------------------------------------
// Consistency invariant.

TEST(CatalogConsistency, SurvivesInsertAndRemoveWaves) {
  CacheModel model;
  for (int wave = 0; wave < 4; ++wave) {
    for (int i = 0; i < 12; ++i) {
      const std::string n = std::to_string(wave * 12 + i);
      model.Register(
          MakeElement("E" + n, "v" + n + "(X, Y) :- b1(X, " + n + ") & b2(Y, Z)"));
    }
    EXPECT_EQ(model.CheckCatalogConsistency(), "") << "wave " << wave;
    for (int i = 0; i < 12; i += 2) {
      model.Remove(*model.Find("E" + std::to_string(wave * 12 + i)));
    }
    EXPECT_EQ(model.CheckCatalogConsistency(), "") << "wave " << wave;
  }
  // Re-registering a resident element replaces it through its canonical
  // key; the catalog must keep exactly one posting for it.
  model.Register(model.Find("E1"));
  EXPECT_EQ(model.CheckCatalogConsistency(), "");
}

TEST(CatalogConsistency, DanglingPostingReported) {
  CatalogShard shard;
  CacheElementPtr element = MakeElement("E1", "v(X) :- b1(X, Y)");
  shard.Insert(element, std::make_shared<const CatalogSignature>(
                            ComputeSignature(element->definition())));
  auto reports = [&shard](const std::map<std::string, CacheElementPtr>& m,
                          const std::string& what) {
    return shard.CheckConsistency(m).find(what) != std::string::npos;
  };
  // A stripe that is missing the posted element — the shape of a
  // maintenance bug (eviction skipped the catalog).
  std::map<std::string, CacheElementPtr> stripe;
  EXPECT_TRUE(reports(stripe, "dangles"));

  stripe["E1"] = element;
  EXPECT_EQ(shard.CheckConsistency(stripe), "");
  // Another element resident under the posted id: the posting is stale.
  EXPECT_TRUE(reports({{"E1", MakeElement("E1", "v(X) :- b1(X, Y)")}},
                      "stale"));
  // An element the shard never saw must be flagged as unposted.
  stripe["E2"] = MakeElement("E2", "w(X) :- b2(X, Y)");
  EXPECT_TRUE(reports(stripe, "not posted"));
}

// ---------------------------------------------------------------------------
// Configurable mapping cap.

TEST(SubsumptionCap, TruncatesAtConfiguredBoundary) {
  const CaqlQuery def = Q("v(X, Y) :- b(X, Y)");
  const CaqlQuery query = Q("q(X, Y) :- b(X, Y) & b(Y, X)");

  // Two mappings exist (the element atom can cover either query atom).
  SubsumptionInfo info;
  auto all = ComputeSubsumptionAll(def, query, SubsumptionOptions{}, &info);
  EXPECT_EQ(all.size(), 2u);
  EXPECT_FALSE(info.truncated);

  // Cap exactly at the mapping count: complete, not truncated.
  info = SubsumptionInfo{};
  all = ComputeSubsumptionAll(def, query, SubsumptionOptions{2}, &info);
  EXPECT_EQ(all.size(), 2u);
  EXPECT_FALSE(info.truncated);

  // One below: a mapping is dropped and the truncation is surfaced.
  info = SubsumptionInfo{};
  all = ComputeSubsumptionAll(def, query, SubsumptionOptions{1}, &info);
  EXPECT_EQ(all.size(), 1u);
  EXPECT_TRUE(info.truncated);
}

TEST(SubsumptionCap, PlannerSurfacesTruncationOnSpan) {
  CacheModel model;
  model.Register(MakeElement("E1", "v(X, Y) :- b(X, Y)"));
  dbms::Database db;
  dbms::RemoteDbms remote(db);
  QueryPlanner planner(&model, &remote,
                       PlannerConfig{true, true, /*max_mappings=*/1});

  obs::Tracer tracer;
  planner.RelevantElements(Q("q(X, Y) :- b(X, Y) & b(Y, X)"), &tracer);
  obs::Span span;
  ASSERT_TRUE(tracer.FindSpan("subsumption", &span));
  bool annotated = false;
  for (const auto& [key, value] : span.attrs) {
    if (key == "truncated") {
      annotated = true;
      EXPECT_EQ(value, "1");
    }
  }
  EXPECT_TRUE(annotated);

  // With the default cap nothing is truncated and no annotation appears.
  QueryPlanner roomy(&model, &remote, PlannerConfig{true});
  obs::Tracer clean;
  roomy.RelevantElements(Q("q(X, Y) :- b(X, Y) & b(Y, X)"), &clean);
  ASSERT_TRUE(clean.FindSpan("subsumption", &span));
  for (const auto& [key, value] : span.attrs) {
    EXPECT_NE(key, "truncated");
  }
}

// ---------------------------------------------------------------------------
// Interval-implication property: IntervalImplies(op1, a, op2, b) claims
// "forall x: (x op1 a) -> (x op2 b)". Check every claim against
// brute-force evaluation over a domain that straddles both bounds, and
// require the obviously-true diagonal so the test cannot pass vacuously.

TEST(IntervalImpliesProperty, SoundOverSmallIntegerDomain) {
  const CompareOp ops[] = {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                           CompareOp::kLe, CompareOp::kGt, CompareOp::kGe};
  size_t claims = 0;
  for (CompareOp op1 : ops) {
    for (CompareOp op2 : ops) {
      for (int64_t a = -2; a <= 2; ++a) {
        for (int64_t b = -2; b <= 2; ++b) {
          if (!IntervalImplies(op1, Value::Int(a), op2, Value::Int(b))) {
            continue;
          }
          ++claims;
          for (int64_t x = -5; x <= 5; ++x) {
            if (EvalCompare(op1, Value::Int(x), Value::Int(a))) {
              EXPECT_TRUE(EvalCompare(op2, Value::Int(x), Value::Int(b)))
                  << "x=" << x << " op1=" << static_cast<int>(op1)
                  << " a=" << a << " op2=" << static_cast<int>(op2)
                  << " b=" << b;
            }
          }
        }
      }
      // Reflexive implication must always be claimed.
      EXPECT_TRUE(IntervalImplies(op1, Value::Int(0), op1, Value::Int(0)));
    }
  }
  EXPECT_GT(claims, 36u);  // far more than just the reflexive diagonal
}

TEST(IntervalImpliesProperty, SoundOverDoubleBounds) {
  const CompareOp ops[] = {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                           CompareOp::kLe, CompareOp::kGt, CompareOp::kGe};
  const double bounds[] = {-1.5, 0.0, 0.25, 2.0};
  const double domain[] = {-3.0, -1.5, -0.1, 0.0, 0.25, 0.3, 2.0, 4.5};
  for (CompareOp op1 : ops) {
    for (CompareOp op2 : ops) {
      for (double a : bounds) {
        for (double b : bounds) {
          if (!IntervalImplies(op1, Value::Double(a), op2,
                               Value::Double(b))) {
            continue;
          }
          for (double x : domain) {
            if (EvalCompare(op1, Value::Double(x), Value::Double(a))) {
              EXPECT_TRUE(
                  EvalCompare(op2, Value::Double(x), Value::Double(b)))
                  << "x=" << x << " a=" << a << " b=" << b;
            }
          }
        }
      }
    }
  }
}

// ComparisonImplied over single-variable atoms must agree with the same
// brute-force ground truth (it layers syntactic and interval reasoning).
TEST(ComparisonImpliedProperty, SoundOverSmallIntegerDomain) {
  const CompareOp ops[] = {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                           CompareOp::kLe, CompareOp::kGt, CompareOp::kGe};
  auto atom = [](CompareOp op, int64_t bound) {
    return logic::Atom(rel::CompareOpSymbol(op),
                       {logic::Term::Var("X"), logic::Term::Int(bound)});
  };
  for (CompareOp op1 : ops) {
    for (CompareOp op2 : ops) {
      for (int64_t a = -2; a <= 2; ++a) {
        for (int64_t b = -2; b <= 2; ++b) {
          if (!ComparisonImplied({atom(op1, a)}, atom(op2, b))) continue;
          for (int64_t x = -5; x <= 5; ++x) {
            if (EvalCompare(op1, Value::Int(x), Value::Int(a))) {
              EXPECT_TRUE(EvalCompare(op2, Value::Int(x), Value::Int(b)))
                  << "x=" << x << " a=" << a << " b=" << b;
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace braid::cms
