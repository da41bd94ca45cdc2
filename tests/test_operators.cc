// Unit and property tests for the relational operators, predicates, and
// hash indexes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <string>

#include "common/rng.h"
#include "exec/parallel_ops.h"
#include "exec/thread_pool.h"
#include "relational/index.h"
#include "relational/operators.h"
#include "relational/predicate.h"

namespace braid::rel {
namespace {

Relation MakeRelation(const std::string& name,
                      const std::vector<std::string>& cols,
                      std::vector<Tuple> tuples) {
  Relation r(name, Schema::FromNames(cols));
  for (Tuple& t : tuples) r.AppendUnchecked(std::move(t));
  return r;
}

Relation SmallR() {
  return MakeRelation("r", {"a", "b"},
                      {{Value::Int(1), Value::Int(10)},
                       {Value::Int(2), Value::Int(20)},
                       {Value::Int(3), Value::Int(30)},
                       {Value::Int(2), Value::Int(25)}});
}

Relation SmallS() {
  return MakeRelation("s", {"b", "c"},
                      {{Value::Int(10), Value::String("x")},
                       {Value::Int(20), Value::String("y")},
                       {Value::Int(20), Value::String("z")},
                       {Value::Int(99), Value::String("w")}});
}

std::multiset<std::string> Rows(const Relation& r) {
  std::multiset<std::string> out;
  for (const Tuple& t : r.tuples()) out.insert(TupleToString(t));
  return out;
}

TEST(Predicate, ColumnConstEval) {
  auto p = Predicate::ColumnConst(0, CompareOp::kGt, Value::Int(1));
  EXPECT_TRUE(p->Eval({Value::Int(2)}));
  EXPECT_FALSE(p->Eval({Value::Int(1)}));
}

TEST(Predicate, ColumnColumnEval) {
  auto p = Predicate::ColumnColumn(0, CompareOp::kEq, 1);
  EXPECT_TRUE(p->Eval({Value::Int(3), Value::Int(3)}));
  EXPECT_FALSE(p->Eval({Value::Int(3), Value::Int(4)}));
}

TEST(Predicate, BooleanCombinators) {
  auto lt = Predicate::ColumnConst(0, CompareOp::kLt, Value::Int(5));
  auto gt = Predicate::ColumnConst(0, CompareOp::kGt, Value::Int(1));
  auto band = Predicate::And({lt, gt});
  EXPECT_TRUE(band->Eval({Value::Int(3)}));
  EXPECT_FALSE(band->Eval({Value::Int(0)}));
  auto bor = Predicate::Or({Predicate::ColumnConst(0, CompareOp::kEq,
                                                   Value::Int(0)),
                            Predicate::ColumnConst(0, CompareOp::kEq,
                                                   Value::Int(9))});
  EXPECT_TRUE(bor->Eval({Value::Int(9)}));
  EXPECT_FALSE(bor->Eval({Value::Int(5)}));
  auto bnot = Predicate::Not(lt);
  EXPECT_TRUE(bnot->Eval({Value::Int(6)}));
}

TEST(Predicate, EmptyAndIsTrue) {
  auto p = Predicate::And({});
  EXPECT_EQ(p->kind(), Predicate::Kind::kTrue);
  EXPECT_TRUE(p->Eval({}));
}

TEST(Predicate, ComparisonsWithNullAreFalseExceptEquality) {
  EXPECT_FALSE(EvalCompare(CompareOp::kLt, Value::Null(), Value::Int(1)));
  EXPECT_FALSE(EvalCompare(CompareOp::kGe, Value::Int(1), Value::Null()));
  EXPECT_TRUE(EvalCompare(CompareOp::kEq, Value::Null(), Value::Null()));
}

TEST(ReverseOp, AllCases) {
  EXPECT_EQ(ReverseCompareOp(CompareOp::kLt), CompareOp::kGt);
  EXPECT_EQ(ReverseCompareOp(CompareOp::kLe), CompareOp::kGe);
  EXPECT_EQ(ReverseCompareOp(CompareOp::kEq), CompareOp::kEq);
  EXPECT_EQ(ReverseCompareOp(CompareOp::kNe), CompareOp::kNe);
}

TEST(Select, FiltersRows) {
  Relation out = Select(
      SmallR(), *Predicate::ColumnConst(0, CompareOp::kEq, Value::Int(2)));
  EXPECT_EQ(out.NumTuples(), 2u);
}

TEST(Project, ReordersAndDuplicatesColumns) {
  Relation out = Project(SmallR(), {1, 0, 1});
  EXPECT_EQ(out.schema().size(), 3u);
  EXPECT_EQ(out.tuple(0), (Tuple{Value::Int(10), Value::Int(1),
                                 Value::Int(10)}));
}

TEST(HashJoin, MatchesExpectedPairs) {
  Relation out = HashJoin(SmallR(), SmallS(), {JoinKey{1, 0}});
  // b=10 matches once; b=20 twice (r row (2,20) with s y,z); b=25,30 none.
  EXPECT_EQ(out.NumTuples(), 3u);
}

TEST(HashJoin, EmptyKeyIsCrossProduct) {
  Relation out = HashJoin(SmallR(), SmallS(), {});
  EXPECT_EQ(out.NumTuples(), SmallR().NumTuples() * SmallS().NumTuples());
}

TEST(HashJoin, ResidualFilters) {
  auto residual =
      Predicate::ColumnConst(3, CompareOp::kEq, Value::String("y"));
  Relation out = HashJoin(SmallR(), SmallS(), {JoinKey{1, 0}}, residual);
  EXPECT_EQ(out.NumTuples(), 1u);
}

TEST(Union, ConcatenatesBags) {
  auto out = Union(SmallR(), SmallR());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->NumTuples(), 8u);
}

TEST(Union, ArityMismatchRejected) {
  auto out = Union(SmallR(), SmallS());
  EXPECT_TRUE(out.ok());  // Same arity (2) — allowed.
  Relation one_col = MakeRelation("t", {"x"}, {{Value::Int(1)}});
  auto bad = Union(SmallR(), one_col);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(Difference, RespectsMultiplicity) {
  Relation left = MakeRelation(
      "l", {"x"}, {{Value::Int(1)}, {Value::Int(1)}, {Value::Int(2)}});
  Relation right = MakeRelation("r", {"x"}, {{Value::Int(1)}});
  auto out = Difference(left, right);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(Rows(*out),
            (std::multiset<std::string>{"(1)", "(2)"}));
}

TEST(Distinct, RemovesDuplicatesKeepsFirstOrder) {
  Relation in = MakeRelation(
      "d", {"x"}, {{Value::Int(2)}, {Value::Int(1)}, {Value::Int(2)}});
  Relation out = Distinct(in);
  ASSERT_EQ(out.NumTuples(), 2u);
  EXPECT_EQ(out.tuple(0)[0], Value::Int(2));
  EXPECT_EQ(out.tuple(1)[0], Value::Int(1));
}

TEST(Sort, LexicographicByColumns) {
  Relation out = Sort(SmallR(), {0, 1});
  for (size_t i = 1; i < out.NumTuples(); ++i) {
    EXPECT_LE(out.tuple(i - 1)[0].Compare(out.tuple(i)[0]), 0);
  }
  // Secondary key: rows with a=2 sorted by b.
  EXPECT_EQ(out.tuple(1)[1], Value::Int(20));
  EXPECT_EQ(out.tuple(2)[1], Value::Int(25));
}

TEST(Aggregate, GroupByWithCountAndSum) {
  Relation out = Aggregate(SmallR(), {0},
                           {AggSpec{AggFn::kCount, 0, "n"},
                            AggSpec{AggFn::kSum, 1, "total"}});
  // Groups: a=1 (1 row), a=2 (2 rows), a=3 (1 row).
  EXPECT_EQ(out.NumTuples(), 3u);
  for (const Tuple& t : out.tuples()) {
    if (t[0] == Value::Int(2)) {
      EXPECT_EQ(t[1], Value::Int(2));
      EXPECT_EQ(t[2], Value::Double(45.0));
    }
  }
}

TEST(Aggregate, GlobalOverEmptyInputYieldsCountZero) {
  Relation empty("e", Schema::FromNames({"x"}));
  Relation out = Aggregate(empty, {}, {AggSpec{AggFn::kCount, 0, "n"},
                                       AggSpec{AggFn::kMin, 0, "m"}});
  ASSERT_EQ(out.NumTuples(), 1u);
  EXPECT_EQ(out.tuple(0)[0], Value::Int(0));
  EXPECT_TRUE(out.tuple(0)[1].is_null());
}

TEST(Aggregate, MinMaxAvg) {
  Relation out = Aggregate(SmallR(), {},
                           {AggSpec{AggFn::kMin, 1, "lo"},
                            AggSpec{AggFn::kMax, 1, "hi"},
                            AggSpec{AggFn::kAvg, 1, "mean"}});
  ASSERT_EQ(out.NumTuples(), 1u);
  EXPECT_EQ(out.tuple(0)[0], Value::Int(10));
  EXPECT_EQ(out.tuple(0)[1], Value::Int(30));
  EXPECT_EQ(out.tuple(0)[2], Value::Double(85.0 / 4));
}

TEST(HashIndex, LookupFindsAllRows) {
  Relation r = SmallR();
  HashIndex index(r, 0);
  EXPECT_EQ(index.Lookup(Value::Int(2)).size(), 2u);
  EXPECT_EQ(index.Lookup(Value::Int(99)).size(), 0u);
  EXPECT_EQ(index.NumDistinctKeys(), 3u);
}

TEST(Relation, AppendChecksArity) {
  Relation r("t", Schema::FromNames({"a", "b"}));
  EXPECT_TRUE(r.Append({Value::Int(1), Value::Int(2)}).ok());
  Status bad = r.Append({Value::Int(1)});
  EXPECT_EQ(bad.code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Property sweep: HashJoin agrees with NestedLoopJoin on random inputs.

struct JoinCase {
  size_t left_rows;
  size_t right_rows;
  int64_t key_domain;
  uint64_t seed;
};

class JoinEquivalence : public ::testing::TestWithParam<JoinCase> {};

Relation RandomRelation(const std::string& name, size_t rows,
                        int64_t key_domain, Rng* rng) {
  Relation r(name, Schema::FromNames({"k", "v"}));
  for (size_t i = 0; i < rows; ++i) {
    r.AppendUnchecked(Tuple{Value::Int(rng->Uniform(0, key_domain - 1)),
                            Value::Int(rng->Uniform(0, 1000))});
  }
  return r;
}

TEST_P(JoinEquivalence, HashJoinMatchesNestedLoop) {
  const JoinCase& c = GetParam();
  Rng rng(c.seed);
  Relation left = RandomRelation("l", c.left_rows, c.key_domain, &rng);
  Relation right = RandomRelation("r", c.right_rows, c.key_domain, &rng);

  Relation hash = HashJoin(left, right, {JoinKey{0, 0}});
  Relation nested = NestedLoopJoin(
      left, right, *Predicate::ColumnColumn(0, CompareOp::kEq, 2));
  EXPECT_EQ(Rows(hash), Rows(nested));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, JoinEquivalence,
    ::testing::Values(JoinCase{0, 10, 5, 1}, JoinCase{10, 0, 5, 2},
                      JoinCase{1, 1, 1, 3}, JoinCase{20, 20, 3, 4},
                      JoinCase{50, 30, 10, 5}, JoinCase{100, 100, 7, 6},
                      JoinCase{64, 256, 64, 7}, JoinCase{200, 50, 1, 8}));

// ---------------------------------------------------------------------------
// Kernel properties: the hash-join kernel (serial, and every partition of
// the parallel join), the one-pass bind and the in-place filter against
// naive references, row for row and value type for value type.

/// Same type and same representation: Int(2) is not Double(2.0), and 0.0
/// is not -0.0 (the operators compare them equal, but must copy each
/// value as it is).
bool Identical(const Tuple& a, const Tuple& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].type() != b[i].type()) return false;
    if (a[i].type() == ValueType::kDouble) {
      if (std::signbit(a[i].AsDouble()) != std::signbit(b[i].AsDouble()) ||
          a[i].AsDouble() != b[i].AsDouble()) {
        return false;
      }
    } else if (a[i] != b[i]) {
      return false;
    }
  }
  return true;
}

void ExpectSameRows(const Relation& expected, const Relation& actual,
                    const std::string& where) {
  ASSERT_EQ(expected.NumTuples(), actual.NumTuples()) << where;
  for (size_t i = 0; i < expected.NumTuples(); ++i) {
    ASSERT_TRUE(Identical(expected.tuple(i), actual.tuple(i)))
        << where << " row " << i << ": " << TupleToString(expected.tuple(i))
        << " vs " << TupleToString(actual.tuple(i));
  }
}

/// A value from a small domain holding the cases a key must get right:
/// Int(2) equals Double(2.0), 0.0 equals -0.0 and Int(0), NULL joins NULL
/// (EvalCompare's kEq), strings, and duplicates throughout.
Value RandomKeyValue(Rng* rng) {
  switch (rng->Uniform(0, 8)) {
    case 0:
      return Value::Int(2);
    case 1:
      return Value::Double(2.0);
    case 2:
      return Value::Double(0.0);
    case 3:
      return Value::Double(-0.0);
    case 4:
      return Value::Int(0);
    case 5:
      return Value::Null();
    case 6:
      return Value::String("a");
    case 7:
      return Value::String("bb");
    default:
      return Value::Int(rng->Uniform(0, 3));
  }
}

Relation RandomMixed(const std::string& name, size_t rows, size_t arity,
                     Rng* rng) {
  std::vector<std::string> cols;
  for (size_t c = 0; c < arity; ++c) cols.push_back(name + std::to_string(c));
  Relation r(name, Schema::FromNames(cols));
  for (size_t i = 0; i < rows; ++i) {
    Tuple t;
    for (size_t c = 0; c < arity; ++c) t.push_back(RandomKeyValue(rng));
    r.AppendUnchecked(std::move(t));
  }
  return r;
}

/// Nested-loop join in the kernel's documented order: the build side is
/// the smaller input (left on a tie; right with no keys); for each probe
/// tuple in order, the matching build tuples in order; `keep` columns of
/// the concatenated tuple.
Relation ReferenceJoin(const Relation& left, const Relation& right,
                       const std::vector<JoinKey>& keys,
                       const std::vector<size_t>& keep) {
  const bool build_left =
      !keys.empty() && left.NumTuples() <= right.NumTuples();
  const Relation& build = build_left ? left : right;
  const Relation& probe = build_left ? right : left;
  Relation out("ref", left.schema().Concat(right.schema()).Project(keep));
  for (const Tuple& pt : probe.tuples()) {
    for (const Tuple& bt : build.tuples()) {
      const Tuple& lt = build_left ? bt : pt;
      const Tuple& rt = build_left ? pt : bt;
      bool match = true;
      for (const JoinKey& k : keys) {
        match = match && EvalCompare(CompareOp::kEq, lt[k.left_col],
                                     rt[k.right_col]);
      }
      if (!match) continue;
      Tuple combined = lt;
      combined.insert(combined.end(), rt.begin(), rt.end());
      out.AppendUnchecked(ProjectTuple(combined, keep));
    }
  }
  return out;
}

TEST(KernelProperty, JoinsEqualNestedLoopRowForRow) {
  Rng rng(2024);
  std::vector<std::unique_ptr<exec::ThreadPool>> pools;
  for (size_t workers : {1, 2, 8}) {
    pools.push_back(std::make_unique<exec::ThreadPool>(workers));
  }
  for (int trial = 0; trial < 60; ++trial) {
    const size_t left_arity = static_cast<size_t>(rng.Uniform(3, 4));
    const size_t right_arity = static_cast<size_t>(rng.Uniform(3, 4));
    // Empty sides, equal sizes (the tie rule) and skew all occur.
    const size_t left_rows = static_cast<size_t>(rng.Uniform(0, 40));
    const size_t right_rows = trial % 5 == 0
                                  ? left_rows
                                  : static_cast<size_t>(rng.Uniform(0, 40));
    Relation left = RandomMixed("l", left_rows, left_arity, &rng);
    Relation right = RandomMixed("r", right_rows, right_arity, &rng);
    std::vector<JoinKey> keys;
    const size_t num_keys = static_cast<size_t>(rng.Uniform(1, 3));
    for (size_t k = 0; k < num_keys; ++k) {
      keys.push_back(JoinKey{k, right_arity - 1 - k});
    }
    std::vector<size_t> all(left_arity + right_arity);
    for (size_t c = 0; c < all.size(); ++c) all[c] = c;
    // A kept subset in a new order, with a column repeated.
    std::vector<size_t> subset = {left_arity + 1, 0, left_arity + 1};
    for (const std::vector<size_t>& keep : {all, subset}) {
      const std::string where = "trial " + std::to_string(trial) +
                                (keep.size() == all.size() ? " all" : " subset");
      const Relation expected = ReferenceJoin(left, right, keys, keep);
      ExpectSameRows(expected, HashJoin(left, right, keys, keep), where);
      for (const auto& pool : pools) {
        exec::ExecContext ctx;
        ctx.pool = pool.get();
        ctx.parallel_threshold = 0;
        ctx.morsel_tuples = 4;
        ExpectSameRows(expected, exec::HashJoin(ctx, left, right, keys, keep),
                       where + " workers " +
                           std::to_string(pool->num_workers()));
      }
    }
    ExpectSameRows(ReferenceJoin(left, right, keys, all),
                   HashJoin(left, right, keys), "full-tuple overload");
  }
}

TEST(KernelProperty, CrossProductKeepsLeftMajorOrder) {
  Rng rng(7);
  Relation left = RandomMixed("l", 5, 2, &rng);
  Relation right = RandomMixed("r", 3, 2, &rng);
  ExpectSameRows(ReferenceJoin(left, right, {}, {0, 1, 2, 3}),
                 HashJoin(left, right, {}), "cross product");
}

TEST(KernelProperty, OnePassBindAndInPlaceFilterMatchSelect) {
  Rng rng(99);
  exec::ThreadPool pool(2);
  exec::ExecContext ctx;
  ctx.pool = &pool;
  ctx.parallel_threshold = 0;
  ctx.morsel_tuples = 4;
  for (int trial = 0; trial < 40; ++trial) {
    const Relation input = RandomMixed(
        "in", static_cast<size_t>(rng.Uniform(0, 50)), 3, &rng);
    const PredicatePtr pred =
        trial % 2 == 0
            ? Predicate::ColumnConst(0, CompareOp::kEq, RandomKeyValue(&rng))
            : Predicate::ColumnColumn(1, CompareOp::kEq, 2);
    const std::vector<size_t> cols = {2, 0, 2};
    const std::string where = "trial " + std::to_string(trial);
    const Relation two_pass = Project(Select(input, *pred), cols);
    ExpectSameRows(two_pass, SelectProject(input, pred.get(), cols), where);
    ExpectSameRows(two_pass, exec::SelectProject(ctx, input, pred.get(), cols),
                   where + " parallel");
    ExpectSameRows(Project(input, cols),
                   SelectProject(input, nullptr, cols), where + " no pred");
    Relation filtered = input;
    Filter(&filtered, *pred);
    ExpectSameRows(Select(input, *pred), filtered, where + " filter");
  }
}

// Property: Select distributes over Union.
TEST(Property, SelectDistributesOverUnion) {
  Rng rng(11);
  Relation a = RandomRelation("a", 40, 10, &rng);
  Relation b = RandomRelation("b", 30, 10, &rng);
  auto pred = Predicate::ColumnConst(0, CompareOp::kLt, Value::Int(5));
  auto u = Union(a, b);
  ASSERT_TRUE(u.ok());
  Relation lhs = Select(*u, *pred);
  auto rhs = Union(Select(a, *pred), Select(b, *pred));
  ASSERT_TRUE(rhs.ok());
  EXPECT_EQ(Rows(lhs), Rows(*rhs));
}

// Property: Distinct is idempotent.
TEST(Property, DistinctIdempotent) {
  Rng rng(12);
  Relation a = RandomRelation("a", 60, 5, &rng);
  Relation once = Distinct(a);
  Relation twice = Distinct(once);
  EXPECT_EQ(Rows(once), Rows(twice));
}

// Property: index lookup equals scan filter.
TEST(Property, IndexLookupMatchesScan) {
  Rng rng(13);
  Relation a = RandomRelation("a", 150, 12, &rng);
  HashIndex index(a, 0);
  for (int64_t key = 0; key < 12; ++key) {
    const auto& rows = index.Lookup(Value::Int(key));
    size_t scan_count = 0;
    for (const Tuple& t : a.tuples()) {
      if (t[0] == Value::Int(key)) ++scan_count;
    }
    EXPECT_EQ(rows.size(), scan_count) << "key " << key;
  }
}

}  // namespace
}  // namespace braid::rel
