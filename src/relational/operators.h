#ifndef BRAID_RELATIONAL_OPERATORS_H_
#define BRAID_RELATIONAL_OPERATORS_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "relational/predicate.h"
#include "relational/relation.h"

namespace braid::rel {

/// Pair of column positions equated by a join: left.tuple[left_col] ==
/// right.tuple[right_col].
struct JoinKey {
  size_t left_col;
  size_t right_col;
};

/// σ: tuples of `input` satisfying `pred`.
Relation Select(const Relation& input, const Predicate& pred);

/// Removes the tuples of `relation` that fail `pred` in place (survivors
/// keep their order); only for a relation the caller owns outright.
void Filter(Relation* relation, const Predicate& pred);

/// π: `input` restricted to `columns` (positions; duplicates allowed). Bag
/// semantics — no duplicate elimination.
Relation Project(const Relation& input, const std::vector<size_t>& columns);

/// σ then π in one pass: the `columns` of each tuple of `input` that
/// satisfies `pred` (every tuple when `pred` is null), copied once.
Relation SelectProject(const Relation& input, const Predicate* pred,
                       const std::vector<size_t>& columns);

/// The `columns` of `t`, in order.
Tuple ProjectTuple(const Tuple& t, const std::vector<size_t>& columns);

/// The hash-join kernel: one key-hashing, table-build and probe routine,
/// run by `HashJoin` over the whole build side and by `exec::HashJoin`
/// once per hash partition.
///
/// The build side is the smaller input (the left one on a tie, and always
/// the right one with no keys, so a cross product stays left-major). A key
/// hash agrees with Value equality (Int(2) and Double(2.0), and 0.0 and
/// -0.0, hash alike) and has every bit mixed: a table's buckets use its low
/// bits, a parallel join's partitions its top ones. A table is a flat
/// chained index of build rows: a head per bucket, and per row a next link
/// and the stored 64-bit key hash; no key tuples. A probe walks its
/// bucket's chain, compares the stored hash, then the key values, and
/// writes each match once with only the kept columns. Chains run in
/// ascending build-row order, so the output is probe order, then build
/// rows ascending.
class JoinKernel {
 public:
  /// A flat chained hash table over build rows `rows` (ascending);
  /// `row_hashes` holds the key hash of every build row, by row.
  struct Table {
    Table(std::vector<size_t> rows, const std::vector<uint64_t>& row_hashes);

    static constexpr size_t kEnd = ~size_t{0};
    std::vector<size_t> rows;
    std::vector<uint64_t> hashes;
    std::vector<size_t> next;   // chain link per entry, kEnd at the end
    std::vector<size_t> heads;  // first entry per bucket, or kEnd
    uint64_t mask = 0;
  };

  /// Joins `left` and `right` on `keys`. `keep` lists the output columns
  /// as positions over the concatenated tuple (left columns, then right
  /// columns); `residual`, if any, is checked over the concatenated tuple.
  JoinKernel(const Relation& left, const Relation& right,
             const std::vector<JoinKey>& keys, std::vector<size_t> keep,
             PredicatePtr residual);

  const Relation& build() const { return *build_; }
  const Relation& probe() const { return *probe_; }
  /// Key hash of build (probe) row `row`.
  uint64_t BuildHash(size_t row) const;
  uint64_t ProbeHash(size_t row) const;

  /// Empty output relation with the kept columns' schema.
  Relation MakeOutput() const;

  /// Appends the matches in `table` of probe row `row`, whose key hash is
  /// `hash`, to `out` in ascending build-row order.
  void Probe(const Table& table, size_t row, uint64_t hash,
             std::vector<Tuple>* out) const;

 private:
  const Relation* left_;
  const Relation* right_;
  bool build_left_;
  const Relation* build_;
  const Relation* probe_;
  std::vector<size_t> build_cols_;
  std::vector<size_t> probe_cols_;
  std::vector<size_t> keep_;
  PredicatePtr residual_;
};

/// Equi-join on the full composite key via `JoinKernel`, writing the
/// `keep` columns (positions over the concatenated tuple; all of them in
/// the overload without `keep`) of each match; `residual` (over the
/// concatenated tuple) is checked per matching pair. With no keys this is
/// a filtered cross product. Output order: probe-side tuples in input
/// order, each followed by its matching build-side tuples in input order.
Relation HashJoin(const Relation& left, const Relation& right,
                  const std::vector<JoinKey>& keys,
                  const PredicatePtr& residual = nullptr);
Relation HashJoin(const Relation& left, const Relation& right,
                  const std::vector<JoinKey>& keys,
                  const std::vector<size_t>& keep,
                  const PredicatePtr& residual = nullptr);

/// Nested-loop join with an arbitrary predicate over the concatenated
/// tuple. Baseline used by tests to validate HashJoin.
Relation NestedLoopJoin(const Relation& left, const Relation& right,
                        const Predicate& pred);

/// Bag union. Schemas must have equal arity.
Result<Relation> Union(const Relation& left, const Relation& right);

/// Set difference (left tuples not present in right; duplicates in left
/// collapse to multiplicity max(l - r, 0) per distinct tuple).
Result<Relation> Difference(const Relation& left, const Relation& right);

/// Duplicate elimination.
Relation Distinct(const Relation& input);

/// Sorts by the given columns ascending (lexicographic).
Relation Sort(const Relation& input, const std::vector<size_t>& columns);

/// Aggregation function kinds.
enum class AggFn { kCount, kSum, kMin, kMax, kAvg };

struct AggSpec {
  AggFn fn;
  size_t column = 0;  // Ignored for kCount.
  std::string output_name;
};

/// Groups `input` by `group_by` columns and computes each aggregate.
/// Output schema: group columns then one column per AggSpec. With empty
/// `group_by`, produces a single row (even over an empty input for kCount).
Relation Aggregate(const Relation& input, const std::vector<size_t>& group_by,
                   const std::vector<AggSpec>& aggs);

}  // namespace braid::rel

#endif  // BRAID_RELATIONAL_OPERATORS_H_
