#include "relational/operators.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>
#include <unordered_set>

#include "common/strings.h"

namespace braid::rel {

namespace {

/// Hash of the values of `t` at `columns`, finished with splitmix64 so the
/// high and low bits are both usable.
uint64_t HashColumns(const Tuple& t, const std::vector<size_t>& columns) {
  uint64_t h = 0x345678;
  for (size_t c : columns) h = h * 1000003 ^ t[c].Hash();
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

/// Running state for one aggregate within one group.
struct AggState {
  int64_t count = 0;
  double sum = 0;
  bool any = false;
  Value min;
  Value max;

  void Add(const Value& v) {
    ++count;
    if (v.is_null()) return;
    if (v.IsNumeric()) sum += v.NumericValue();
    if (!any || v < min) min = v;
    if (!any || v > max) max = v;
    any = true;
  }

  Value Finish(AggFn fn) const {
    switch (fn) {
      case AggFn::kCount:
        return Value::Int(count);
      case AggFn::kSum:
        return Value::Double(sum);
      case AggFn::kMin:
        return any ? min : Value::Null();
      case AggFn::kMax:
        return any ? max : Value::Null();
      case AggFn::kAvg:
        return count > 0 ? Value::Double(sum / static_cast<double>(count))
                         : Value::Null();
    }
    return Value::Null();
  }
};

}  // namespace

Relation Select(const Relation& input, const Predicate& pred) {
  Relation out(StrCat("select(", input.name(), ")"), input.schema());
  out.mutable_tuples().reserve(input.NumTuples());
  for (const Tuple& t : input.tuples()) {
    if (pred.Eval(t)) out.AppendUnchecked(t);
  }
  return out;
}

void Filter(Relation* relation, const Predicate& pred) {
  std::erase_if(relation->mutable_tuples(),
                [&pred](const Tuple& t) { return !pred.Eval(t); });
}

Relation Project(const Relation& input, const std::vector<size_t>& columns) {
  return SelectProject(input, nullptr, columns);
}

Relation SelectProject(const Relation& input, const Predicate* pred,
                       const std::vector<size_t>& columns) {
  Relation out(StrCat("project(", input.name(), ")"),
               input.schema().Project(columns));
  out.mutable_tuples().reserve(input.NumTuples());
  for (const Tuple& t : input.tuples()) {
    if (pred == nullptr || pred->Eval(t)) {
      out.AppendUnchecked(ProjectTuple(t, columns));
    }
  }
  return out;
}

Tuple ProjectTuple(const Tuple& t, const std::vector<size_t>& columns) {
  Tuple projected;
  projected.reserve(columns.size());
  for (size_t c : columns) projected.push_back(t[c]);
  return projected;
}

JoinKernel::Table::Table(std::vector<size_t> rows_in,
                         const std::vector<uint64_t>& row_hashes)
    : rows(std::move(rows_in)), hashes(rows.size()), next(rows.size()) {
  size_t buckets = 1;
  while (buckets < rows.size()) buckets *= 2;
  mask = buckets - 1;
  heads.assign(buckets, kEnd);
  // Prepending in reverse leaves every chain in ascending row order.
  for (size_t e = rows.size(); e-- > 0;) {
    hashes[e] = row_hashes[rows[e]];
    next[e] = heads[hashes[e] & mask];
    heads[hashes[e] & mask] = e;
  }
}

JoinKernel::JoinKernel(const Relation& left, const Relation& right,
                       const std::vector<JoinKey>& keys,
                       std::vector<size_t> keep, PredicatePtr residual)
    : left_(&left),
      right_(&right),
      build_left_(!keys.empty() && left.NumTuples() <= right.NumTuples()),
      build_(build_left_ ? &left : &right),
      probe_(build_left_ ? &right : &left),
      keep_(std::move(keep)),
      residual_(std::move(residual)) {
  for (const JoinKey& k : keys) {
    build_cols_.push_back(build_left_ ? k.left_col : k.right_col);
    probe_cols_.push_back(build_left_ ? k.right_col : k.left_col);
  }
}

uint64_t JoinKernel::BuildHash(size_t row) const {
  return HashColumns(build_->tuple(row), build_cols_);
}

uint64_t JoinKernel::ProbeHash(size_t row) const {
  return HashColumns(probe_->tuple(row), probe_cols_);
}

Relation JoinKernel::MakeOutput() const {
  return Relation(StrCat("join(", left_->name(), ",", right_->name(), ")"),
                  left_->schema().Concat(right_->schema()).Project(keep_));
}

void JoinKernel::Probe(const Table& table, size_t row, uint64_t hash,
                       std::vector<Tuple>* out) const {
  const Tuple& pt = probe_->tuple(row);
  const size_t left_arity = left_->schema().size();
  for (size_t e = table.heads[hash & table.mask]; e != Table::kEnd;
       e = table.next[e]) {
    if (table.hashes[e] != hash) continue;
    const Tuple& bt = build_->tuple(table.rows[e]);
    bool equal = true;
    for (size_t k = 0; equal && k < build_cols_.size(); ++k) {
      equal = bt[build_cols_[k]] == pt[probe_cols_[k]];
    }
    if (!equal) continue;
    const Tuple& lt = build_left_ ? bt : pt;
    const Tuple& rt = build_left_ ? pt : bt;
    if (residual_ != nullptr) {
      Tuple combined = lt;
      combined.insert(combined.end(), rt.begin(), rt.end());
      if (residual_->Eval(combined)) {
        out->push_back(ProjectTuple(combined, keep_));
      }
      continue;
    }
    Tuple& kept = out->emplace_back();
    kept.reserve(keep_.size());
    for (size_t c : keep_) {
      kept.push_back(c < left_arity ? lt[c] : rt[c - left_arity]);
    }
  }
}

Relation HashJoin(const Relation& left, const Relation& right,
                  const std::vector<JoinKey>& keys,
                  const PredicatePtr& residual) {
  std::vector<size_t> all(left.schema().size() + right.schema().size());
  std::iota(all.begin(), all.end(), 0);
  return HashJoin(left, right, keys, all, residual);
}

Relation HashJoin(const Relation& left, const Relation& right,
                  const std::vector<JoinKey>& keys,
                  const std::vector<size_t>& keep,
                  const PredicatePtr& residual) {
  const JoinKernel kernel(left, right, keys, keep, residual);
  const size_t nb = kernel.build().NumTuples();
  std::vector<size_t> rows(nb);
  std::vector<uint64_t> hashes(nb);
  for (size_t row = 0; row < nb; ++row) {
    rows[row] = row;
    hashes[row] = kernel.BuildHash(row);
  }
  const JoinKernel::Table table(std::move(rows), hashes);
  Relation out = kernel.MakeOutput();
  for (size_t row = 0; row < kernel.probe().NumTuples(); ++row) {
    kernel.Probe(table, row, kernel.ProbeHash(row), &out.mutable_tuples());
  }
  return out;
}

Relation NestedLoopJoin(const Relation& left, const Relation& right,
                        const Predicate& pred) {
  Relation out(StrCat("nljoin(", left.name(), ",", right.name(), ")"),
               left.schema().Concat(right.schema()));
  for (const Tuple& lt : left.tuples()) {
    for (const Tuple& rt : right.tuples()) {
      Tuple combined = lt;
      combined.insert(combined.end(), rt.begin(), rt.end());
      if (pred.Eval(combined)) out.AppendUnchecked(std::move(combined));
    }
  }
  return out;
}

Result<Relation> Union(const Relation& left, const Relation& right) {
  if (left.schema().size() != right.schema().size()) {
    return Status::InvalidArgument(
        StrCat("union arity mismatch: ", left.schema().size(), " vs ",
               right.schema().size()));
  }
  Relation out(StrCat("union(", left.name(), ",", right.name(), ")"),
               left.schema());
  out.mutable_tuples().reserve(left.NumTuples() + right.NumTuples());
  for (const Tuple& t : left.tuples()) out.AppendUnchecked(t);
  for (const Tuple& t : right.tuples()) out.AppendUnchecked(t);
  return out;
}

Result<Relation> Difference(const Relation& left, const Relation& right) {
  if (left.schema().size() != right.schema().size()) {
    return Status::InvalidArgument(
        StrCat("difference arity mismatch: ", left.schema().size(), " vs ",
               right.schema().size()));
  }
  std::unordered_map<Tuple, size_t, TupleHash> right_counts;
  for (const Tuple& t : right.tuples()) ++right_counts[t];
  Relation out(StrCat("diff(", left.name(), ",", right.name(), ")"),
               left.schema());
  for (const Tuple& t : left.tuples()) {
    auto it = right_counts.find(t);
    if (it != right_counts.end() && it->second > 0) {
      --it->second;
      continue;
    }
    out.AppendUnchecked(t);
  }
  return out;
}

Relation Distinct(const Relation& input) {
  Relation out(StrCat("distinct(", input.name(), ")"), input.schema());
  std::unordered_set<Tuple, TupleHash> seen;
  seen.reserve(input.NumTuples());
  for (const Tuple& t : input.tuples()) {
    if (!seen.insert(t).second) continue;
    out.AppendUnchecked(t);
  }
  return out;
}

Relation Sort(const Relation& input, const std::vector<size_t>& columns) {
  Relation out(StrCat("sort(", input.name(), ")"), input.schema());
  out.mutable_tuples() = input.tuples();
  std::stable_sort(out.mutable_tuples().begin(), out.mutable_tuples().end(),
                   [&columns](const Tuple& a, const Tuple& b) {
                     for (size_t c : columns) {
                       int cmp = a[c].Compare(b[c]);
                       if (cmp != 0) return cmp < 0;
                     }
                     return false;
                   });
  return out;
}

Relation Aggregate(const Relation& input, const std::vector<size_t>& group_by,
                   const std::vector<AggSpec>& aggs) {
  Schema out_schema = input.schema().Project(group_by);
  for (const AggSpec& a : aggs) {
    out_schema.AddColumn(Column{a.output_name, ValueType::kNull});
  }
  Relation out(StrCat("agg(", input.name(), ")"), std::move(out_schema));

  std::unordered_map<Tuple, std::vector<AggState>, TupleHash> groups;
  std::vector<Tuple> group_order;  // Deterministic output order.
  for (const Tuple& t : input.tuples()) {
    Tuple key = ProjectTuple(t, group_by);
    auto [it, inserted] = groups.emplace(key, std::vector<AggState>());
    if (inserted) {
      it->second.resize(aggs.size());
      group_order.push_back(key);
    }
    for (size_t i = 0; i < aggs.size(); ++i) {
      if (aggs[i].fn == AggFn::kCount) {
        it->second[i].Add(Value::Int(1));
      } else {
        it->second[i].Add(t[aggs[i].column]);
      }
    }
  }

  // A global aggregate (no GROUP BY) over an empty input still produces one
  // row: COUNT is 0 and other aggregates are NULL.
  if (group_by.empty() && group_order.empty()) {
    group_order.push_back(Tuple{});
    groups.emplace(Tuple{}, std::vector<AggState>(aggs.size()));
  }

  for (const Tuple& key : group_order) {
    const std::vector<AggState>& states = groups.at(key);
    Tuple row = key;
    for (size_t i = 0; i < aggs.size(); ++i) {
      row.push_back(states[i].Finish(aggs[i].fn));
    }
    out.AppendUnchecked(std::move(row));
  }
  return out;
}

}  // namespace braid::rel
