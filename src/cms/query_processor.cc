#include "cms/query_processor.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <set>
#include <unordered_set>

#include "common/strings.h"
#include "exec/parallel_ops.h"
#include "relational/index.h"

namespace braid::cms {

namespace {

using caql::CaqlQuery;
using logic::Atom;
using logic::Term;

void Charge(LocalWork* work, size_t tuples) {
  if (work != nullptr) work->tuples_processed += tuples;
}

/// Column index of variable `name` in a binding relation, or nullopt.
std::optional<size_t> VarColumn(const rel::Relation& r,
                                const std::string& name) {
  return r.schema().ColumnIndex(name);
}

/// All variables of `atom` are columns of `r`.
bool VarsBound(const rel::Relation& r, const Atom& atom) {
  for (const Term& t : atom.args) {
    if (t.is_variable() && !VarColumn(r, t.var_name()).has_value()) {
      return false;
    }
  }
  return true;
}

}  // namespace

Result<rel::Relation> QueryProcessor::BindAtom(const Atom& atom,
                                               const rel::Relation& source,
                                               LocalWork* work) {
  if (atom.arity() != source.schema().size()) {
    return Status::InvalidArgument(
        StrCat("atom ", atom.ToString(), " arity does not match source ",
               source.name(), " arity ", source.schema().size()));
  }
  // Selections: constants, and repeated variables.
  std::vector<rel::PredicatePtr> preds;
  std::map<std::string, size_t> first_pos;
  std::vector<size_t> out_cols;
  std::vector<std::string> out_names;
  for (size_t i = 0; i < atom.args.size(); ++i) {
    const Term& t = atom.args[i];
    if (t.is_constant()) {
      preds.push_back(
          rel::Predicate::ColumnConst(i, rel::CompareOp::kEq, t.value()));
      continue;
    }
    auto [it, inserted] = first_pos.emplace(t.var_name(), i);
    if (inserted) {
      out_cols.push_back(i);
      out_names.push_back(t.var_name());
    } else {
      preds.push_back(
          rel::Predicate::ColumnColumn(it->second, rel::CompareOp::kEq, i));
    }
  }
  Charge(work, source.NumTuples());
  const rel::PredicatePtr pred =
      preds.empty() ? nullptr : rel::Predicate::And(std::move(preds));
  rel::Relation projected = rel::SelectProject(source, pred.get(), out_cols);
  // Rename columns to variable names.
  std::vector<rel::Column> cols;
  for (size_t i = 0; i < out_names.size(); ++i) {
    cols.push_back(rel::Column{out_names[i], rel::ValueType::kNull});
  }
  rel::Relation out(atom.predicate, rel::Schema(std::move(cols)));
  out.mutable_tuples() = std::move(projected.mutable_tuples());
  return out;
}

rel::Relation QueryProcessor::NaturalJoin(const rel::Relation& left,
                                          const rel::Relation& right,
                                          LocalWork* work,
                                          const exec::ExecContext* ctx) {
  // Shared column names become join keys.
  std::vector<rel::JoinKey> keys;
  std::vector<bool> right_shared(right.schema().size(), false);
  for (size_t rc = 0; rc < right.schema().size(); ++rc) {
    auto lc = left.schema().ColumnIndex(right.schema().column(rc).name);
    if (lc.has_value()) {
      keys.push_back(rel::JoinKey{*lc, rc});
      right_shared[rc] = true;
    }
  }
  // Keep every left column and the right columns that are not shared: the
  // join writes only these, so no full concatenated tuple is built.
  std::vector<size_t> keep(left.schema().size());
  std::iota(keep.begin(), keep.end(), 0);
  for (size_t rc = 0; rc < right.schema().size(); ++rc) {
    if (!right_shared[rc]) keep.push_back(left.schema().size() + rc);
  }
  rel::Relation out = ctx != nullptr
                          ? exec::HashJoin(*ctx, left, right, keys, keep)
                          : rel::HashJoin(left, right, keys, keep);
  Charge(work, left.NumTuples() + right.NumTuples() + out.NumTuples());
  out.set_name(StrCat(left.name(), "*", right.name()));
  return out;
}

Status QueryProcessor::ApplyComparison(rel::Relation* relation,
                                       const Atom& comparison,
                                       LocalWork* work) {
  if (!comparison.IsComparison()) {
    return Status::InvalidArgument(
        StrCat(comparison.ToString(), " is not a comparison"));
  }
  auto resolve = [relation](const Term& t)
      -> Result<std::pair<bool, size_t>> {  // (is_column, col) — constants
                                            // signalled by is_column=false
    if (t.is_constant()) return std::make_pair(false, size_t{0});
    auto col = VarColumn(*relation, t.var_name());
    if (!col.has_value()) {
      return Status::FailedPrecondition(
          StrCat("variable ", t.var_name(), " not bound"));
    }
    return std::make_pair(true, *col);
  };
  BRAID_ASSIGN_OR_RETURN(auto lhs, resolve(comparison.args[0]));
  BRAID_ASSIGN_OR_RETURN(auto rhs, resolve(comparison.args[1]));
  rel::PredicatePtr pred;
  const rel::CompareOp op = comparison.comparison_op();
  if (lhs.first && rhs.first) {
    pred = rel::Predicate::ColumnColumn(lhs.second, op, rhs.second);
  } else if (lhs.first) {
    pred = rel::Predicate::ColumnConst(lhs.second, op,
                                       comparison.args[1].value());
  } else if (rhs.first) {
    pred = rel::Predicate::ColumnConst(rhs.second, rel::ReverseCompareOp(op),
                                       comparison.args[0].value());
  } else {
    // Ground comparison: keep all rows or none.
    if (!rel::EvalCompare(op, comparison.args[0].value(),
                          comparison.args[1].value())) {
      relation->Clear();
    }
    return Status::Ok();
  }
  Charge(work, relation->NumTuples());
  rel::Filter(relation, *pred);
  return Status::Ok();
}

Result<rel::Relation> QueryProcessor::ApplyEvaluable(
    const rel::Relation& input, const Atom& evaluable, LocalWork* work) {
  const std::string& fn = evaluable.predicate;
  const size_t result_pos = evaluable.arity() - 1;
  // Input arguments must be bound.
  std::vector<std::optional<size_t>> cols(evaluable.arity());
  for (size_t i = 0; i < evaluable.arity(); ++i) {
    const Term& t = evaluable.args[i];
    if (t.is_variable()) {
      cols[i] = VarColumn(input, t.var_name());
      if (i != result_pos && !cols[i].has_value()) {
        return Status::FailedPrecondition(
            StrCat("evaluable input ", t.var_name(), " not bound"));
      }
    }
  }

  auto arg_value = [&](size_t i, const rel::Tuple& row) -> rel::Value {
    const Term& t = evaluable.args[i];
    if (t.is_constant()) return t.value();
    return row[*cols[i]];
  };
  auto compute = [&fn](const rel::Value& a,
                       const rel::Value& b) -> Result<rel::Value> {
    if (!a.IsNumeric() || !b.IsNumeric()) {
      return Status::InvalidArgument("evaluable arguments must be numeric");
    }
    const double x = a.NumericValue();
    const double y = b.NumericValue();
    double r = 0;
    if (fn == "plus") r = x + y;
    else if (fn == "minus") r = x - y;
    else if (fn == "times") r = x * y;
    else if (fn == "div") {
      if (y == 0) return Status::InvalidArgument("division by zero");
      r = x / y;
    } else {
      return Status::InvalidArgument(StrCat("unknown evaluable ", fn));
    }
    // Preserve integer typing when both inputs are ints and the result is
    // integral.
    if (a.type() == rel::ValueType::kInt && b.type() == rel::ValueType::kInt &&
        r == static_cast<double>(static_cast<int64_t>(r))) {
      return rel::Value::Int(static_cast<int64_t>(r));
    }
    return rel::Value::Double(r);
  };
  auto compute_unary = [&fn](const rel::Value& a) -> Result<rel::Value> {
    if (!a.IsNumeric()) {
      return Status::InvalidArgument("evaluable argument must be numeric");
    }
    if (fn == "abs") {
      if (a.type() == rel::ValueType::kInt) {
        return rel::Value::Int(a.AsInt() < 0 ? -a.AsInt() : a.AsInt());
      }
      return rel::Value::Double(std::abs(a.AsDouble()));
    }
    return Status::InvalidArgument(StrCat("unknown evaluable ", fn));
  };

  const Term& result_term = evaluable.args[result_pos];
  const bool result_bound =
      result_term.is_constant() ||
      (result_term.is_variable() && cols[result_pos].has_value());

  rel::Schema out_schema = input.schema();
  if (!result_bound) {
    out_schema.AddColumn(
        rel::Column{result_term.var_name(), rel::ValueType::kNull});
  }
  rel::Relation out(input.name(), out_schema);
  Charge(work, input.NumTuples());
  for (const rel::Tuple& row : input.tuples()) {
    Result<rel::Value> computed =
        evaluable.arity() == 3
            ? compute(arg_value(0, row), arg_value(1, row))
            : compute_unary(arg_value(0, row));
    if (!computed.ok()) return computed.status();
    if (result_bound) {
      const rel::Value expected = result_term.is_constant()
                                      ? result_term.value()
                                      : row[*cols[result_pos]];
      if (*computed == expected) out.AppendUnchecked(row);
    } else {
      rel::Tuple extended = row;
      extended.push_back(std::move(*computed));
      out.AppendUnchecked(std::move(extended));
    }
  }
  return out;
}

Result<rel::Relation> QueryProcessor::ProjectHead(const rel::Relation& input,
                                                  const CaqlQuery& query) {
  std::vector<rel::Column> cols;
  struct HeadSource {
    bool is_column;
    size_t column;
    rel::Value constant;
  };
  std::vector<HeadSource> sources;
  for (const Term& t : query.head_args) {
    cols.push_back(rel::Column{t.ToString(), rel::ValueType::kNull});
    if (t.is_constant()) {
      sources.push_back(HeadSource{false, 0, t.value()});
      continue;
    }
    auto col = VarColumn(input, t.var_name());
    if (!col.has_value()) {
      return Status::FailedPrecondition(
          StrCat("head variable ", t.var_name(), " not bound by the body"));
    }
    sources.push_back(HeadSource{true, *col, rel::Value()});
  }
  rel::Relation out(query.name.empty() ? "result" : query.name,
                    rel::Schema(std::move(cols)));
  for (const rel::Tuple& row : input.tuples()) {
    rel::Tuple t;
    t.reserve(sources.size());
    for (const HeadSource& s : sources) {
      t.push_back(s.is_column ? row[s.column] : s.constant);
    }
    out.AppendUnchecked(std::move(t));
  }
  return out;
}

Result<rel::Relation> QueryProcessor::Evaluate(const CaqlQuery& query,
                                               const AtomResolver& resolver,
                                               LocalWork* work) {
  BRAID_RETURN_IF_ERROR(query.Validate());
  const std::vector<Atom> rel_atoms = query.RelationAtoms();

  // Convert each relation atom into a binding relation.
  std::vector<rel::Relation> bindings;
  for (const Atom& atom : rel_atoms) {
    std::shared_ptr<const rel::Relation> source = resolver(atom);
    if (source == nullptr) {
      return Status::NotFound(
          StrCat("no local source for ", atom.ToString()));
    }
    BRAID_ASSIGN_OR_RETURN(rel::Relation b, BindAtom(atom, *source, work));
    bindings.push_back(std::move(b));
  }
  // Negated literals become anti bindings over their positive form.
  std::vector<rel::Relation> anti;
  for (const Atom& atom : query.NegatedAtoms()) {
    const Atom positive = atom.Positive();
    std::shared_ptr<const rel::Relation> source = resolver(positive);
    if (source == nullptr) {
      return Status::NotFound(
          StrCat("no local source for ", atom.ToString()));
    }
    BRAID_ASSIGN_OR_RETURN(rel::Relation b, BindAtom(positive, *source, work));
    anti.push_back(std::move(b));
  }
  return Assemble(query, std::move(bindings), query.ComparisonAtoms(),
                  query.EvaluableAtoms(), work, std::move(anti));
}

rel::Relation QueryProcessor::AntiJoin(const rel::Relation& input,
                                       const rel::Relation& anti,
                                       LocalWork* work) {
  // Shared column names are the anti-join key.
  std::vector<size_t> in_cols, anti_cols;
  for (size_t ac = 0; ac < anti.schema().size(); ++ac) {
    auto ic = input.schema().ColumnIndex(anti.schema().column(ac).name);
    if (ic.has_value()) {
      in_cols.push_back(*ic);
      anti_cols.push_back(ac);
    }
  }
  Charge(work, input.NumTuples() + anti.NumTuples());
  rel::Relation out(input.name(), input.schema());
  if (in_cols.empty()) {
    // Disjoint: the negated literal is an independent existence test.
    if (anti.empty()) out.mutable_tuples() = input.tuples();
    return out;
  }
  std::unordered_set<rel::Tuple, rel::TupleHash> anti_keys;
  anti_keys.reserve(anti.NumTuples());
  for (const rel::Tuple& t : anti.tuples()) {
    rel::Tuple key;
    key.reserve(anti_cols.size());
    for (size_t c : anti_cols) key.push_back(t[c]);
    anti_keys.insert(std::move(key));
  }
  for (const rel::Tuple& t : input.tuples()) {
    rel::Tuple key;
    key.reserve(in_cols.size());
    for (size_t c : in_cols) key.push_back(t[c]);
    if (anti_keys.count(key) == 0) out.AppendUnchecked(t);
  }
  return out;
}

Result<rel::Relation> QueryProcessor::Assemble(
    const CaqlQuery& query, std::vector<rel::Relation> bindings,
    const std::vector<Atom>& comparisons, const std::vector<Atom>& evaluables,
    LocalWork* work, std::vector<rel::Relation> anti_bindings,
    const exec::ExecContext* ctx, const AssemblyObserver* observer) {
  std::vector<bool> comp_done(comparisons.size(), false);
  std::vector<bool> eval_done(evaluables.size(), false);
  // Join order and applied comparisons, reported to the observer.
  std::vector<size_t> bound_order;
  auto applied_comps = [&comp_done] {
    std::vector<size_t> out;
    for (size_t ci = 0; ci < comp_done.size(); ++ci) {
      if (comp_done[ci]) out.push_back(ci);
    }
    return out;
  };

  rel::Relation current;
  if (bindings.empty()) {
    // Pure built-in query (validated to be ground): start from a single
    // empty tuple.
    current = rel::Relation("unit", rel::Schema());
    current.AppendUnchecked(rel::Tuple{});
  } else {
    // Greedy ordering: start from the smallest binding relation; then join
    // the relation sharing a variable with the current result (smallest
    // first); fall back to the smallest disconnected one.
    std::vector<bool> used(bindings.size(), false);
    size_t start = 0;
    for (size_t i = 1; i < bindings.size(); ++i) {
      if (bindings[i].NumTuples() < bindings[start].NumTuples()) start = i;
    }
    current = std::move(bindings[start]);
    used[start] = true;
    bound_order.push_back(start);
    for (size_t joined = 1; joined < bindings.size(); ++joined) {
      int best = -1;
      bool best_connected = false;
      for (size_t i = 0; i < bindings.size(); ++i) {
        if (used[i]) continue;
        bool connected = false;
        for (const rel::Column& c : bindings[i].schema().columns()) {
          if (current.schema().ColumnIndex(c.name).has_value()) {
            connected = true;
            break;
          }
        }
        if (best < 0 || (connected && !best_connected) ||
            (connected == best_connected &&
             bindings[i].NumTuples() <
                 bindings[static_cast<size_t>(best)].NumTuples())) {
          best = static_cast<int>(i);
          best_connected = connected;
        }
      }
      current =
          NaturalJoin(current, bindings[static_cast<size_t>(best)], work, ctx);
      used[static_cast<size_t>(best)] = true;
      bound_order.push_back(static_cast<size_t>(best));

      // Eagerly apply any now-applicable comparisons to shrink
      // intermediates.
      for (size_t ci = 0; ci < comparisons.size(); ++ci) {
        if (comp_done[ci] || !VarsBound(current, comparisons[ci])) continue;
        BRAID_RETURN_IF_ERROR(
            ApplyComparison(&current, comparisons[ci], work));
        comp_done[ci] = true;
      }
      if (observer != nullptr && observer->on_join_stage != nullptr) {
        observer->on_join_stage(bound_order, applied_comps(), current);
      }
    }
  }

  // Anti bindings (negated literals): applied once every positive
  // variable is bound — safety guarantees their variables come from
  // positive atoms, so this point suffices.
  for (const rel::Relation& anti : anti_bindings) {
    current = AntiJoin(current, anti, work);
  }

  // Evaluables: repeat until no progress (outputs of one may feed another).
  bool progress = true;
  while (progress) {
    progress = false;
    for (size_t ei = 0; ei < evaluables.size(); ++ei) {
      if (eval_done[ei]) continue;
      const Atom& ev = evaluables[ei];
      // Check input args bound.
      bool inputs_bound = true;
      for (size_t i = 0; i + 1 < ev.arity(); ++i) {
        if (ev.args[i].is_variable() &&
            !VarColumn(current, ev.args[i].var_name()).has_value()) {
          inputs_bound = false;
          break;
        }
      }
      if (!inputs_bound) continue;
      BRAID_ASSIGN_OR_RETURN(current, ApplyEvaluable(current, ev, work));
      eval_done[ei] = true;
      progress = true;
      // Newly bound result variables may enable pending comparisons.
      for (size_t ci = 0; ci < comparisons.size(); ++ci) {
        if (comp_done[ci] || !VarsBound(current, comparisons[ci])) continue;
        BRAID_RETURN_IF_ERROR(
            ApplyComparison(&current, comparisons[ci], work));
        comp_done[ci] = true;
      }
    }
  }
  for (size_t ei = 0; ei < evaluables.size(); ++ei) {
    if (!eval_done[ei]) {
      return Status::FailedPrecondition(
          StrCat("evaluable ", evaluables[ei].ToString(),
                 " has unbound inputs"));
    }
  }
  bool trailing_comp = false;
  for (size_t ci = 0; ci < comparisons.size(); ++ci) {
    if (comp_done[ci]) continue;
    BRAID_RETURN_IF_ERROR(ApplyComparison(&current, comparisons[ci], work));
    comp_done[ci] = true;
    trailing_comp = true;
  }
  // The residual-filtered relation is a sound conjunctive view only when
  // nothing but joins and comparisons produced it.
  if (observer != nullptr && observer->on_residual_stage != nullptr &&
      trailing_comp && anti_bindings.empty() && evaluables.empty() &&
      !bindings.empty()) {
    observer->on_residual_stage(applied_comps(), current);
  }

  BRAID_ASSIGN_OR_RETURN(rel::Relation projected,
                         ProjectHead(current, query));
  if (query.distinct) {
    Charge(work, projected.NumTuples());
    rel::Relation deduped = ctx != nullptr ? exec::Distinct(*ctx, projected)
                                           : rel::Distinct(projected);
    deduped.set_name(projected.name());
    return deduped;
  }
  return projected;
}

rel::Relation QueryProcessor::TransitiveClosure(const rel::Relation& edges,
                                                size_t from_col, size_t to_col,
                                                LocalWork* work) {
  rel::Relation result("closure", rel::Schema::FromNames({"from", "to"}));
  std::unordered_set<rel::Tuple, rel::TupleHash> seen;

  std::vector<rel::Tuple> delta;
  for (const rel::Tuple& e : edges.tuples()) {
    rel::Tuple pair{e[from_col], e[to_col]};
    if (seen.insert(pair).second) {
      result.AppendUnchecked(pair);
      delta.push_back(std::move(pair));
    }
  }
  Charge(work, edges.NumTuples());

  // Index edges by source for the semi-naive join.
  rel::HashIndex by_from(edges, from_col);
  while (!delta.empty()) {
    std::vector<rel::Tuple> next_delta;
    for (const rel::Tuple& pair : delta) {
      for (size_t row : by_from.Lookup(pair[1])) {
        Charge(work, 1);
        rel::Tuple extended{pair[0], edges.tuple(row)[to_col]};
        if (seen.insert(extended).second) {
          result.AppendUnchecked(extended);
          next_delta.push_back(std::move(extended));
        }
      }
    }
    delta = std::move(next_delta);
  }
  return result;
}

}  // namespace braid::cms
