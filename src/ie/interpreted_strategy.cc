#include "ie/interpreted_strategy.h"

#include <map>
#include <set>

#include "caql/caql_query.h"
#include "relational/operators.h"
#include "common/strings.h"
#include "logic/unify.h"

namespace braid::ie {

namespace {

using caql::CaqlQuery;
using logic::Atom;
using logic::Substitution;
using logic::Term;

Atom RenameAtom(const Atom& atom, const std::string& suffix) {
  return logic::RenameVariables(atom, suffix);
}

}  // namespace

Result<rel::Relation> InterpretedStrategy::Solve(const Atom& query) {
  aggregate_cache_.clear();
  const std::vector<std::string> vars = query.Variables();
  rel::Relation solutions(StrCat("solutions(", query.predicate, ")"),
                          rel::Schema::FromNames(vars));

  Emit collect = [&](const Substitution& subst) -> Result<bool> {
    rel::Tuple row;
    row.reserve(vars.size());
    for (const std::string& v : vars) {
      auto bound = subst.Lookup(v);
      row.push_back(bound.has_value() && bound->is_constant()
                        ? bound->value()
                        : rel::Value::Null());
    }
    solutions.AppendUnchecked(std::move(row));
    ++stats_.solutions;
    return solutions.NumTuples() < config_.max_solutions;
  };

  BRAID_ASSIGN_OR_RETURN(bool keep_going,
                         SolveGoal(query, Substitution(), 0, collect));
  (void)keep_going;
  return solutions;
}

Result<bool> InterpretedStrategy::SolveGoal(const Atom& goal,
                                            const Substitution& subst,
                                            size_t depth, const Emit& emit) {
  if (depth > config_.max_depth) {
    ++stats_.depth_prunes;
    return true;  // Prune this branch, keep searching elsewhere.
  }
  const Atom g = subst.Apply(goal);

  if (g.negated) {
    // Negation as failure: succeed (without new bindings) iff the
    // positive goal has no solution under the current bindings.
    bool found = false;
    Emit probe = [&found](const Substitution&) -> Result<bool> {
      found = true;
      return false;  // One witness suffices.
    };
    BRAID_ASSIGN_OR_RETURN(bool keep,
                           SolveGoal(g.Positive(), subst, depth + 1, probe));
    (void)keep;
    if (found) return true;  // Positive succeeded: this branch fails.
    return emit(subst);
  }

  if (g.IsComparison() ||
      caql::IsEvaluablePredicate(g.predicate, g.arity())) {
    return SolveBuiltin(g, subst, emit);
  }

  if (kb_->IsBaseRelation(g.predicate)) {
    // A standalone base-relation goal (not absorbed into a run — possible
    // when recursion re-enters dynamically): issue a one-atom CAQL query.
    RuleItem item;
    item.kind = RuleItem::Kind::kRun;
    item.run_atoms = {goal};
    return SolveRun(item, "", subst, emit);
  }

  if (kb_->IsAggregate(g.predicate)) {
    return SolveAggregate(g, subst, depth, emit);
  }

  if (!kb_->IsUserDefined(g.predicate)) {
    return Status::NotFound(StrCat("unknown predicate ", g.predicate));
  }

  for (const logic::Rule& rule : kb_->RulesFor(g.predicate)) {
    auto plan_it = pre_->rule_plans.find(rule.id);
    if (plan_it == pre_->rule_plans.end()) {
      // Rule unreachable during pre-analysis (e.g. culled); interpret its
      // body directly as calls.
      const std::string suffix = StrCat("_i", invocation_counter_++);
      Atom head = RenameAtom(rule.head, suffix);
      auto unified = logic::UnifyAtoms(head, g, subst);
      if (!unified.has_value()) continue;
      // Build a transient plan of calls.
      RulePlan transient;
      transient.rule_id = rule.id;
      transient.head = rule.head;
      for (size_t bi = 0; bi < rule.body.size(); ++bi) {
        RuleItem item;
        item.kind = RuleItem::Kind::kCall;
        item.call = rule.body[bi];
        item.body_index = bi;
        transient.items.push_back(std::move(item));
      }
      BRAID_ASSIGN_OR_RETURN(
          bool keep, SolveItems(transient, suffix, 0, *unified, depth, emit));
      if (!keep) return false;
      continue;
    }
    const RulePlan& plan = plan_it->second;
    const std::string suffix = StrCat("_i", invocation_counter_++);
    Atom head = RenameAtom(plan.head, suffix);
    auto unified = logic::UnifyAtoms(head, g, subst);
    if (!unified.has_value()) continue;
    BRAID_ASSIGN_OR_RETURN(bool keep,
                           SolveItems(plan, suffix, 0, *unified, depth, emit));
    if (!keep) return false;
  }
  return true;
}

Result<bool> InterpretedStrategy::SolveItems(const RulePlan& plan,
                                             const std::string& suffix,
                                             size_t index,
                                             const Substitution& subst,
                                             size_t depth, const Emit& emit) {
  if (index == plan.items.size()) return emit(subst);
  const RuleItem& item = plan.items[index];

  Emit next = [&](const Substitution& s) -> Result<bool> {
    return SolveItems(plan, suffix, index + 1, s, depth, emit);
  };

  switch (item.kind) {
    case RuleItem::Kind::kRun:
      return SolveRun(item, suffix, subst, next);
    case RuleItem::Kind::kBuiltin:
      return SolveBuiltin(subst.Apply(RenameAtom(item.call, suffix)), subst,
                          next);
    case RuleItem::Kind::kCall:
      return SolveGoal(RenameAtom(item.call, suffix), subst, depth + 1, next);
  }
  return Status::Internal("unknown rule item kind");
}

Result<bool> InterpretedStrategy::SolveRun(
    const RuleItem& item, const std::string& suffix, const Substitution& subst,
    const std::function<Result<bool>(const Substitution&)>& next) {
  // Instantiate the run's CAQL query with the current bindings.
  CaqlQuery query;
  query.name = item.view_id;
  for (const Atom& atom : item.run_atoms) {
    query.body.push_back(subst.Apply(RenameAtom(atom, suffix)));
  }
  // Head: the view's argument set if known, otherwise all run variables.
  std::vector<Term> head_terms;
  const advice::CompiledView* view =
      item.view_id.empty() ? nullptr : pre_->advice->FindView(item.view_id);
  if (view != nullptr) {
    for (const advice::AnnotatedVar& av : view->spec->head) {
      head_terms.push_back(
          subst.Apply(Term::Var(av.name + suffix)));
    }
  } else {
    std::set<std::string> seen;
    for (const Atom& atom : query.body) {
      for (const Term& t : atom.args) {
        if (t.is_variable() && seen.insert(t.var_name()).second) {
          head_terms.push_back(t);
        }
      }
    }
  }
  query.head_args = head_terms;

  BRAID_ASSIGN_OR_RETURN(cms::CmsAnswer answer, cms_->Query(query));
  ++stats_.caql_queries;

  // Consume the stream tuple-at-a-time; each tuple extends the bindings.
  while (true) {
    auto tuple = answer.stream->Next();
    if (!tuple.has_value()) break;
    ++stats_.tuples_consumed;
    Substitution extended = subst;
    bool consistent = true;
    for (size_t i = 0; i < head_terms.size() && consistent; ++i) {
      const Term& t = head_terms[i];
      const rel::Value& v = (*tuple)[i];
      if (t.is_constant()) {
        consistent = t.value() == v;
      } else {
        consistent = extended.Bind(t.var_name(), Term::Const(v));
      }
    }
    if (!consistent) continue;
    BRAID_ASSIGN_OR_RETURN(bool keep, next(extended));
    if (!keep) return false;
  }
  return true;
}

Result<bool> InterpretedStrategy::SolveAggregate(const Atom& goal,
                                                 const Substitution& subst,
                                                 size_t depth,
                                                 const Emit& emit) {
  const logic::AggregateRule* rule = kb_->AggregateRuleFor(goal.predicate);
  if (rule == nullptr) {
    return Status::Internal(StrCat("missing aggregate rule for ",
                                   goal.predicate));
  }
  if (goal.arity() != rule->HeadArity()) {
    return Status::InvalidArgument(
        StrCat("aggregate goal ", goal.ToString(), " arity mismatch"));
  }

  auto it = aggregate_cache_.find(goal.predicate);
  if (it == aggregate_cache_.end()) {
    // Materialize the body's solutions (group vars + aggregate var), then
    // group. The body may be a base relation or any derived predicate —
    // both go through the ordinary goal solver, so cached data is reused.
    const std::string suffix = StrCat("_g", invocation_counter_++);
    const Atom body = RenameAtom(rule->body, suffix);
    std::vector<std::string> input_cols = rule->group_vars;
    input_cols.push_back(rule->fn == logic::AggregateFn::kCount
                             ? rule->agg_var
                             : rule->agg_var);
    rel::Relation input("agg_input", rel::Schema::FromNames(input_cols));
    Emit collect = [&](const Substitution& s) -> Result<bool> {
      rel::Tuple row;
      row.reserve(rule->group_vars.size() + 1);
      for (const std::string& v : rule->group_vars) {
        auto bound = s.Lookup(v + suffix);
        row.push_back(bound.has_value() && bound->is_constant()
                          ? bound->value()
                          : rel::Value::Null());
      }
      auto agg_bound = s.Lookup(rule->agg_var + suffix);
      row.push_back(agg_bound.has_value() && agg_bound->is_constant()
                        ? agg_bound->value()
                        : rel::Value::Null());
      input.AppendUnchecked(std::move(row));
      return true;
    };
    BRAID_ASSIGN_OR_RETURN(
        bool keep, SolveGoal(body, Substitution(), depth + 1, collect));
    (void)keep;

    rel::AggFn fn = rel::AggFn::kCount;
    switch (rule->fn) {
      case logic::AggregateFn::kCount:
        fn = rel::AggFn::kCount;
        break;
      case logic::AggregateFn::kSum:
        fn = rel::AggFn::kSum;
        break;
      case logic::AggregateFn::kMin:
        fn = rel::AggFn::kMin;
        break;
      case logic::AggregateFn::kMax:
        fn = rel::AggFn::kMax;
        break;
      case logic::AggregateFn::kAvg:
        fn = rel::AggFn::kAvg;
        break;
    }
    std::vector<size_t> group_cols;
    for (size_t i = 0; i < rule->group_vars.size(); ++i) {
      group_cols.push_back(i);
    }
    rel::Relation grouped = rel::Aggregate(
        input, group_cols,
        {rel::AggSpec{fn, rule->group_vars.size(), rule->result_var}});
    it = aggregate_cache_.emplace(goal.predicate, std::move(grouped)).first;
  }

  // Match the goal against the grouped rows, tuple-at-a-time.
  for (const rel::Tuple& row : it->second.tuples()) {
    Substitution extended = subst;
    bool consistent = true;
    for (size_t i = 0; i < goal.arity() && consistent; ++i) {
      const Term& t = goal.args[i];
      if (t.is_constant()) {
        consistent = t.value() == row[i];
      } else {
        consistent = extended.Bind(t.var_name(), Term::Const(row[i]));
      }
    }
    if (!consistent) continue;
    ++stats_.tuples_consumed;
    BRAID_ASSIGN_OR_RETURN(bool keep, emit(extended));
    if (!keep) return false;
  }
  return true;
}

Result<bool> InterpretedStrategy::SolveBuiltin(const Atom& atom,
                                               const Substitution& subst,
                                               const Emit& emit) {
  ++stats_.builtin_evals;
  if (atom.IsComparison()) {
    if (!atom.IsGround()) {
      return Status::FailedPrecondition(
          StrCat("comparison ", atom.ToString(),
                 " is not ground at evaluation time"));
    }
    if (rel::EvalCompare(atom.comparison_op(), atom.args[0].value(),
                         atom.args[1].value())) {
      return emit(subst);
    }
    return true;  // Fails; backtrack.
  }
  // Evaluable function: inputs must be bound.
  const size_t result_pos = atom.arity() - 1;
  std::vector<double> inputs;
  for (size_t i = 0; i + 1 < atom.arity(); ++i) {
    if (!atom.args[i].is_constant() || !atom.args[i].value().IsNumeric()) {
      return Status::FailedPrecondition(
          StrCat("evaluable ", atom.ToString(), " has unbound inputs"));
    }
    inputs.push_back(atom.args[i].value().NumericValue());
  }
  double r = 0;
  const std::string& fn = atom.predicate;
  if (fn == "plus") r = inputs[0] + inputs[1];
  else if (fn == "minus") r = inputs[0] - inputs[1];
  else if (fn == "times") r = inputs[0] * inputs[1];
  else if (fn == "div") {
    if (inputs[1] == 0) return true;  // Fails; backtrack.
    r = inputs[0] / inputs[1];
  } else if (fn == "abs") {
    r = inputs[0] < 0 ? -inputs[0] : inputs[0];
  } else {
    return Status::InvalidArgument(StrCat("unknown evaluable ", fn));
  }
  rel::Value result = (r == static_cast<double>(static_cast<int64_t>(r)))
                          ? rel::Value::Int(static_cast<int64_t>(r))
                          : rel::Value::Double(r);
  const Term& rt = atom.args[result_pos];
  if (rt.is_constant()) {
    if (rt.value() == result) return emit(subst);
    return true;
  }
  Substitution extended = subst;
  if (!extended.Bind(rt.var_name(), Term::Const(result))) return true;
  return emit(extended);
}

}  // namespace braid::ie
