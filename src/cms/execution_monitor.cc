#include "cms/execution_monitor.h"

#include <algorithm>
#include <chrono>
#include <future>
#include <iterator>
#include <map>

#include "common/strings.h"
#include "exec/parallel_ops.h"

namespace braid::cms {

namespace {

using logic::Atom;
using logic::Term;

/// Builds a predicate over a (possibly concatenated) schema for a
/// comparison atom, resolving variables by first-occurrence column name.
Result<rel::PredicatePtr> ComparisonPredicate(const rel::Schema& schema,
                                              const Atom& comp) {
  auto col_of = [&schema](const Term& t) -> std::optional<size_t> {
    if (t.is_constant()) return std::nullopt;
    return schema.ColumnIndex(t.var_name());
  };
  const Term& lhs = comp.args[0];
  const Term& rhs = comp.args[1];
  auto lc = col_of(lhs);
  auto rc = col_of(rhs);
  const rel::CompareOp op = comp.comparison_op();
  if (lhs.is_variable() && !lc.has_value()) {
    return Status::FailedPrecondition(
        StrCat("variable ", lhs.var_name(), " unbound in lazy pipeline"));
  }
  if (rhs.is_variable() && !rc.has_value()) {
    return Status::FailedPrecondition(
        StrCat("variable ", rhs.var_name(), " unbound in lazy pipeline"));
  }
  if (lc.has_value() && rc.has_value()) {
    return rel::Predicate::ColumnColumn(*lc, op, *rc);
  }
  if (lc.has_value()) {
    return rel::Predicate::ColumnConst(*lc, op, rhs.value());
  }
  if (rc.has_value()) {
    return rel::Predicate::ColumnConst(*rc, rel::ReverseCompareOp(op),
                                       lhs.value());
  }
  // Ground comparison.
  if (rel::EvalCompare(op, lhs.value(), rhs.value())) {
    return rel::Predicate::True();
  }
  return rel::Predicate::Not(rel::Predicate::True());
}

/// Synthesizes the derived view definition a stage computed: head = the
/// stage relation's columns (query variables) in column order, body = the
/// atoms that produced it. Every stage view shares one name so
/// structurally identical intermediates from different queries collapse
/// to one canonical key, and is BAGOF — binding relations carry bag
/// multiplicities, so the view can serve queries of either semantics
/// through subsumption (a SETOF definition could not serve BAGOF).
caql::CaqlQuery StageView(const rel::Schema& schema, std::vector<Atom> body) {
  caql::CaqlQuery view;
  view.name = "$i";
  for (const rel::Column& c : schema.columns()) {
    view.head_args.push_back(Term::Var(c.name));
  }
  view.body = std::move(body);
  view.distinct = false;
  return view;
}

}  // namespace

Result<rel::Relation> ExecutionMonitor::MaterializeElementSource(
    const PlanSource& source, LocalWork* work) {
  // Read the pin taken at plan time: a concurrent session's eviction
  // between planning and execution must not fail this plan (the pinned
  // extension is immutable and stays alive through the shared_ptr).
  const CacheElementPtr& element = source.element;
  if (!element->is_materialized()) {
    return Status::NotFound(
        StrCat("cache element ", element->id(), " is not materialized"));
  }
  cache_->Touch(*element);
  const std::shared_ptr<const rel::Relation>& ext = element->extension();

  // Apply residual selections, using a hash index for the first
  // column-equals-constant selection when one exists, and project the
  // needed variables in the same pass: each kept row is copied once.
  const SubsumptionMatch& match = source.match;
  size_t index_sel = match.selections.size();
  for (size_t i = 0; i < match.selections.size(); ++i) {
    const ResidualSelection& s = match.selections[i];
    if (!s.rhs_is_column && s.op == rel::CompareOp::kEq &&
        element->index(s.column) != nullptr) {
      index_sel = i;
      break;
    }
  }
  std::vector<rel::PredicatePtr> preds;
  for (size_t i = 0; i < match.selections.size(); ++i) {
    if (i == index_sel) continue;
    const ResidualSelection& s = match.selections[i];
    preds.push_back(s.rhs_is_column
                        ? rel::Predicate::ColumnColumn(s.column, s.op,
                                                       s.rhs_column)
                        : rel::Predicate::ColumnConst(s.column, s.op,
                                                      s.constant));
  }
  const rel::PredicatePtr pred =
      preds.empty() ? nullptr : rel::Predicate::And(std::move(preds));

  // The output columns are named after the needed variables and carry the
  // extension's declared column types (a kNull stamp here would discard
  // type information the assembly joins and downstream consumers can use).
  std::vector<size_t> cols;
  std::vector<rel::Column> names;
  for (const auto& [var, col] : match.var_to_column) {
    cols.push_back(col);
    names.push_back(rel::Column{var, ext->schema().column(col).type});
  }
  rel::Relation out(element->id(), rel::Schema(std::move(names)));
  if (index_sel < match.selections.size()) {
    const ResidualSelection& s = match.selections[index_sel];
    const std::shared_ptr<const rel::HashIndex> index =
        element->index(s.column);
    const std::vector<size_t>& rows = index->Lookup(s.constant);
    if (work != nullptr) work->tuples_processed += rows.size();
    out.mutable_tuples().reserve(rows.size());
    for (size_t row : rows) {
      const rel::Tuple& t = ext->tuple(row);
      if (pred == nullptr || pred->Eval(t)) {
        out.AppendUnchecked(rel::ProjectTuple(t, cols));
      }
    }
  } else {
    // Full scan of the extension: the hot cache-side preparation path,
    // morsel-parallel over large extensions (the simulated cost charged
    // stays the serial tuple count — parallelism is a wall-clock win).
    if (work != nullptr) work->tuples_processed += ext->NumTuples();
    out.mutable_tuples() = std::move(
        exec::SelectProject(exec_ctx_, *ext, pred.get(), cols)
            .mutable_tuples());
  }
  return out;
}

Result<ExecutionOutcome> ExecutionMonitor::ExecutePlan(const Plan& plan,
                                                       obs::Tracer* tracer,
                                                       obs::SpanId parent,
                                                       IntermediateSink* sink) {
  ExecutionOutcome outcome;
  LocalWork prep_work;
  // Per-source modeled recomputation cost (remote fetch cost, or element
  // preparation work), feeding the stage offers below.
  std::vector<double> source_cost_ms(plan.sources.size() +
                                     plan.anti_sources.size());

  // Positive and anti sources (negated literals; the latter applied as
  // anti-joins during assembly) share one materialization pass, indexed
  // over the concatenation so remote results land in deterministic
  // plan-source order regardless of completion order.
  const size_t num_positive = plan.sources.size();
  const size_t num_total = num_positive + plan.anti_sources.size();
  auto source_at = [&plan, num_positive](size_t i) -> const PlanSource& {
    return i < num_positive ? plan.sources[i]
                            : plan.anti_sources[i - num_positive];
  };

  // Launch every remote subquery as a pool task before any cache-side
  // work, so the fetches are in flight while this thread prepares the
  // element sources — the paper's §5 parallelism made physical.
  const bool concurrent_remote = parallel_ && exec_ctx_.pool != nullptr &&
                                 exec_ctx_.pool->num_workers() > 0;
  std::vector<std::future<Result<RemoteFetch>>> fetches(num_total);
  if (concurrent_remote) {
    for (size_t i = 0; i < num_total; ++i) {
      const PlanSource& source = source_at(i);
      if (source.kind != PlanSource::Kind::kRemote) continue;
      // The fetch span is recorded on the pool thread that runs the
      // task, with the plan's span as parent — the Tracer is thread-safe
      // precisely for this.
      fetches[i] = exec_ctx_.pool->Submit([this, &source, tracer, parent] {
        obs::SpanScope span(tracer, "fetch", parent);
        span.Annotate("subquery", source.remote_query.name);
        Result<RemoteFetch> fetch =
            rdi_->Fetch(source.remote_query, source.remote_vars);
        if (fetch.ok()) span.SetModeledMs(fetch->cost.total_ms);
        return fetch;
      });
    }
  }

  // Cache-side preparation on the calling thread. Errors are deferred, not
  // returned, until every in-flight fetch has been joined — a pool task
  // holds references into `plan`, which must outlive it.
  Status first_error = Status::Ok();
  std::vector<rel::Relation> materialized(num_total);
  obs::SpanId prep_id = 0;
  {
    obs::SpanScope prep(tracer, "prep", parent);
    prep_id = prep.id();
    for (size_t i = 0; i < num_total; ++i) {
      const PlanSource& source = source_at(i);
      if (source.kind != PlanSource::Kind::kElement) continue;
      LocalWork source_work;
      Result<rel::Relation> b = MaterializeElementSource(source, &source_work);
      prep_work.tuples_processed += source_work.tuples_processed;
      source_cost_ms[i] = source_work.tuples_processed * local_per_tuple_ms_;
      if (!b.ok()) {
        if (first_error.ok()) first_error = b.status();
        continue;
      }
      materialized[i] = std::move(*b);
    }
  }

  // Join the fetches (or run them now, serially). The modeled remote
  // time on the critical path is the slowest single fetch when they
  // overlap, the serialized sum when they do not — charging the sum
  // under `parallel_` would model two overlapped fetches as if they ran
  // back to back, which bench E10b's measured wall clock disproves.
  double max_fetch_ms = 0;
  for (size_t i = 0; i < num_total; ++i) {
    const PlanSource& source = source_at(i);
    if (source.kind != PlanSource::Kind::kRemote) continue;
    Result<RemoteFetch> fetch = [&]() -> Result<RemoteFetch> {
      if (concurrent_remote) {
        // Help-drain while waiting: when every pool worker is occupied by
        // a session task, the fetch we submitted may still be queued —
        // running inner tasks here guarantees progress instead of
        // deadlocking the saturated pool.
        while (fetches[i].wait_for(std::chrono::seconds(0)) ==
               std::future_status::timeout) {
          if (!exec_ctx_.pool->HelpOne()) {
            fetches[i].wait_for(std::chrono::microseconds(500));
          }
        }
        return fetches[i].get();
      }
      obs::SpanScope span(tracer, "fetch", parent);
      span.Annotate("subquery", source.remote_query.name);
      Result<RemoteFetch> f =
          rdi_->Fetch(source.remote_query, source.remote_vars);
      if (f.ok()) span.SetModeledMs(f->cost.total_ms);
      return f;
    }();
    if (!fetch.ok()) {
      if (first_error.ok()) first_error = fetch.status();
      continue;
    }
    outcome.remote_ms += fetch->cost.total_ms;
    max_fetch_ms = std::max(max_fetch_ms, fetch->cost.total_ms);
    ++outcome.remote_queries;
    source_cost_ms[i] = fetch->cost.total_ms;
    materialized[i] = std::move(fetch->bindings);
  }
  if (!first_error.ok()) return first_error;
  outcome.remote_critical_ms = parallel_ ? max_fetch_ms : outcome.remote_ms;

  // Stage capture: the atoms each positive source computes (the covered
  // query atoms for an element source, the shipped subquery body — with
  // its pushed comparisons — for a remote one). Negated sources are
  // excluded throughout: stage views are positive conjunctions.
  const std::vector<Atom> rel_atoms = plan.query.RelationAtoms();
  // An element source's binding relation is additionally restricted by the
  // element definition's own comparison atoms — the match was only legal
  // because *this* query's comparisons imply them, but a later query
  // served from the stage need not imply them. Rewrite those comparisons
  // into query variables through the match's column mapping so the stage
  // view states exactly what the relation holds; when the restriction
  // cannot be expressed (comparison over a projected-away column, or a
  // SETOF element whose extension lost bag multiplicities) the source is
  // tainted and no stage built from it is offered.
  std::vector<std::vector<Atom>> source_comps(num_positive);
  std::vector<bool> source_tainted(num_positive, false);
  if (sink != nullptr) {
    for (size_t i = 0; i < num_positive; ++i) {
      const PlanSource& source = plan.sources[i];
      if (source.kind != PlanSource::Kind::kElement) continue;
      const CacheElementPtr& element = source.element;
      if (element->definition().distinct) {
        source_tainted[i] = true;
        continue;
      }
      const caql::CaqlQuery& def = element->definition();
      std::map<size_t, std::string> col_to_var;
      for (const auto& [var, col] : source.match.var_to_column) {
        col_to_var[col] = var;
      }
      for (const Atom& comp : def.body) {
        if (!comp.IsComparison()) continue;
        Atom rewritten = comp;
        bool expressible = true;
        for (Term& t : rewritten.args) {
          if (!t.is_variable()) continue;
          std::string mapped;
          for (size_t c = 0; c < def.head_args.size() && mapped.empty();
               ++c) {
            if (!def.head_args[c].is_variable() ||
                def.head_args[c].var_name() != t.var_name()) {
              continue;
            }
            auto it = col_to_var.find(c);
            if (it != col_to_var.end()) mapped = it->second;
          }
          if (mapped.empty()) {
            expressible = false;
            break;
          }
          t = Term::Var(std::move(mapped));
        }
        if (!expressible) {
          source_tainted[i] = true;
          break;
        }
        source_comps[i].push_back(std::move(rewritten));
      }
    }
  }
  auto atoms_of = [&plan, &rel_atoms, &source_comps](size_t i) {
    const PlanSource& source = plan.sources[i];
    if (source.kind == PlanSource::Kind::kRemote) {
      return source.remote_query.body;
    }
    std::vector<Atom> atoms;
    for (size_t qi : source.match.covered) atoms.push_back(rel_atoms[qi]);
    atoms.insert(atoms.end(), source_comps[i].begin(), source_comps[i].end());
    return atoms;
  };
  if (sink != nullptr) {
    for (size_t i = 0; i < num_positive; ++i) {
      const PlanSource& source = plan.sources[i];
      if (materialized[i].schema().size() == 0 || source_tainted[i]) continue;
      StageOffer offer;
      offer.label = source.kind == PlanSource::Kind::kRemote
                        ? StrCat("bind:remote:", i)
                        : StrCat("bind:", source.element->id());
      offer.view = StageView(materialized[i].schema(), atoms_of(i));
      offer.recompute_ms = source_cost_ms[i];
      offer.from_remote = source.kind == PlanSource::Kind::kRemote;
      sink->Offer(offer, materialized[i]);
    }
  }

  std::vector<rel::Relation> bindings(
      std::make_move_iterator(materialized.begin()),
      std::make_move_iterator(materialized.begin() + num_positive));
  std::vector<rel::Relation> anti_bindings(
      std::make_move_iterator(materialized.begin() + num_positive),
      std::make_move_iterator(materialized.end()));

  LocalWork assembly_work;
  // Join fragments and the residual-filtered relation, offered as they are
  // produced. A stage's view body is the union of its constituent sources'
  // atoms plus every comparison applied so far; its recomputation cost is
  // the sum of those sources' costs plus the assembly work to date.
  AssemblyObserver stage_observer;
  auto offer_fragment = [&](const char* label_prefix,
                            const std::vector<size_t>& bound,
                            const std::vector<size_t>& comps,
                            const rel::Relation& current) {
    if (current.schema().size() == 0) return;
    for (size_t bi : bound) {
      if (source_tainted[bi]) return;
    }
    StageOffer offer;
    offer.label = StrCat(label_prefix, bound.size());
    std::vector<Atom> body;
    double cost = assembly_work.tuples_processed * local_per_tuple_ms_;
    for (size_t bi : bound) {
      std::vector<Atom> atoms = atoms_of(bi);
      body.insert(body.end(), std::make_move_iterator(atoms.begin()),
                  std::make_move_iterator(atoms.end()));
      cost += source_cost_ms[bi];
      offer.from_remote |=
          plan.sources[bi].kind == PlanSource::Kind::kRemote;
    }
    for (size_t ci : comps) body.push_back(plan.residual_comparisons[ci]);
    offer.view = StageView(current.schema(), std::move(body));
    offer.recompute_ms = cost;
    sink->Offer(offer, current);
  };
  if (sink != nullptr) {
    stage_observer.on_join_stage = [&](const std::vector<size_t>& bound,
                                       const std::vector<size_t>& comps,
                                       const rel::Relation& current) {
      offer_fragment("join:", bound, comps, current);
    };
    stage_observer.on_residual_stage = [&](const std::vector<size_t>& comps,
                                           const rel::Relation& current) {
      std::vector<size_t> all(num_positive);
      for (size_t i = 0; i < num_positive; ++i) all[i] = i;
      offer_fragment("residual:", all, comps, current);
    };
  }
  {
    obs::SpanScope assembly(tracer, "assembly", parent);
    BRAID_ASSIGN_OR_RETURN(
        outcome.result,
        QueryProcessor::Assemble(plan.query, std::move(bindings),
                                 plan.residual_comparisons, plan.evaluables,
                                 &assembly_work, std::move(anti_bindings),
                                 &exec_ctx_,
                                 sink != nullptr ? &stage_observer : nullptr));
    assembly.SetModeledMs(assembly_work.tuples_processed *
                          local_per_tuple_ms_);
  }

  const double prep_ms = prep_work.tuples_processed * local_per_tuple_ms_;
  const double assembly_ms =
      assembly_work.tuples_processed * local_per_tuple_ms_;
  if (tracer != nullptr && prep_id != 0) {
    tracer->SetModeledMs(prep_id, prep_ms);
  }
  outcome.local_ms = prep_ms + assembly_ms;
  outcome.work.tuples_processed =
      prep_work.tuples_processed + assembly_work.tuples_processed;
  // Cache-side preparation overlaps the remote subqueries when parallel
  // execution is enabled — and the fetches overlap each other, so only
  // the slowest one sits on the critical path; final assembly needs both
  // inputs and follows serially either way.
  outcome.response_ms =
      (parallel_ ? std::max(outcome.remote_critical_ms, prep_ms)
                 : outcome.remote_ms + prep_ms) +
      assembly_ms;
  return outcome;
}

Result<stream::TupleStreamPtr> ExecutionMonitor::BuildLazyStream(
    const Plan& plan) {
  if (!plan.fully_local) {
    return Status::FailedPrecondition(
        "lazy evaluation requires all data in the cache");
  }
  if (!plan.evaluables.empty()) {
    return Status::Unimplemented("lazy evaluation with evaluable functions");
  }
  if (!plan.anti_sources.empty()) {
    return Status::Unimplemented("lazy evaluation with negation");
  }
  for (const Term& t : plan.query.head_args) {
    if (!t.is_variable()) {
      return Status::Unimplemented("lazy evaluation with constant head");
    }
  }
  if (plan.sources.empty()) {
    return Status::FailedPrecondition("lazy plan has no sources");
  }

  // Prepare binding relations eagerly (cheap residual selections).
  LocalWork prep;
  std::vector<std::shared_ptr<rel::Relation>> bindings;
  for (const PlanSource& source : plan.sources) {
    BRAID_ASSIGN_OR_RETURN(rel::Relation b,
                           MaterializeElementSource(source, &prep));
    bindings.push_back(std::make_shared<rel::Relation>(std::move(b)));
  }
  // Order: smallest first, then connected.
  std::sort(bindings.begin(), bindings.end(),
            [](const auto& a, const auto& b) {
              return a->NumTuples() < b->NumTuples();
            });

  stream::TupleStreamPtr pipeline =
      std::make_unique<stream::ScanStream>(bindings.front());
  for (size_t i = 1; i < bindings.size(); ++i) {
    const std::shared_ptr<rel::Relation>& right = bindings[i];
    // Join keys: columns of `right` whose names already occur on the left.
    std::vector<rel::JoinKey> keys;
    for (size_t rc = 0; rc < right->schema().size(); ++rc) {
      auto lc = pipeline->schema().ColumnIndex(right->schema().column(rc).name);
      if (lc.has_value()) keys.push_back(rel::JoinKey{*lc, rc});
    }
    std::shared_ptr<const rel::HashIndex> index;
    if (!keys.empty()) {
      index = std::make_shared<rel::HashIndex>(*right, keys[0].right_col);
    }
    pipeline = std::make_unique<stream::IndexJoinStream>(
        std::move(pipeline), right, std::move(keys), std::move(index));
  }

  // Residual comparisons.
  if (!plan.residual_comparisons.empty()) {
    std::vector<rel::PredicatePtr> preds;
    for (const Atom& comp : plan.residual_comparisons) {
      BRAID_ASSIGN_OR_RETURN(rel::PredicatePtr p,
                             ComparisonPredicate(pipeline->schema(), comp));
      preds.push_back(std::move(p));
    }
    pipeline = std::make_unique<stream::SelectStream>(
        std::move(pipeline), rel::Predicate::And(std::move(preds)));
  }

  // Head projection.
  std::vector<size_t> head_cols;
  for (const Term& t : plan.query.head_args) {
    auto col = pipeline->schema().ColumnIndex(t.var_name());
    if (!col.has_value()) {
      return Status::FailedPrecondition(
          StrCat("head variable ", t.var_name(), " unbound in lazy plan"));
    }
    head_cols.push_back(*col);
  }
  pipeline = std::make_unique<stream::ProjectStream>(std::move(pipeline),
                                                     std::move(head_cols));
  if (plan.query.distinct) {
    // SETOF: duplicate suppression stays lazy too.
    pipeline = std::make_unique<stream::DistinctStream>(std::move(pipeline));
  }
  return pipeline;
}

}  // namespace braid::cms
