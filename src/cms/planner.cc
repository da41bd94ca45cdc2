#include "cms/planner.h"

#include <algorithm>
#include <set>
#include <sstream>

#include "cms/load_controller.h"
#include "common/strings.h"

namespace braid::cms {

namespace {

using caql::CaqlQuery;
using logic::Atom;

}  // namespace

std::string PlanSource::ToString() const {
  if (kind == Kind::kElement) {
    return StrCat("cache:", element->id(), " ", match.ToString());
  }
  return StrCat("remote:", remote_query.ToString());
}

std::string Plan::ToString() const {
  std::ostringstream os;
  os << "plan for " << query.ToString() << (fully_local ? " [local]" : "");
  for (const PlanSource& s : sources) {
    os << "\n  " << s.ToString();
  }
  for (const PlanSource& s : anti_sources) {
    os << "\n  anti: " << s.ToString();
  }
  if (!residual_comparisons.empty()) {
    os << "\n  residual:";
    for (const Atom& c : residual_comparisons) os << " " << c.ToString();
  }
  return os.str();
}

std::vector<CacheElementPtr> QueryPlanner::CandidateElements(
    const CaqlQuery& query, CatalogLookupStats* stats) const {
  if (config_.use_catalog) {
    return model_->SubsumptionCandidates(DescribeQuery(query), stats);
  }
  // Linear baseline: every element mentioning any query predicate, no
  // signature filtering (the pre-catalog behaviour).
  std::vector<CacheElementPtr> out;
  std::set<std::string> considered;
  for (const Atom& atom : query.RelationAtoms()) {
    for (const CacheElementPtr& element : model_->ByPredicate(atom.predicate)) {
      if (!considered.insert(element->id()).second) continue;
      out.push_back(element);
    }
  }
  if (stats != nullptr) {
    stats->probed += out.size();
    stats->admitted += out.size();
  }
  return out;
}

std::vector<std::pair<CacheElementPtr, SubsumptionMatch>>
QueryPlanner::RelevantElements(const CaqlQuery& query, obs::Tracer* tracer,
                               obs::SpanId parent) const {
  std::vector<std::pair<CacheElementPtr, SubsumptionMatch>> out;
  obs::SpanScope span(tracer, "subsumption", parent);
  if (!config_.enable_subsumption) {
    span.Annotate("matches", "0");
    return out;
  }

  const SubsumptionOptions options{config_.max_subsumption_mappings};
  CatalogLookupStats stats;
  size_t truncated = 0;
  for (const CacheElementPtr& element : CandidateElements(query, &stats)) {
    if (!element->is_materialized()) continue;
    // All distinct covered-component matches: one element may serve
    // several components (e.g. both sides of a self-join).
    SubsumptionInfo info;
    for (SubsumptionMatch& match :
         ComputeSubsumptionAll(element->definition(), query, options, &info)) {
      out.emplace_back(element, std::move(match));
    }
    if (info.truncated) ++truncated;
  }
  span.Annotate("candidates", std::to_string(stats.admitted));
  span.Annotate("matches", std::to_string(out.size()));
  // A hit cap means a viable mapping may have been dropped and the query
  // forced (partially) remote — surface it on the span so the forced
  // fetch is diagnosable from the trace alone.
  if (truncated > 0) span.Annotate("truncated", std::to_string(truncated));
  return out;
}

Result<Plan> QueryPlanner::PlanQuery(const CaqlQuery& query,
                                     obs::Tracer* tracer,
                                     obs::SpanId parent) const {
  BRAID_RETURN_IF_ERROR(query.Validate());
  obs::SpanScope plan_span(tracer, "plan", parent);
  Plan plan;
  plan.query = query;
  plan.evaluables = query.EvaluableAtoms();

  const std::vector<Atom> rel_atoms = query.RelationAtoms();
  const std::vector<Atom> comparisons = query.ComparisonAtoms();

  if (rel_atoms.empty()) {
    // Pure built-in query: no sources, everything residual/local.
    plan.residual_comparisons = comparisons;
    plan.fully_local = true;
    return plan;
  }

  // Step 2: relevant cache elements.
  auto matches = RelevantElements(query, tracer, plan_span.id());

  // Step 3 (element choice): when several elements can derive the same
  // component, prefer the cheaper derivation — more coverage first, then
  // fewer residual selections, then the smaller extension (§5.3.3's
  // E_101/E_102 vs E_103 example).
  std::sort(matches.begin(), matches.end(),
            [](const auto& a, const auto& b) {
              if (a.second.covered.size() != b.second.covered.size()) {
                return a.second.covered.size() > b.second.covered.size();
              }
              if (a.second.selections.size() != b.second.selections.size()) {
                return a.second.selections.size() < b.second.selections.size();
              }
              return a.first->extension()->NumTuples() <
                     b.first->extension()->NumTuples();
            });

  // Greedy disjoint cover of the query's relation atoms.
  std::vector<bool> covered(rel_atoms.size(), false);
  for (auto& [element, match] : matches) {
    bool overlaps = false;
    for (size_t qi : match.covered) {
      if (covered[qi]) {
        overlaps = true;
        break;
      }
    }
    if (overlaps) continue;
    for (size_t qi : match.covered) covered[qi] = true;
    PlanSource source;
    source.kind = PlanSource::Kind::kElement;
    source.element = element;
    source.match = std::move(match);
    plan.sources.push_back(std::move(source));
    if (std::all_of(covered.begin(), covered.end(),
                    [](bool c) { return c; })) {
      break;
    }
  }

  // Negated literals: one anti source each, from the cache when a cached
  // element subsumes the positive form, otherwise from the remote DBMS.
  for (const Atom& negated : query.NegatedAtoms()) {
    const Atom positive = negated.Positive();
    caql::CaqlQuery positive_query;
    positive_query.name = StrCat(query.name, "_not_", positive.predicate);
    for (const std::string& v : positive.Variables()) {
      positive_query.head_args.push_back(logic::Term::Var(v));
    }
    positive_query.body = {positive};

    PlanSource anti;
    bool local = false;
    if (config_.enable_subsumption) {
      const SubsumptionOptions options{config_.max_subsumption_mappings};
      for (const CacheElementPtr& element :
           CandidateElements(positive_query, nullptr)) {
        if (!element->is_materialized()) continue;
        auto match =
            ComputeSubsumption(element->definition(), positive_query, options);
        if (match.has_value() && match->full) {
          anti.kind = PlanSource::Kind::kElement;
          anti.element = element;
          anti.match = std::move(*match);
          local = true;
          break;
        }
      }
    }
    if (!local) {
      anti.kind = PlanSource::Kind::kRemote;
      anti.remote_query = positive_query;
      anti.remote_vars = positive.Variables();
      plan.fully_local = false;
    }
    plan.anti_sources.push_back(std::move(anti));
  }

  // Uncovered atoms form the remote subquery.
  std::vector<Atom> uncovered;
  std::set<std::string> uncovered_vars;
  for (size_t i = 0; i < rel_atoms.size(); ++i) {
    if (covered[i]) continue;
    uncovered.push_back(rel_atoms[i]);
    for (const std::string& v : rel_atoms[i].Variables()) {
      uncovered_vars.insert(v);
    }
  }

  if (uncovered.empty()) {
    bool anti_remote = false;
    for (const PlanSource& a : plan.anti_sources) {
      if (a.kind == PlanSource::Kind::kRemote) anti_remote = true;
    }
    plan.fully_local = !anti_remote;
    plan.residual_comparisons = comparisons;
    return plan;
  }

  // Comparisons whose variables live entirely in the remote subquery are
  // pushed to the server; the rest stay residual.
  std::vector<Atom> pushed;
  for (const Atom& comp : comparisons) {
    bool push = true;
    for (const std::string& v : comp.Variables()) {
      if (uncovered_vars.count(v) == 0) {
        push = false;
        break;
      }
    }
    if (push) {
      pushed.push_back(comp);
    } else {
      plan.residual_comparisons.push_back(comp);
    }
  }

  // Variables the rest of the plan needs from the remote side: head
  // variables, variables shared with covered atoms or residual built-ins.
  std::set<std::string> needed;
  for (const std::string& v : query.HeadVariables()) needed.insert(v);
  for (size_t i = 0; i < rel_atoms.size(); ++i) {
    if (!covered[i]) continue;
    for (const std::string& v : rel_atoms[i].Variables()) needed.insert(v);
  }
  {
    std::set<std::string> builtin_vars;
    logic::CollectVariables(plan.residual_comparisons, &builtin_vars);
    logic::CollectVariables(plan.evaluables, &builtin_vars);
    std::vector<Atom> negated = query.NegatedAtoms();
    logic::CollectVariables(negated, &builtin_vars);
    needed.insert(builtin_vars.begin(), builtin_vars.end());
  }

  PlanSource remote;
  remote.kind = PlanSource::Kind::kRemote;
  remote.remote_query.name = StrCat(query.name, "_remote");
  remote.remote_query.body = uncovered;
  for (const Atom& comp : pushed) remote.remote_query.body.push_back(comp);
  for (const std::string& v : uncovered_vars) {
    if (needed.count(v) > 0) {
      remote.remote_vars.push_back(v);
      remote.remote_query.head_args.push_back(logic::Term::Var(v));
    }
  }
  plan.sources.push_back(std::move(remote));
  plan.fully_local = false;
  return plan;
}

const char* SpeculativeAdmissionName(SpeculativeAdmission verdict) {
  switch (verdict) {
    case SpeculativeAdmission::kAdmit:
      return "admit";
    case SpeculativeAdmission::kAlreadyCached:
      return "already-cached";
    case SpeculativeAdmission::kFullyLocal:
      return "fully-local";
    case SpeculativeAdmission::kTooLarge:
      return "too-large";
    case SpeculativeAdmission::kUnplannable:
      return "unplannable";
    case SpeculativeAdmission::kShedOverload:
      return "shed-overload";
  }
  return "?";
}

SpeculativeAdmission JudgeSpeculative(
    const CacheModel& model, const QueryPlanner& planner,
    const caql::CaqlQuery& general, const caql::QueryKey& general_key,
    const std::function<double()>& estimated_result_bytes,
    size_t cache_budget_bytes, bool skip_if_fully_local, Plan* plan_out,
    const LoadController* load) {
  if (load != nullptr && load->ShouldShed()) {
    return SpeculativeAdmission::kShedOverload;
  }
  if (model.ByCanonicalKey(general_key) != nullptr) {
    return SpeculativeAdmission::kAlreadyCached;
  }
  if (estimated_result_bytes() >
      static_cast<double>(cache_budget_bytes) / 2) {
    return SpeculativeAdmission::kTooLarge;
  }
  if (skip_if_fully_local || plan_out != nullptr) {
    Result<Plan> plan = planner.PlanQuery(general);
    if (!plan.ok()) return SpeculativeAdmission::kUnplannable;
    if (skip_if_fully_local && plan->fully_local) {
      return SpeculativeAdmission::kFullyLocal;
    }
    if (plan_out != nullptr) *plan_out = std::move(*plan);
  }
  return SpeculativeAdmission::kAdmit;
}

}  // namespace braid::cms
