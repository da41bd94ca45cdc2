#include "ie/inference_engine.h"

#include <functional>
#include <utility>

#include "logic/parser.h"

namespace braid::ie {

namespace {

/// Exact structural identity of two goals: unlike Atom::operator==, a
/// constant matches only a constant of the same type (1 is not 1.0), since
/// the pre-analysis carries the goal's constants into its advice.
bool SameGoal(const logic::Atom& a, const logic::Atom& b) {
  if (a.predicate != b.predicate || a.negated != b.negated ||
      a.args.size() != b.args.size()) {
    return false;
  }
  for (size_t i = 0; i < a.args.size(); ++i) {
    const logic::Term& x = a.args[i];
    const logic::Term& y = b.args[i];
    if (x.is_variable() != y.is_variable()) return false;
    if (x.is_variable() ? x.var_name() != y.var_name()
                        : x.value().type() != y.value().type() ||
                              x.value() != y.value()) {
      return false;
    }
  }
  return true;
}

/// Hash consistent with SameGoal.
size_t GoalHash(const logic::Atom& goal) {
  size_t h = std::hash<std::string>{}(goal.predicate) * 2 + goal.negated;
  for (const logic::Term& t : goal.args) {
    const size_t term =
        t.is_variable()
            ? std::hash<std::string>{}(t.var_name())
            : t.value().Hash() * 31 + static_cast<size_t>(t.value().type());
    h = h * 1000003 ^ term;
  }
  return h;
}

}  // namespace

Result<Preanalysis> InferenceEngine::Analyze(const logic::Atom& query) const {
  return Analyze(query, /*residency=*/nullptr);
}

Result<Preanalysis> InferenceEngine::Analyze(const logic::Atom& query,
                                             ResidencyBits* residency) const {
  Preanalysis pre;

  ProblemGraphExtractor extractor(kb_);
  BRAID_ASSIGN_OR_RETURN(pre.graph, extractor.Extract(query));

  ProblemGraphShaper shaper(kb_, &cms_->RemoteSchema(),
                            ShaperConfig{config_.shaper_cull,
                                         config_.shaper_reorder},
                            &cms_->cache().model());
  BRAID_RETURN_IF_ERROR(shaper.Shape(&pre.graph, residency));

  ViewSpecifier specifier(kb_,
                          ViewSpecifierConfig{config_.max_conjunction_size});
  BRAID_ASSIGN_OR_RETURN(pre.spec, specifier.Specify(pre.graph));

  pre.advice.base_relations = pre.graph.BaseRelations();
  pre.advice.view_specs = pre.spec.views;
  if (config_.send_path_expression) {
    PathExpressionCreator path_creator(&pre.spec);
    pre.advice.path_expression = path_creator.Create(pre.graph);
  }
  return pre;
}

Result<std::shared_ptr<const CompiledPreanalysis>> InferenceEngine::Preanalyze(
    const logic::Atom& query) {
  const size_t hash = GoalHash(query);
  auto [it, end] = memo_index_.equal_range(hash);
  for (; it != end; ++it) {
    MemoEntry& entry = *it->second;
    if (!(entry.config == config_) || !SameGoal(entry.goal, query)) continue;
    bool valid = entry.kb_version == kb_->version();
    for (size_t i = 0; valid && i < entry.residency.size(); ++i) {
      const auto& [predicate, bit] = entry.residency[i];
      valid = cms_->cache().model().HasMaterializedFor(predicate) == bit;
    }
    if (valid) {
      memo_.splice(memo_.begin(), memo_, it->second);
      return entry.preanalysis;
    }
    memo_.erase(it->second);  // stale: replaced below
    memo_index_.erase(it);
    break;
  }

  ResidencyBits residency;
  BRAID_ASSIGN_OR_RETURN(Preanalysis pre, Analyze(query, &residency));
  auto compiled = std::make_shared<CompiledPreanalysis>();
  compiled->rule_plans = std::move(pre.spec.rule_plans);
  compiled->advice = advice::Compile(std::move(pre.advice));

  memo_.push_front(MemoEntry{query, config_, kb_->version(),
                             std::move(residency), compiled});
  memo_index_.emplace(hash, memo_.begin());
  if (memo_.size() > kMemoCapacity) {
    const MemoList::iterator last = std::prev(memo_.end());
    auto [vit, vend] = memo_index_.equal_range(GoalHash(last->goal));
    for (; vit != vend; ++vit) {
      if (vit->second == last) {
        memo_index_.erase(vit);
        break;
      }
    }
    memo_.erase(last);
  }
  return std::shared_ptr<const CompiledPreanalysis>(std::move(compiled));
}

Result<AskOutcome> InferenceEngine::Ask(const logic::Atom& query) {
  AskOutcome outcome;
  BRAID_ASSIGN_OR_RETURN(outcome.preanalysis, Preanalyze(query));
  const CompiledPreanalysis& pre = *outcome.preanalysis;

  // Session start: transmit advice, then the CAQL query sequence follows.
  cms_->BeginSession(config_.send_advice ? pre.advice
                                         : advice::CompiledAdvice::Empty());

  switch (config_.strategy) {
    case StrategyKind::kInterpreted: {
      InterpretedStrategy strategy(
          kb_, &pre, cms_,
          InterpreterConfig{config_.max_depth, config_.max_solutions});
      BRAID_ASSIGN_OR_RETURN(outcome.solutions, strategy.Solve(query));
      outcome.interpreter_stats = strategy.stats();
      break;
    }
    case StrategyKind::kCompiled: {
      CompiledStrategy strategy(kb_, cms_, CompiledConfig{});
      BRAID_ASSIGN_OR_RETURN(outcome.solutions, strategy.Solve(query));
      outcome.compiled_stats = strategy.stats();
      if (config_.max_solutions < outcome.solutions.NumTuples()) {
        outcome.solutions.mutable_tuples().resize(config_.max_solutions);
      }
      break;
    }
  }
  return outcome;
}

Result<AskOutcome> InferenceEngine::Ask(const std::string& query_text) {
  BRAID_ASSIGN_OR_RETURN(logic::Atom query,
                         logic::ParseQueryAtom(query_text));
  return Ask(query);
}

}  // namespace braid::ie
