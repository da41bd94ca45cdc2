#ifndef BRAID_IE_INTERPRETED_STRATEGY_H_
#define BRAID_IE_INTERPRETED_STRATEGY_H_

#include <functional>
#include <string>

#include "cms/cms.h"
#include "common/status.h"
#include "ie/view_specifier.h"
#include "logic/knowledge_base.h"
#include "logic/substitution.h"
#include "relational/relation.h"

namespace braid::ie {

struct InterpreterConfig {
  size_t max_depth = 64;          // recursion guard (branches are pruned)
  size_t max_solutions = SIZE_MAX;  // 1 = Prolog-style single solution
};

struct InterpreterStats {
  size_t caql_queries = 0;    // queries emitted to the CMS
  size_t tuples_consumed = 0; // stream tuples actually pulled
  size_t builtin_evals = 0;
  size_t depth_prunes = 0;    // branches cut by the depth guard
  size_t solutions = 0;
};

/// The interpreted inference strategy: depth-first search with
/// chronological backtracking (the Prolog strategy the paper's detailed
/// discussion assumes). The strategy controller walks the rule plans
/// produced by the view specifier, sending one CAQL query per run and
/// consuming result streams tuple-at-a-time — so unneeded solutions are
/// never computed when the CMS evaluates lazily.
class InterpretedStrategy {
 public:
  /// `pre` supplies the rule plans and the views their runs instantiate.
  InterpretedStrategy(const logic::KnowledgeBase* kb,
                      const CompiledPreanalysis* pre, cms::Cms* cms,
                      InterpreterConfig config)
      : kb_(kb), pre_(pre), cms_(cms), config_(config) {}

  /// Solves the AI query; returns one row per solution, columns named by
  /// the query's variables (in first-occurrence order).
  Result<rel::Relation> Solve(const logic::Atom& query);

  const InterpreterStats& stats() const { return stats_; }

 private:
  /// Continuation: called per solution extension; returns false to stop
  /// the search (single-solution mode).
  using Emit = std::function<Result<bool>(const logic::Substitution&)>;

  Result<bool> SolveGoal(const logic::Atom& goal,
                         const logic::Substitution& subst, size_t depth,
                         const Emit& emit);
  Result<bool> SolveItems(const RulePlan& plan, const std::string& suffix,
                          size_t index, const logic::Substitution& subst,
                          size_t depth, const Emit& emit);
  Result<bool> SolveRun(const RuleItem& item, const std::string& suffix,
                        const logic::Substitution& subst,
                        const std::function<Result<bool>(
                            const logic::Substitution&)>& next);
  Result<bool> SolveBuiltin(const logic::Atom& atom,
                            const logic::Substitution& subst,
                            const Emit& emit);

  /// Solves a goal against an #agg rule: computes the full grouped
  /// aggregate relation once per Solve() (memoized), then matches the
  /// goal's arguments against its rows.
  Result<bool> SolveAggregate(const logic::Atom& goal,
                              const logic::Substitution& subst, size_t depth,
                              const Emit& emit);

  const logic::KnowledgeBase* kb_;
  const CompiledPreanalysis* pre_;
  cms::Cms* cms_;
  InterpreterConfig config_;
  InterpreterStats stats_;
  int invocation_counter_ = 0;
  /// Aggregate relations computed this Solve() run, by head predicate.
  std::map<std::string, rel::Relation> aggregate_cache_;
};

}  // namespace braid::ie

#endif  // BRAID_IE_INTERPRETED_STRATEGY_H_
