#ifndef BRAID_IE_SHAPER_H_
#define BRAID_IE_SHAPER_H_

#include <string>
#include <utility>
#include <vector>

#include "cms/cache_model.h"
#include "common/status.h"
#include "dbms/database.h"
#include "ie/problem_graph.h"
#include "logic/knowledge_base.h"

namespace braid::ie {

/// The cache-residency answers (CacheModel::HasMaterializedFor) one
/// shaping consulted: one per predicate, in first-consulted order. Beyond
/// the knowledge base, the schema and the configuration, they are all a
/// shaping depends on, so a shaping stays valid while every bit still
/// holds.
using ResidencyBits = std::vector<std::pair<std::string, bool>>;

struct ShaperConfig {
  bool cull = true;     // evaluate ground built-ins, drop dead alternatives
  bool reorder = true;  // producer/consumer conjunct ordering
};

/// The problem-graph shaper (paper §4.1): eagerly constrains the problem
/// graph before any DBMS access.
///
///  * Constant propagation happened during extraction (head unification
///    pushes query and rule constants along unification arcs); the shaper
///    finishes the job by evaluating built-ins whose arguments are all
///    constants, deleting those that hold and culling alternatives that
///    contain one that fails (and, transitively, OR nodes left with no
///    alternatives).
///  * Cardinality and selectivity information from the DBMS schema and
///    functional-dependency SOAs determine producer-consumer relationships,
///    realized as conjunct reorderings and binding patterns (`bound_vars`
///    on each OR node).
///  * Mutual-exclusion SOAs mark OR nodes whose alternatives are pairwise
///    exclusive (used by the path-expression creator for selection terms).
class ProblemGraphShaper {
 public:
  /// `cache_model` (optional) is the CMS's cache model — the IE "can
  /// access cache model information from the CMS" (§3) — letting the
  /// shaper discount subgoals whose data is already cache-resident when
  /// ordering conjuncts.
  ProblemGraphShaper(const logic::KnowledgeBase* kb,
                     const dbms::Database* schema, ShaperConfig config = {},
                     const cms::CacheModel* cache_model = nullptr)
      : kb_(kb), schema_(schema), config_(config),
        cache_model_(cache_model) {}

  /// Shapes `graph` in place. The cache model is asked at most once per
  /// predicate; with `consulted` non-null, the answers are appended there.
  Status Shape(ProblemGraph* graph, ResidencyBits* consulted = nullptr) const;

 private:
  /// Bottom-up culling. Returns false if the node cannot succeed (caller
  /// culls the enclosing alternative).
  bool Cull(OrNode* node) const;

  /// Top-down: reorders each AND body and assigns binding patterns.
  void OrderAndBind(OrNode* node, ResidencyBits* residency) const;

  /// Estimated result cardinality of a subgoal given bound variables.
  double EstimateGoal(const OrNode& node, const std::set<std::string>& bound,
                      ResidencyBits* residency) const;

  /// Whether `predicate` has cache-resident data: the answer already in
  /// `residency`, else the cache model's, recorded there.
  bool Resident(const std::string& predicate, ResidencyBits* residency) const;

  void MarkMutex(OrNode* node) const;

  const logic::KnowledgeBase* kb_;
  const dbms::Database* schema_;
  ShaperConfig config_;
  const cms::CacheModel* cache_model_;
};

}  // namespace braid::ie

#endif  // BRAID_IE_SHAPER_H_
