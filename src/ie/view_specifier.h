#ifndef BRAID_IE_VIEW_SPECIFIER_H_
#define BRAID_IE_VIEW_SPECIFIER_H_

#include <map>
#include <string>
#include <vector>

#include "advice/advice.h"
#include "advice/view_spec.h"
#include "common/status.h"
#include "ie/problem_graph.h"
#include "logic/knowledge_base.h"

namespace braid::ie {

/// One step of a rule's execution plan, in shaped (reordered) body order.
struct RuleItem {
  enum class Kind {
    kRun,      // a conjunction of base/built-in atoms → one CAQL query
    kCall,     // a user-defined (possibly recursive) subgoal → recursion
    kBuiltin,  // a standalone built-in evaluated by the IE
  };
  Kind kind = Kind::kCall;

  // kRun:
  std::string view_id;                 // the ViewSpec this run instantiates
  std::vector<logic::Atom> run_atoms;  // original-variable atoms

  // kCall / kBuiltin:
  logic::Atom call;       // original-variable atom
  size_t body_index = 0;  // position in the rule's original body

  bool operator==(const RuleItem& other) const = default;
};

/// The per-rule plan the inference strategies execute: items in producer-
/// consumer order, all phrased in the rule's original variables so any
/// goal instance can be solved by renaming + unification.
struct RulePlan {
  std::string rule_id;
  logic::Atom head;              // original rule head
  std::vector<RuleItem> items;

  bool operator==(const RulePlan& other) const = default;
};

/// The view specifier's output: the view specifications (advice) plus the
/// rule plans the strategy controller walks.
struct ViewSpecification {
  std::vector<advice::ViewSpec> views;
  std::map<std::string, RulePlan> rule_plans;  // by rule id

  const advice::ViewSpec* FindView(const std::string& id) const {
    for (const advice::ViewSpec& v : views) {
      if (v.id == id) return &v;
    }
    return nullptr;
  }
};

/// What answering keeps of a pre-analysis: the rule plans the strategy
/// walks and the advice compiled for the CMS (which holds the view
/// specifications), without the problem graph. Immutable; the inference
/// engine's memo and every Ask it served share one by pointer.
struct CompiledPreanalysis {
  std::map<std::string, RulePlan> rule_plans;  // by rule id
  advice::CompiledAdvicePtr advice;
};

struct ViewSpecifierConfig {
  /// Maximum number of relation atoms per view specification (the paper's
  /// flattening-size parameter; 1 = one CAQL query per base atom, i.e. the
  /// fully interpreted end of the I-C range).
  size_t max_conjunction_size = 3;
};

/// The view specifier (paper §4.1/§4.2.1): walks the shaped problem graph,
/// groups maximal sequences of base and built-in predicates under each AND
/// node into view specifications (capped at `max_conjunction_size` base
/// atoms), computes each specification's minimum argument set
/// A = (H ∪ B) ∩ D, and derives producer/consumer binding annotations from
/// the shaper's binding patterns.
class ViewSpecifier {
 public:
  ViewSpecifier(const logic::KnowledgeBase* kb, ViewSpecifierConfig config)
      : kb_(kb), config_(config) {}

  Result<ViewSpecification> Specify(const ProblemGraph& graph) const;

 private:
  void VisitOr(const OrNode& node, ViewSpecification* out,
               int* view_counter) const;
  void VisitAnd(const AndNode& node, ViewSpecification* out,
                int* view_counter) const;

  const logic::KnowledgeBase* kb_;
  ViewSpecifierConfig config_;
};

}  // namespace braid::ie

#endif  // BRAID_IE_VIEW_SPECIFIER_H_
