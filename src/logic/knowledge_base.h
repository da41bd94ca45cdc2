#ifndef BRAID_LOGIC_KNOWLEDGE_BASE_H_
#define BRAID_LOGIC_KNOWLEDGE_BASE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "logic/rule.h"

namespace braid::logic {

/// Second-order assertion kinds supported by BrAID's knowledge base (paper
/// §4, "Use of second-order properties").
///
/// Mutual exclusion: at most one of the two predicates holds for any given
/// binding. Used by the problem-graph shaper to cull OR branches and by the
/// path-expression creator to emit selection terms of 1 on alternations.
struct MutualExclusionSoa {
  std::string predicate_a;
  std::string predicate_b;
};

/// Functional dependency within a base relation: the `determinant` argument
/// positions determine the `dependent` positions. Used for conjunct
/// ordering and cardinality estimation in the shaper.
struct FunctionalDependencySoa {
  std::string predicate;
  std::vector<size_t> determinant;
  std::vector<size_t> dependent;
};

/// Declares `closure_predicate` as the transitive closure of
/// `base_predicate` (a recursive-structure SOA, cf. [OHAR87]). The compiled
/// inference strategy maps this to the CMS fixed-point operator.
struct RecursiveStructureSoa {
  std::string closure_predicate;
  std::string base_predicate;
};

/// Kind of aggregate computed by an aggregate rule (the paper's AGG
/// second-order predicate family).
enum class AggregateFn { kCount, kSum, kMin, kMax, kAvg };

const char* AggregateFnName(AggregateFn fn);

/// An aggregate rule, declared as
///   #agg degree(X, N) = count Y : edge(X, Y).
/// The head's leading arguments are the grouping variables and its last
/// argument receives the aggregate of `agg_var` over the body atom's
/// solutions, grouped by the grouping variables.
struct AggregateRule {
  std::string head_predicate;
  std::vector<std::string> group_vars;
  std::string result_var;  // head's last argument (receives the aggregate)
  AggregateFn fn = AggregateFn::kCount;
  std::string agg_var;
  Atom body;

  size_t HeadArity() const { return group_vars.size() + 1; }
  std::string ToString() const;
};

/// The IE's knowledge base: Horn rules over user-defined (IDB) relations,
/// declarations of which predicates are base (EDB) relations stored in the
/// remote DBMS, and second-order assertions.
class KnowledgeBase {
 public:
  KnowledgeBase() = default;

  /// Declares `name` as a base relation stored in the remote DBMS with the
  /// given column names (arity = attribute_names.size()).
  Status DeclareBaseRelation(const std::string& name,
                             std::vector<std::string> attribute_names);

  /// Adds a rule; assigns it the next id ("R<n>") if `rule.id` is empty.
  /// The head predicate must not be a declared base relation.
  Status AddRule(Rule rule);

  void AddMutualExclusion(MutualExclusionSoa soa) {
    mutex_soas_.push_back(std::move(soa));
    Bump();
  }
  void AddFunctionalDependency(FunctionalDependencySoa soa) {
    fd_soas_.push_back(std::move(soa));
    Bump();
  }
  void AddRecursiveStructure(RecursiveStructureSoa soa) {
    recursive_soas_.push_back(std::move(soa));
    Bump();
  }

  /// Registers an aggregate rule; the head predicate must be otherwise
  /// undefined. Grouping variables and the aggregate variable must occur
  /// in the body atom.
  Status AddAggregateRule(AggregateRule rule);

  bool IsAggregate(const std::string& name) const {
    return aggregate_rules_.count(name) > 0;
  }
  const AggregateRule* AggregateRuleFor(const std::string& name) const {
    auto it = aggregate_rules_.find(name);
    return it == aggregate_rules_.end() ? nullptr : &it->second;
  }
  const std::map<std::string, AggregateRule>& aggregate_rules() const {
    return aggregate_rules_;
  }

  bool IsBaseRelation(const std::string& name) const {
    return base_relations_.count(name) > 0;
  }
  bool IsUserDefined(const std::string& name) const {
    return rules_by_predicate_.count(name) > 0;
  }

  /// Column names of a base relation, or nullopt.
  std::optional<std::vector<std::string>> BaseRelationAttributes(
      const std::string& name) const;

  /// Rules whose head predicate is `name` (empty if none).
  const std::vector<Rule>& RulesFor(const std::string& name) const;

  const std::vector<Rule>& rules() const { return all_rules_; }
  const std::map<std::string, std::vector<std::string>>& base_relations()
      const {
    return base_relations_;
  }
  const std::vector<MutualExclusionSoa>& mutex_soas() const {
    return mutex_soas_;
  }
  const std::vector<FunctionalDependencySoa>& fd_soas() const {
    return fd_soas_;
  }
  const std::vector<RecursiveStructureSoa>& recursive_soas() const {
    return recursive_soas_;
  }

  bool AreMutuallyExclusive(const std::string& a, const std::string& b) const;

  /// The transitive-closure base predicate for `closure_predicate`, if a
  /// recursive-structure SOA declares one.
  std::optional<std::string> ClosureBaseOf(
      const std::string& closure_predicate) const;

  /// Renders the whole knowledge base as re-parseable text.
  std::string ToString() const;

  /// Content version: changes with every successful mutation. Versions
  /// are drawn from one process-wide sequence, so no two contents of any
  /// knowledge bases share one, even when a knowledge base object is
  /// reassigned; a fresh, empty knowledge base is version 0. The IE keys
  /// its memoized pre-analyses on it.
  uint64_t version() const { return version_; }

 private:
  /// Moves to a fresh version after a mutation.
  void Bump();

  std::map<std::string, std::vector<std::string>> base_relations_;
  std::vector<Rule> all_rules_;
  std::map<std::string, std::vector<Rule>> rules_by_predicate_;
  std::vector<MutualExclusionSoa> mutex_soas_;
  std::vector<FunctionalDependencySoa> fd_soas_;
  std::vector<RecursiveStructureSoa> recursive_soas_;
  std::map<std::string, AggregateRule> aggregate_rules_;
  int next_rule_number_ = 1;
  uint64_t version_ = 0;
  static const std::vector<Rule> kNoRules;
};

}  // namespace braid::logic

#endif  // BRAID_LOGIC_KNOWLEDGE_BASE_H_
