#include "logic/knowledge_base.h"

#include <algorithm>
#include <atomic>
#include <sstream>

#include "common/strings.h"

namespace braid::logic {

const std::vector<Rule> KnowledgeBase::kNoRules;

const char* AggregateFnName(AggregateFn fn) {
  switch (fn) {
    case AggregateFn::kCount:
      return "count";
    case AggregateFn::kSum:
      return "sum";
    case AggregateFn::kMin:
      return "min";
    case AggregateFn::kMax:
      return "max";
    case AggregateFn::kAvg:
      return "avg";
  }
  return "?";
}

std::string AggregateRule::ToString() const {
  std::ostringstream os;
  os << "#agg " << head_predicate << "(" << StrJoin(group_vars, ", ")
     << (group_vars.empty() ? "" : ", ")
     << (result_var.empty() ? "N" : result_var)
     << ") = " << AggregateFnName(fn) << " " << agg_var << " : "
     << body.ToString() << ".";
  return os.str();
}

Status KnowledgeBase::AddAggregateRule(AggregateRule rule) {
  if (base_relations_.count(rule.head_predicate) > 0 ||
      rules_by_predicate_.count(rule.head_predicate) > 0 ||
      aggregate_rules_.count(rule.head_predicate) > 0) {
    return Status::AlreadyExists(
        StrCat("predicate ", rule.head_predicate, " already defined"));
  }
  std::vector<std::string> body_vars = rule.body.Variables();
  auto in_body = [&body_vars](const std::string& v) {
    return std::find(body_vars.begin(), body_vars.end(), v) !=
           body_vars.end();
  };
  for (const std::string& g : rule.group_vars) {
    if (!in_body(g)) {
      return Status::InvalidArgument(
          StrCat("aggregate group variable ", g, " not in body"));
    }
  }
  if (rule.fn != AggregateFn::kCount && !in_body(rule.agg_var)) {
    return Status::InvalidArgument(
        StrCat("aggregate variable ", rule.agg_var, " not in body"));
  }
  aggregate_rules_.emplace(rule.head_predicate, std::move(rule));
  Bump();
  return Status::Ok();
}

Status KnowledgeBase::DeclareBaseRelation(
    const std::string& name, std::vector<std::string> attribute_names) {
  if (rules_by_predicate_.count(name) > 0) {
    return Status::InvalidArgument(
        StrCat("predicate ", name, " already defined by rules"));
  }
  auto [it, inserted] =
      base_relations_.emplace(name, std::move(attribute_names));
  if (!inserted) {
    return Status::AlreadyExists(StrCat("base relation ", name));
  }
  (void)it;
  Bump();
  return Status::Ok();
}

Status KnowledgeBase::AddRule(Rule rule) {
  if (base_relations_.count(rule.head.predicate) > 0) {
    return Status::InvalidArgument(
        StrCat("cannot define rule for base relation ", rule.head.predicate));
  }
  if (rule.head.IsComparison()) {
    return Status::InvalidArgument("cannot define rule for a comparison");
  }
  if (rule.id.empty()) {
    rule.id = StrCat("R", next_rule_number_++);
  }
  rules_by_predicate_[rule.head.predicate].push_back(rule);
  all_rules_.push_back(std::move(rule));
  Bump();
  return Status::Ok();
}

void KnowledgeBase::Bump() {
  static std::atomic<uint64_t> next_version{1};
  version_ = next_version.fetch_add(1, std::memory_order_relaxed);
}

std::optional<std::vector<std::string>> KnowledgeBase::BaseRelationAttributes(
    const std::string& name) const {
  auto it = base_relations_.find(name);
  if (it == base_relations_.end()) return std::nullopt;
  return it->second;
}

const std::vector<Rule>& KnowledgeBase::RulesFor(
    const std::string& name) const {
  auto it = rules_by_predicate_.find(name);
  return it == rules_by_predicate_.end() ? kNoRules : it->second;
}

bool KnowledgeBase::AreMutuallyExclusive(const std::string& a,
                                         const std::string& b) const {
  for (const MutualExclusionSoa& soa : mutex_soas_) {
    if ((soa.predicate_a == a && soa.predicate_b == b) ||
        (soa.predicate_a == b && soa.predicate_b == a)) {
      return true;
    }
  }
  return false;
}

std::optional<std::string> KnowledgeBase::ClosureBaseOf(
    const std::string& closure_predicate) const {
  for (const RecursiveStructureSoa& soa : recursive_soas_) {
    if (soa.closure_predicate == closure_predicate) {
      return soa.base_predicate;
    }
  }
  return std::nullopt;
}

std::string KnowledgeBase::ToString() const {
  std::ostringstream os;
  for (const auto& [name, attrs] : base_relations_) {
    os << "#base " << name << "(" << StrJoin(attrs, ", ") << ").\n";
  }
  for (const MutualExclusionSoa& soa : mutex_soas_) {
    os << "#mutex " << soa.predicate_a << ", " << soa.predicate_b << ".\n";
  }
  for (const FunctionalDependencySoa& soa : fd_soas_) {
    os << "#fd " << soa.predicate << ": ";
    for (size_t i = 0; i < soa.determinant.size(); ++i) {
      if (i > 0) os << " ";
      os << soa.determinant[i];
    }
    os << " -> ";
    for (size_t i = 0; i < soa.dependent.size(); ++i) {
      if (i > 0) os << " ";
      os << soa.dependent[i];
    }
    os << ".\n";
  }
  for (const RecursiveStructureSoa& soa : recursive_soas_) {
    os << "#closure " << soa.closure_predicate << " = " << soa.base_predicate
       << ".\n";
  }
  for (const auto& [name, agg] : aggregate_rules_) {
    os << agg.ToString() << "\n";
  }
  for (const Rule& r : all_rules_) {
    os << r.ToString() << "\n";
  }
  return os.str();
}

}  // namespace braid::logic
