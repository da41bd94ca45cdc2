#include "ie/shaper.h"

#include <algorithm>
#include <limits>

#include "caql/caql_query.h"

namespace braid::ie {

namespace {

using logic::Atom;

bool IsGroundComparisonTrue(const Atom& atom) {
  return rel::EvalCompare(atom.comparison_op(), atom.args[0].value(),
                          atom.args[1].value());
}

bool AllArgsBound(const Atom& atom, const std::set<std::string>& bound) {
  for (const logic::Term& t : atom.args) {
    if (t.is_variable() && bound.count(t.var_name()) == 0) return false;
  }
  return true;
}

}  // namespace

Status ProblemGraphShaper::Shape(ProblemGraph* graph,
                                 ResidencyBits* consulted) const {
  if (graph->root == nullptr) {
    return Status::InvalidArgument("empty problem graph");
  }
  if (config_.cull) {
    Cull(graph->root.get());
  }
  // Root binding pattern: the AI query's constants are "bound"; its
  // variables are free (the application wants bindings for them).
  graph->root->bound_vars.clear();
  ResidencyBits residency;
  OrderAndBind(graph->root.get(),
               consulted != nullptr ? consulted : &residency);
  MarkMutex(graph->root.get());
  return Status::Ok();
}

bool ProblemGraphShaper::Cull(OrNode* node) const {
  switch (node->leaf) {
    case OrNode::LeafKind::kBase:
    case OrNode::LeafKind::kRecursive:
    case OrNode::LeafKind::kAggregate:
      return true;
    case OrNode::LeafKind::kBuiltin:
      // A ground false built-in kills its alternative; anything else may
      // still succeed.
      if (node->goal.IsComparison() && node->goal.IsGround()) {
        return IsGroundComparisonTrue(node->goal);
      }
      return true;
    case OrNode::LeafKind::kExpanded:
      break;
  }
  auto& alts = node->alternatives;
  for (auto it = alts.begin(); it != alts.end();) {
    bool alive = true;
    for (auto& sub : (*it)->subgoals) {
      if (!Cull(sub.get())) {
        alive = false;
        break;
      }
    }
    // Drop ground-true comparisons from the body (they are satisfied).
    if (alive) {
      auto& subs = (*it)->subgoals;
      subs.erase(std::remove_if(subs.begin(), subs.end(),
                                [](const std::unique_ptr<OrNode>& s) {
                                  return s->leaf ==
                                             OrNode::LeafKind::kBuiltin &&
                                         s->goal.IsComparison() &&
                                         s->goal.IsGround() &&
                                         IsGroundComparisonTrue(s->goal);
                                }),
                 subs.end());
    }
    it = alive ? it + 1 : alts.erase(it);
  }
  return !alts.empty();
}

bool ProblemGraphShaper::Resident(const std::string& predicate,
                                  ResidencyBits* residency) const {
  for (const auto& [p, bit] : *residency) {
    if (p == predicate) return bit;
  }
  const bool bit = cache_model_->HasMaterializedFor(predicate);
  residency->emplace_back(predicate, bit);
  return bit;
}

double ProblemGraphShaper::EstimateGoal(const OrNode& node,
                                        const std::set<std::string>& bound,
                                        ResidencyBits* residency) const {
  const Atom& goal = node.goal;
  // Negated literals are cheap checks once ground, but must wait for
  // their variables to be produced.
  if (goal.negated) {
    return AllArgsBound(goal, bound) ? 0.6 : 1e9;
  }
  switch (node.leaf) {
    case OrNode::LeafKind::kBuiltin:
      return AllArgsBound(goal, bound) ? 0.5 : 1e9;  // defer until ready
    case OrNode::LeafKind::kBase: {
      const dbms::TableStats* stats =
          schema_ != nullptr ? schema_->GetStats(goal.predicate) : nullptr;
      double card = stats != nullptr
                        ? std::max<size_t>(1, stats->cardinality)
                        : 1000.0;
      // Selectivity of each bound position.
      std::set<size_t> bound_positions;
      for (size_t i = 0; i < goal.args.size(); ++i) {
        const logic::Term& t = goal.args[i];
        const bool is_bound =
            t.is_constant() ||
            (t.is_variable() && bound.count(t.var_name()) > 0);
        if (!is_bound) continue;
        bound_positions.insert(i);
        card *= stats != nullptr ? stats->EqSelectivity(i) : 0.1;
      }
      // Functional dependencies: if a determinant is fully bound, at most
      // one tuple matches per binding.
      for (const logic::FunctionalDependencySoa& fd : kb_->fd_soas()) {
        if (fd.predicate != goal.predicate) continue;
        const bool determined = std::all_of(
            fd.determinant.begin(), fd.determinant.end(),
            [&bound_positions](size_t p) {
              return bound_positions.count(p) > 0;
            });
        if (determined) card = std::min(card, 1.0);
      }
      // Cache-residency discount: a subgoal answerable from the cache
      // costs no communication, so prefer visiting it early.
      if (cache_model_ != nullptr && Resident(goal.predicate, residency)) {
        card *= 0.05;
      }
      return std::max(card, 0.01);
    }
    case OrNode::LeafKind::kAggregate:
    case OrNode::LeafKind::kRecursive:
    case OrNode::LeafKind::kExpanded: {
      // User-defined goals: a coarse guess favouring bound arguments.
      size_t bound_args = 0;
      for (const logic::Term& t : goal.args) {
        if (t.is_constant() ||
            (t.is_variable() && bound.count(t.var_name()) > 0)) {
          ++bound_args;
        }
      }
      return 1000.0 / static_cast<double>(1 + bound_args);
    }
  }
  return 1000.0;
}

void ProblemGraphShaper::OrderAndBind(OrNode* node,
                                      ResidencyBits* residency) const {
  for (auto& alt : node->alternatives) {
    // Variables of the head bound at call time: head positions whose goal
    // argument is bound (a constant, or a bound variable of the caller).
    std::set<std::string> bound;
    for (size_t i = 0; i < alt->head.args.size() && i < node->goal.args.size();
         ++i) {
      const logic::Term& caller_arg = node->goal.args[i];
      const logic::Term& head_arg = alt->head.args[i];
      const bool caller_bound =
          caller_arg.is_constant() ||
          (caller_arg.is_variable() &&
           node->bound_vars.count(caller_arg.var_name()) > 0);
      if (caller_bound && head_arg.is_variable()) {
        bound.insert(head_arg.var_name());
      }
    }

    if (config_.reorder) {
      // Greedy producer-consumer ordering: repeatedly pick the cheapest
      // ready subgoal.
      std::vector<std::unique_ptr<OrNode>> ordered;
      auto& subs = alt->subgoals;
      while (!subs.empty()) {
        size_t best = 0;
        double best_cost = std::numeric_limits<double>::infinity();
        for (size_t i = 0; i < subs.size(); ++i) {
          const double cost = EstimateGoal(*subs[i], bound, residency);
          if (cost < best_cost) {
            best_cost = cost;
            best = i;
          }
        }
        std::unique_ptr<OrNode> picked = std::move(subs[best]);
        subs.erase(subs.begin() + static_cast<long>(best));
        for (const std::string& v : picked->goal.Variables()) {
          bound.insert(v);
        }
        ordered.push_back(std::move(picked));
      }
      alt->subgoals = std::move(ordered);
      // Recompute binding patterns along the chosen order.
      bound.clear();
      for (size_t i = 0;
           i < alt->head.args.size() && i < node->goal.args.size(); ++i) {
        const logic::Term& caller_arg = node->goal.args[i];
        const logic::Term& head_arg = alt->head.args[i];
        const bool caller_bound =
            caller_arg.is_constant() ||
            (caller_arg.is_variable() &&
             node->bound_vars.count(caller_arg.var_name()) > 0);
        if (caller_bound && head_arg.is_variable()) {
          bound.insert(head_arg.var_name());
        }
      }
    }

    for (auto& sub : alt->subgoals) {
      sub->bound_vars.clear();
      for (const std::string& v : sub->goal.Variables()) {
        if (bound.count(v) > 0) sub->bound_vars.insert(v);
      }
      OrderAndBind(sub.get(), residency);
      for (const std::string& v : sub->goal.Variables()) bound.insert(v);
    }
  }
}

void ProblemGraphShaper::MarkMutex(OrNode* node) const {
  if (node->alternatives.size() >= 2) {
    bool all_pairs = true;
    for (size_t i = 0; i + 1 < node->alternatives.size() && all_pairs; ++i) {
      for (size_t j = i + 1; j < node->alternatives.size() && all_pairs;
           ++j) {
        bool pair_mutex = false;
        for (const auto& si : node->alternatives[i]->subgoals) {
          for (const auto& sj : node->alternatives[j]->subgoals) {
            if (kb_->AreMutuallyExclusive(si->goal.predicate,
                                          sj->goal.predicate)) {
              pair_mutex = true;
            }
          }
        }
        if (!pair_mutex) all_pairs = false;
      }
    }
    node->alternatives_mutex = all_pairs;
  }
  for (auto& alt : node->alternatives) {
    for (auto& sub : alt->subgoals) MarkMutex(sub.get());
  }
}

}  // namespace braid::ie
