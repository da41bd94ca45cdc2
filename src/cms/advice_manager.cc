#include "cms/advice_manager.h"

#include <algorithm>

#include "logic/unify.h"

namespace braid::cms {

void AdviceManager::BeginSession(advice::CompiledAdvicePtr advice) {
  advice_ = std::move(advice);
  has_advice_ = true;
  queries_seen_ = 0;
  tracker_.reset();
  if (advice_->automaton() != nullptr) tracker_.emplace(advice_->automaton());
}

void AdviceManager::OnQuery(const std::string& view_id) {
  ++queries_seen_;
  if (tracker_.has_value() && !view_id.empty()) {
    tracker_->Advance(view_id);
  }
}

std::set<std::string> AdviceManager::PrefetchCandidates() const {
  if (!tracker_.has_value()) return {};
  return tracker_->PredictNext();
}

bool AdviceManager::ShouldCacheResult(const std::string& view_id) const {
  if (!tracker_.has_value() || view_id.empty()) return true;
  // Cache unless the tracker proves the view cannot appear again.
  return tracker_->MinDistanceTo(view_id).has_value();
}

std::vector<std::string> AdviceManager::IndexHints(
    const std::string& view_id) const {
  const advice::CompiledView* view = FindView(view_id);
  if (view == nullptr) return {};
  return view->spec->ConsumerVariables();
}

bool AdviceManager::LazyHint(const std::string& view_id) const {
  const advice::CompiledView* view = FindView(view_id);
  if (view == nullptr) return false;
  return view->spec->AllProducers();
}

std::optional<size_t> AdviceManager::PredictedDistance(
    const std::string& view_id) const {
  if (!tracker_.has_value() || view_id.empty()) return std::nullopt;
  return tracker_->MinDistanceTo(view_id);
}

bool AdviceManager::ShouldGeneralize(const std::string& view_id,
                                     const caql::CaqlQuery& instance) const {
  if (!has_advice_) return false;
  // Trigger 1: the view may recur — the general form will answer the later
  // instances with different constants.
  if (tracker_.has_value() && !view_id.empty() &&
      tracker_->MinDistanceTo(view_id).has_value()) {
    return true;
  }
  // Trigger 2: another view specification contains a more general
  // occurrence of one of the instance's constant-bearing atoms (the
  // paper's b1(X,Y)-in-d3 subsumes b1(c1,Y) example).
  for (const logic::Atom& q_atom : instance.RelationAtoms()) {
    if (q_atom.IsGround() || q_atom.Variables().size() == q_atom.arity()) {
      // Only atoms mixing constants and variables benefit.
      if (q_atom.Variables().size() == q_atom.arity()) continue;
    }
    for (const advice::ViewSpec& other : advice().view_specs) {
      if (other.id == view_id) continue;
      for (const logic::Atom& o_atom : other.body) {
        if (o_atom.predicate != q_atom.predicate ||
            o_atom.arity() != q_atom.arity()) {
          continue;
        }
        auto match = logic::MatchOneWay(o_atom, q_atom);
        if (!match.has_value()) continue;
        // Strictly more general: some constant of q_atom maps to a
        // variable of o_atom.
        for (size_t i = 0; i < q_atom.arity(); ++i) {
          if (q_atom.args[i].is_constant() && o_atom.args[i].is_variable()) {
            return true;
          }
        }
      }
    }
  }
  return false;
}

bool AdviceManager::SessionRelevant(const std::string& predicate) const {
  if (!has_advice_) return false;
  for (const std::string& b : advice().base_relations) {
    if (b == predicate) return true;
  }
  return false;
}

size_t AdviceManager::tracker_mispredictions() const {
  return !tracker_.has_value() ? 0 : tracker_->mispredictions();
}

uint32_t ReplacementAdviceIndex::Names::Intern(const std::string& name) {
  return ids.try_emplace(name, static_cast<uint32_t>(ids.size()))
      .first->second;
}

const uint32_t* ReplacementAdviceIndex::Names::Find(
    const std::string& name) const {
  auto it = ids.find(name);
  return it == ids.end() ? nullptr : &it->second;
}

ReplacementAdviceIndex::ReplacementAdviceIndex(size_t horizon)
    : fallback_(horizon > 0 ? horizon - 1 : 0) {}

std::optional<size_t> ReplacementAdviceIndex::Lookup(
    const CacheElement& element) const {
  MutexLock lock(&mu_);
  const ViewCounts* view = nullptr;
  if (!element.origin_view().empty()) {
    const uint32_t* v = views_.Find(element.origin_view());
    if (v != nullptr) view = &view_counts_[*v];
  }
  size_t best = view != nullptr ? view->min : kNone;
  if (best > fallback_) {
    for (const logic::Atom& a : element.definition().body) {
      if (!caql::IsRelationAtom(a)) continue;
      const uint32_t* p = predicates_.Find(a.predicate);
      if (p == nullptr) continue;
      const uint32_t predicted =
          view != nullptr && *p < view->predicted_relevant.size()
              ? view->predicted_relevant[*p]
              : 0;
      if (relevant_[*p] > predicted) {
        best = fallback_;
        break;
      }
    }
  }
  if (best == kNone) return std::nullopt;
  return best;
}

void ReplacementAdviceIndex::Replace(
    Contribution* c, const std::vector<std::string>& base_relations,
    const advice::PathTracker* tracker) {
  Contribution next;
  MutexLock lock(&mu_);
  next.predicates.reserve(base_relations.size());
  for (const std::string& b : base_relations) {
    next.predicates.push_back(predicates_.Intern(b));
  }
  std::sort(next.predicates.begin(), next.predicates.end());
  next.predicates.erase(
      std::unique(next.predicates.begin(), next.predicates.end()),
      next.predicates.end());
  relevant_.resize(predicates_.ids.size());
  if (tracker != nullptr) {
    next.views.reserve(tracker->num_symbols());
    for (size_t s = 0; s < tracker->num_symbols(); ++s) {
      next.views.push_back(views_.Intern(tracker->symbol_name(s)));
    }
    next.distances = tracker->distances();
    view_counts_.resize(views_.ids.size());
  }
  Apply(*c, -1);
  Apply(next, +1);
  *c = std::move(next);
}

void ReplacementAdviceIndex::Update(Contribution* c,
                                    const std::vector<size_t>& distances) {
  // A withdrawn contribution is empty; a published one has one distance
  // per symbol of the same tracker.
  if (c->distances.size() != distances.size() || c->distances == distances) {
    return;
  }
  MutexLock lock(&mu_);
  for (size_t s = 0; s < distances.size(); ++s) {
    if (c->distances[s] == distances[s]) continue;
    Move(c->views[s], c->distances[s], distances[s], c->predicates);
    c->distances[s] = distances[s];
  }
}

void ReplacementAdviceIndex::Withdraw(Contribution* c) {
  MutexLock lock(&mu_);
  Apply(*c, -1);
  *c = Contribution{};
}

void ReplacementAdviceIndex::Move(uint32_t v, size_t from, size_t to,
                                  const std::vector<uint32_t>& predicates) {
  ViewCounts& view = view_counts_[v];
  if (from != kNone) --view.at_distance[from];
  if (to != kNone) {
    if (to >= view.at_distance.size()) view.at_distance.resize(to + 1);
    ++view.at_distance[to];
  }
  if ((from == kNone) != (to == kNone)) {
    std::vector<uint32_t>& counts = view.predicted_relevant;
    for (uint32_t p : predicates) {
      if (to == kNone) {
        --counts[p];
        continue;
      }
      if (p >= counts.size()) counts.resize(p + 1);
      ++counts[p];
    }
  }
  if (to < view.min) view.min = to;
  while (view.min != kNone && view.at_distance[view.min] == 0) {
    view.min = view.min + 1 < view.at_distance.size() ? view.min + 1 : kNone;
  }
}

void ReplacementAdviceIndex::Apply(const Contribution& c, int sign) {
  for (uint32_t p : c.predicates) {
    if (sign > 0) {
      ++relevant_[p];
    } else {
      --relevant_[p];
    }
  }
  for (size_t s = 0; s < c.distances.size(); ++s) {
    if (c.distances[s] == kNone) continue;
    Move(c.views[s], sign > 0 ? kNone : c.distances[s],
         sign > 0 ? c.distances[s] : kNone, c.predicates);
  }
}

}  // namespace braid::cms
