#include "advice/path_tracker.h"

#include <algorithm>

#include "obs/metrics.h"

namespace braid::advice {

namespace {

/// Tracker counters, resolved once per process: Advance runs on every IE
/// query and must not look instruments up by name.
struct TrackerCounters {
  obs::Counter* advances;
  obs::Counter* mispredictions;
};

const TrackerCounters& Counters() {
  static const TrackerCounters counters{
      &obs::MetricsRegistry::Global().counter("advice.tracker.advances"),
      &obs::MetricsRegistry::Global().counter(
          "advice.tracker.mispredictions")};
  return counters;
}

}  // namespace

PathAutomaton::PathAutomaton(const PathExpr& expr) {
  Fragment f = Build(expr);
  start_state_ = f.start;
  accept_state_ = f.accept;
}

int PathAutomaton::NewState() {
  eps_.emplace_back();
  sym_.emplace_back();
  return static_cast<int>(eps_.size()) - 1;
}

int PathAutomaton::SymbolId(const std::string& view_id) {
  auto [it, inserted] =
      symbol_ids_.emplace(view_id, static_cast<int>(symbol_names_.size()));
  if (inserted) symbol_names_.push_back(view_id);
  return it->second;
}

int PathAutomaton::SymbolOf(const std::string& view_id) const {
  auto it = symbol_ids_.find(view_id);
  return it == symbol_ids_.end() ? -1 : it->second;
}

PathAutomaton::Fragment PathAutomaton::Build(const PathExpr& expr) {
  switch (expr.kind()) {
    case PathExpr::Kind::kQueryPattern: {
      int s = NewState();
      int a = NewState();
      AddSym(s, SymbolId(expr.view_id()), a);
      return {s, a};
    }
    case PathExpr::Kind::kSequence: {
      int s = NewState();
      int a = NewState();
      // Chain the members. Each junction also gets an early-exit epsilon:
      // the IE may abandon the rest of a sequence when a subgoal fails
      // (the paper's tracking example predicts d1 directly after d2,
      // without requiring d3).
      int prev = s;
      for (const auto& child : expr.elements()) {
        Fragment cf = Build(*child);
        AddEps(prev, cf.start);
        if (prev != s) AddEps(prev, a);
        prev = cf.accept;
      }
      AddEps(prev, a);
      const bool lo_zero = !expr.lo().symbolic && expr.lo().count == 0;
      if (lo_zero) AddEps(s, a);
      const bool repeats =
          expr.hi().symbolic || expr.hi().count > 1 || expr.lo().symbolic ||
          expr.lo().count > 1;
      if (repeats) AddEps(prev, s);  // loop back for further iterations
      return {s, a};
    }
    case PathExpr::Kind::kAlternation: {
      int s = NewState();
      int a = NewState();
      for (const auto& child : expr.elements()) {
        Fragment cf = Build(*child);
        AddEps(s, cf.start);
        AddEps(cf.accept, a);
      }
      // Members may be skipped entirely.
      AddEps(s, a);
      // A selection term of exactly 1 forbids picking twice in one
      // occurrence; anything else may select multiple members.
      if (expr.selection() != 1) AddEps(a, s);
      return {s, a};
    }
  }
  int s = NewState();
  return {s, s};
}

PathTracker::PathTracker(std::shared_ptr<const PathAutomaton> automaton)
    : automaton_(std::move(automaton)) {
  const size_t states = automaton_->num_states();
  current_.reserve(states);
  state_dist_.resize(states);
  distance_.resize(automaton_->num_symbols());
  // Every state enters the BFS queue at most once, and the symbol edges
  // into distinct fresh accept states seed it, so #states always suffices.
  queue_.reserve(states);
  queue_.push_back(automaton_->start_state());
  Settle();
}

PathTracker::PathTracker(const PathExprPtr& expr)
    : PathTracker(std::make_shared<const PathAutomaton>(*expr)) {}

void PathTracker::Settle() {
  std::fill(state_dist_.begin(), state_dist_.end(), kUnreachable);
  std::fill(distance_.begin(), distance_.end(), kUnreachable);
  size_t seeds = 0;
  for (size_t i = 0; i < queue_.size(); ++i) {
    const int st = queue_[i];
    if (state_dist_[st] == kUnreachable) {
      state_dist_[st] = 0;
      queue_[seeds++] = st;
    }
  }
  queue_.resize(seeds);
  // Layer d is queue_[begin, end): first closed under epsilon moves (cost
  // 0), then its symbol moves (cost 1) seed layer d + 1. Layers are
  // settled in increasing order, so each state's and each symbol's first
  // assignment is its minimum.
  size_t begin = 0;
  for (size_t d = 0; begin < queue_.size(); ++d) {
    for (size_t i = begin; i < queue_.size(); ++i) {
      for (int next : automaton_->eps(queue_[i])) {
        if (state_dist_[next] == kUnreachable) {
          state_dist_[next] = d;
          queue_.push_back(next);
        }
      }
    }
    const size_t end = queue_.size();
    if (d == 0) current_.assign(queue_.begin(), queue_.end());
    for (size_t i = begin; i < end; ++i) {
      for (const auto& [sym, to] : automaton_->sym(queue_[i])) {
        if (distance_[sym] == kUnreachable) distance_[sym] = d;
        if (state_dist_[to] == kUnreachable) {
          state_dist_[to] = d + 1;
          queue_.push_back(to);
        }
      }
    }
    begin = end;
  }
}

bool PathTracker::Advance(const std::string& view_id) {
  ++advances_;
  const TrackerCounters& counters = Counters();
  counters.advances->Increment();
  const int symbol = automaton_->SymbolOf(view_id);
  if (symbol < 0) {
    ++mispredictions_;
    counters.mispredictions->Increment();
    return false;
  }
  queue_.clear();
  for (int st : current_) {
    for (const auto& [sym, to] : automaton_->sym(st)) {
      if (sym == symbol) queue_.push_back(to);
    }
  }
  if (queue_.empty()) {
    ++mispredictions_;
    counters.mispredictions->Increment();
    return false;  // Hold position: the query was outside the prediction.
  }
  Settle();
  return true;
}

std::set<std::string> PathTracker::PredictNext() const {
  // Exactly the symbols on an edge leaving the current position.
  return PossibleWithin(1);
}

std::optional<size_t> PathTracker::MinDistanceTo(
    const std::string& view_id) const {
  const int symbol = automaton_->SymbolOf(view_id);
  if (symbol < 0 || distance_[symbol] == kUnreachable) return std::nullopt;
  return distance_[symbol];
}

std::set<std::string> PathTracker::PossibleWithin(size_t horizon) const {
  std::set<std::string> out;
  for (size_t s = 0; s < distance_.size(); ++s) {
    if (distance_[s] < horizon) out.insert(automaton_->symbol_name(s));
  }
  return out;
}

bool PathTracker::MayBeFinished() const {
  return state_dist_[automaton_->accept_state()] == 0;
}

}  // namespace braid::advice
