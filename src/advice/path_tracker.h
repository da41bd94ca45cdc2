#ifndef BRAID_ADVICE_PATH_TRACKER_H_
#define BRAID_ADVICE_PATH_TRACKER_H_

#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "advice/path_expr.h"

namespace braid::advice {

/// The NFA compiled from a path expression, over view-id symbols:
///  * a query pattern is a single symbol transition;
///  * a sequence repeats: a lower bound of 0 adds a bypass, an upper bound
///    greater than one (or symbolic, e.g. |Y|) adds a loop — bounded counts
///    above one are approximated by an unbounded loop, which can only make
///    predictions more permissive, never unsound for replacement;
///  * an alternation branches over its members and may be skipped entirely
///    ("some members may never appear at all"); a selection term of 1 means
///    at most one member per occurrence (no loop), any other value loops.
///
/// Immutable once built, so one automaton serves every tracker of the same
/// advice, on any thread (CompiledAdvice shares it by pointer).
class PathAutomaton {
 public:
  explicit PathAutomaton(const PathExpr& expr);

  PathAutomaton(const PathAutomaton&) = delete;
  PathAutomaton& operator=(const PathAutomaton&) = delete;

  size_t num_states() const { return eps_.size(); }
  int start_state() const { return start_state_; }
  int accept_state() const { return accept_state_; }
  /// Epsilon successors of `state`.
  const std::vector<int>& eps(int state) const { return eps_[state]; }
  /// (symbol, successor) edges leaving `state`.
  const std::vector<std::pair<int, int>>& sym(int state) const {
    return sym_[state];
  }

  /// The expression's view ids, numbered in first-occurrence order.
  size_t num_symbols() const { return symbol_names_.size(); }
  const std::string& symbol_name(size_t symbol) const {
    return symbol_names_[symbol];
  }
  /// The symbol of `view_id`, or -1 when the expression never mentions it.
  int SymbolOf(const std::string& view_id) const;

 private:
  struct Fragment {
    int start;
    int accept;
  };

  int NewState();
  void AddEps(int from, int to) { eps_[from].push_back(to); }
  void AddSym(int from, int symbol, int to) {
    sym_[from].push_back({symbol, to});
  }
  int SymbolId(const std::string& view_id);
  Fragment Build(const PathExpr& expr);

  std::vector<std::vector<int>> eps_;
  std::vector<std::vector<std::pair<int, int>>> sym_;
  std::map<std::string, int> symbol_ids_;
  std::vector<std::string> symbol_names_;
  int start_state_ = -1;
  int accept_state_ = -1;
};

/// Path-expression tracking (paper §4.2.2): keeps an association between
/// the CAQL queries arriving from the IE and the positions in the session's
/// path expression, so the CMS can predict which view ids may be requested
/// next — the basis of its prefetching and replacement decisions.
///
/// A tracker is a position in a shared PathAutomaton. The distance from
/// the current position to every symbol is computed once per position — at
/// construction and on each successful Advance — by a single 0-1 BFS over
/// the NFA (epsilon edges cost 0, symbol edges 1), so every distance query
/// below is a lookup. Advance allocates nothing: the BFS works in scratch
/// buffers sized at construction.
class PathTracker {
 public:
  /// Distance of a symbol that can no longer appear.
  static constexpr size_t kUnreachable = std::numeric_limits<size_t>::max();

  /// A tracker at the start of `automaton` (non-null).
  explicit PathTracker(std::shared_ptr<const PathAutomaton> automaton);

  /// Compiles `expr` into an automaton of its own.
  explicit PathTracker(const PathExprPtr& expr);

  /// Consumes the next observed query's view id. Returns true if the query
  /// was predicted by the expression from the current position; an
  /// unpredicted id is counted and ignored (the tracker holds position).
  bool Advance(const std::string& view_id);

  /// View ids that could be the very next query.
  std::set<std::string> PredictNext() const;

  /// Minimum number of intervening queries before `view_id` could appear
  /// (0 = it could be next), or nullopt if it can no longer appear.
  std::optional<size_t> MinDistanceTo(const std::string& view_id) const;

  /// View ids that could appear within the next `horizon` queries.
  std::set<std::string> PossibleWithin(size_t horizon) const;

  /// True if the session could be complete at the current position.
  bool MayBeFinished() const;

  size_t mispredictions() const { return mispredictions_; }
  size_t advances() const { return advances_; }

  /// The expression's view ids, numbered in first-occurrence order.
  size_t num_symbols() const { return automaton_->num_symbols(); }
  const std::string& symbol_name(size_t symbol) const {
    return automaton_->symbol_name(symbol);
  }
  /// Distance to every symbol from the current position, indexed like
  /// symbol_name: `distances()[s]` is MinDistanceTo(symbol_name(s)), or
  /// kUnreachable. The reference stays valid for the tracker's lifetime.
  const std::vector<size_t>& distances() const { return distance_; }

 private:
  /// Moves to the epsilon closure of the states in `queue_` and recomputes
  /// `state_dist_` and `distance_` from there (one 0-1 BFS).
  void Settle();

  std::shared_ptr<const PathAutomaton> automaton_;
  std::vector<int> current_;        // epsilon-closed position
  std::vector<size_t> distance_;    // per symbol, from current_
  std::vector<size_t> state_dist_;  // per state, from current_ (0 = in it)
  std::vector<int> queue_;          // BFS scratch, capacity = #states
  size_t mispredictions_ = 0;
  size_t advances_ = 0;
};

}  // namespace braid::advice

#endif  // BRAID_ADVICE_PATH_TRACKER_H_
