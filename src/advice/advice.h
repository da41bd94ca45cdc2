#ifndef BRAID_ADVICE_ADVICE_H_
#define BRAID_ADVICE_ADVICE_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "advice/path_expr.h"
#include "advice/path_tracker.h"
#include "advice/view_spec.h"
#include "caql/caql_query.h"

namespace braid::advice {

/// The advice the IE transmits to the CMS at the start of a session
/// (paper §3: "At the beginning of each session, the IE submits a set of
/// advice. This is followed by a sequence of CAQL queries.").
///
/// `base_relations` is the simplest form of advice the paper describes —
/// the unordered list of base relations relevant to the current problem.
/// View specifications and the path expression are the two richer forms.
struct AdviceSet {
  std::vector<std::string> base_relations;
  std::vector<ViewSpec> view_specs;
  PathExprPtr path_expression;  // may be null

  /// The view spec with the given id, or nullptr.
  const ViewSpec* FindView(const std::string& id) const {
    for (const ViewSpec& v : view_specs) {
      if (v.id == id) return &v;
    }
    return nullptr;
  }

  /// Multi-line rendering of all advice components.
  std::string ToString() const;
};

/// One view of compiled advice: the specification plus what the CMS
/// derives from it for prefetching and generalization — the view's
/// all-variable generalization (its definition as a CAQL query) and that
/// query's canonical key.
struct CompiledView {
  const ViewSpec* spec = nullptr;  // into the owning advice's view_specs
  caql::CaqlQuery general;         // spec->AsCaql()
  caql::QueryKey key;              // general.Key()
};

/// An advice set compiled once: the path expression's automaton, and for
/// each view its generalized CAQL form and canonical key (DESIGN.md §10
/// "Compiled advice"). Immutable, so every session that installs the same
/// advice shares one instance by pointer, from any thread; installing it
/// builds only a tracker position.
class CompiledAdvice {
 public:
  explicit CompiledAdvice(AdviceSet advice);

  CompiledAdvice(const CompiledAdvice&) = delete;
  CompiledAdvice& operator=(const CompiledAdvice&) = delete;

  /// The shared compilation of an empty advice set.
  static const std::shared_ptr<const CompiledAdvice>& Empty();

  const AdviceSet& advice() const { return advice_; }

  /// The path expression's automaton, or null without one.
  const std::shared_ptr<const PathAutomaton>& automaton() const {
    return automaton_;
  }

  /// The compiled view with the given id, or nullptr.
  const CompiledView* FindView(const std::string& id) const;

  std::string ToString() const { return advice_.ToString(); }

 private:
  AdviceSet advice_;
  std::vector<CompiledView> views_;  // parallel to advice_.view_specs
  std::shared_ptr<const PathAutomaton> automaton_;
};

using CompiledAdvicePtr = std::shared_ptr<const CompiledAdvice>;

/// Compiles `advice` for sharing.
inline CompiledAdvicePtr Compile(AdviceSet advice) {
  return std::make_shared<const CompiledAdvice>(std::move(advice));
}

}  // namespace braid::advice

#endif  // BRAID_ADVICE_ADVICE_H_
