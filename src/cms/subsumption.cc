#include "cms/subsumption.h"

#include <algorithm>
#include <set>
#include <sstream>

#include "logic/substitution.h"
#include "logic/unify.h"
#include "obs/metrics.h"

namespace braid::cms {

namespace {

using caql::CaqlQuery;
using logic::Atom;
using logic::Substitution;
using logic::Term;

/// Evaluates a ground comparison atom.
bool EvalGroundComparison(const Atom& comp) {
  return rel::EvalCompare(comp.comparison_op(), comp.args[0].value(),
                          comp.args[1].value());
}

/// Subsumption counters, resolved once per process: every candidate
/// element of every planned query runs a search.
struct SubsumptionCounters {
  obs::Counter* searches;
  obs::Counter* matches;
  obs::Counter* truncations;
};

const SubsumptionCounters& Counters() {
  static const SubsumptionCounters counters{
      &obs::MetricsRegistry::Global().counter("subsumption.searches"),
      &obs::MetricsRegistry::Global().counter("subsumption.matches"),
      &obs::MetricsRegistry::Global().counter("subsumption.truncations")};
  return counters;
}

}  // namespace

bool IntervalImplies(rel::CompareOp known_op, const rel::Value& a,
                     rel::CompareOp implied_op, const rel::Value& b) {
  using Op = rel::CompareOp;
  switch (known_op) {
    case Op::kEq:
      // X = a implies X op b iff a op b.
      return rel::EvalCompare(implied_op, a, b);
    case Op::kLt:
      // X < a implies X < b iff a <= b; implies X <= b iff a <= b;
      // implies X != b iff b >= a.
      if (implied_op == Op::kLt || implied_op == Op::kLe) return a <= b;
      if (implied_op == Op::kNe) return b >= a;
      return false;
    case Op::kLe:
      if (implied_op == Op::kLe) return a <= b;
      if (implied_op == Op::kLt) return a < b;
      if (implied_op == Op::kNe) return b > a;
      return false;
    case Op::kGt:
      if (implied_op == Op::kGt || implied_op == Op::kGe) return a >= b;
      if (implied_op == Op::kNe) return b <= a;
      return false;
    case Op::kGe:
      if (implied_op == Op::kGe) return a >= b;
      if (implied_op == Op::kGt) return a > b;
      if (implied_op == Op::kNe) return b < a;
      return false;
    case Op::kNe:
      return implied_op == Op::kNe && a == b;
  }
  return false;
}

bool ComparisonImplied(const std::vector<Atom>& known, const Atom& implied) {
  if (!implied.IsComparison()) return false;
  // Ground comparisons evaluate directly.
  if (implied.IsGround()) return EvalGroundComparison(implied);

  for (const Atom& k : known) {
    if (!k.IsComparison()) continue;
    // Syntactic identity.
    if (k.predicate == implied.predicate && k.args == implied.args) {
      return true;
    }
    // Reversed with flipped operator: X < Y equals Y > X.
    if (rel::CompareOpSymbol(rel::ReverseCompareOp(k.comparison_op())) ==
            implied.predicate &&
        k.args.size() == 2 && k.args[0] == implied.args[1] &&
        k.args[1] == implied.args[0]) {
      return true;
    }
    // Interval reasoning over a shared variable with constant bounds:
    // normalize both to "Var op Const".
    auto normalize = [](const Atom& a) -> std::optional<
                          std::tuple<std::string, rel::CompareOp, rel::Value>> {
      if (a.args[0].is_variable() && a.args[1].is_constant()) {
        return std::make_tuple(a.args[0].var_name(), a.comparison_op(),
                               a.args[1].value());
      }
      if (a.args[1].is_variable() && a.args[0].is_constant()) {
        return std::make_tuple(a.args[1].var_name(),
                               rel::ReverseCompareOp(a.comparison_op()),
                               a.args[0].value());
      }
      return std::nullopt;
    };
    auto nk = normalize(k);
    auto ni = normalize(implied);
    if (nk.has_value() && ni.has_value() &&
        std::get<0>(*nk) == std::get<0>(*ni)) {
      if (IntervalImplies(std::get<1>(*nk), std::get<2>(*nk),
                          std::get<1>(*ni), std::get<2>(*ni))) {
        return true;
      }
    }
  }
  return false;
}

namespace {

/// Backtracking search assigning each element relation atom to a distinct
/// query relation atom under a consistent one-way substitution. The
/// assignment must be injective: collapsing two element atoms onto one
/// query atom would be sound for set semantics but multiplies duplicate
/// rows under the bag semantics the CMS uses.
///
/// The search historically stopped at a flat cap of 32 assignments in DFS
/// order, which could silently drop the only *viable* mapping (every
/// earlier assignment being rejected by the viability checks downstream)
/// and force a needless remote fetch. Two fixes: branches that provably
/// cannot survive viability — an element variable outside the element's
/// head mapped to a constant can never be compensated by a residual
/// selection — are pruned during the search, and the cap is configurable
/// (CmsConfig::max_subsumption_mappings, default 1024) and instrumented:
/// hitting it increments `subsumption.truncations` in the process-wide
/// metrics registry and is reported through SubsumptionInfo so lost
/// matches are visible instead of silent.
class MappingSearch {
 public:
  MappingSearch(const std::vector<Atom>& element_atoms,
                const std::vector<Atom>& query_atoms,
                const std::set<std::string>& element_head_vars,
                size_t max_results)
      : element_atoms_(element_atoms),
        query_atoms_(query_atoms),
        element_head_vars_(element_head_vars),
        max_results_(max_results) {}

  /// Runs the search; returns assignments (element atom -> query atom
  /// index) paired with their substitution, best-coverage first.
  std::vector<std::pair<std::vector<size_t>, Substitution>> Run() {
    assignment_.assign(element_atoms_.size(), 0);
    used_.assign(query_atoms_.size(), false);
    Extend(0, Substitution());
    if (truncated_) Counters().truncations->Increment();
    // Order results by distinct query atoms covered, descending.
    std::stable_sort(results_.begin(), results_.end(),
                     [](const auto& a, const auto& b) {
                       std::set<size_t> sa(a.first.begin(), a.first.end());
                       std::set<size_t> sb(b.first.begin(), b.first.end());
                       return sa.size() > sb.size();
                     });
    return std::move(results_);
  }

  bool truncated() const { return truncated_; }

 private:
  /// True when extending the assignment with `e -> image under subst`
  /// cannot lead to a viable match: a non-head element variable bound to
  /// a constant has no head column to carry the equality selection, so
  /// every completion of this branch is rejected downstream.
  bool Hopeless(const Atom& e, const Substitution& subst) const {
    for (const Term& t : e.args) {
      if (!t.is_variable()) continue;
      auto image = subst.Lookup(t.var_name());
      if (image.has_value() && image->is_constant() &&
          element_head_vars_.count(t.var_name()) == 0) {
        return true;
      }
    }
    return false;
  }

  void Extend(size_t pos, const Substitution& subst) {
    if (results_.size() >= max_results_) {
      truncated_ = true;
      return;
    }
    if (pos == element_atoms_.size()) {
      results_.emplace_back(assignment_, subst);
      return;
    }
    const Atom& e = element_atoms_[pos];
    for (size_t qi = 0; qi < query_atoms_.size(); ++qi) {
      if (used_[qi]) continue;
      auto next = logic::MatchOneWay(e, query_atoms_[qi], subst);
      if (!next.has_value()) continue;
      if (Hopeless(e, *next)) continue;
      assignment_[pos] = qi;
      used_[qi] = true;
      Extend(pos + 1, *next);
      used_[qi] = false;
    }
  }

  const std::vector<Atom>& element_atoms_;
  const std::vector<Atom>& query_atoms_;
  const std::set<std::string>& element_head_vars_;
  const size_t max_results_;
  std::vector<size_t> assignment_;
  std::vector<bool> used_;
  std::vector<std::pair<std::vector<size_t>, Substitution>> results_;
  bool truncated_ = false;
};

}  // namespace

std::string SubsumptionMatch::ToString() const {
  std::ostringstream os;
  os << (full ? "full" : "partial") << " covered={";
  for (size_t i = 0; i < covered.size(); ++i) {
    if (i > 0) os << ",";
    os << covered[i];
  }
  os << "} selections=" << selections.size();
  return os.str();
}

std::vector<SubsumptionMatch> ComputeSubsumptionAll(
    const CaqlQuery& raw_element_def, const CaqlQuery& query,
    const SubsumptionOptions& options, SubsumptionInfo* info) {
  // A SETOF element has had its duplicates eliminated; deriving a BAGOF
  // query's answer from it undercounts multiplicities (found by the
  // differential harness: a cached "SETOF q(A) :- b(A, B)" serving a later
  // bag query over b returned 14 of 32 rows). The converse is sound — a
  // bag element serving a SETOF query is deduplicated at assembly.
  if (raw_element_def.distinct && !query.distinct) return {};

  // Evaluable functions require exact match of the whole definition
  // (§5.3.2). Canonical-key equality means the two queries are identical
  // up to variable renaming, so the match is the positional identity.
  if (!raw_element_def.EvaluableAtoms().empty() ||
      !query.EvaluableAtoms().empty() ||
      !raw_element_def.NegatedAtoms().empty()) {
    // Negation in an element definition likewise restricts reuse to the
    // identical query (the mapping machinery only reasons about the
    // positive PSJ class).
    if (raw_element_def.CanonicalKey() != query.CanonicalKey()) {
      return {};
    }
    SubsumptionMatch identity;
    const size_t n = query.RelationAtoms().size();
    for (size_t i = 0; i < n; ++i) identity.covered.push_back(i);
    identity.full = true;
    for (size_t i = 0; i < query.head_args.size(); ++i) {
      const Term& t = query.head_args[i];
      if (t.is_variable() && identity.var_to_column.count(t.var_name()) == 0) {
        identity.var_to_column.emplace(t.var_name(), i);
      }
    }
    return {identity};
  }

  // Standardize the element's variables apart from the query's so shared
  // names cannot alias during the one-way match.
  CaqlQuery element_def = raw_element_def;
  {
    logic::Substitution rename;
    for (const std::string& v : raw_element_def.AllVariables()) {
      rename.Bind(v, Term::Var(v + "$e"));
    }
    element_def = raw_element_def.Substitute(rename);
  }

  const std::vector<Atom> e_atoms = element_def.RelationAtoms();
  const std::vector<Atom> q_atoms = query.RelationAtoms();
  if (e_atoms.empty() || q_atoms.empty()) return {};
  // Injective mappings need at least as many query atoms as element atoms.
  if (e_atoms.size() > q_atoms.size()) return {};

  const std::vector<Atom> e_comps = element_def.ComparisonAtoms();
  const std::vector<Atom> q_comps = query.ComparisonAtoms();

  // Element head columns: position of each head variable.
  std::map<std::string, size_t> head_column;
  for (size_t i = 0; i < element_def.head_args.size(); ++i) {
    const Term& t = element_def.head_args[i];
    if (t.is_variable()) head_column.emplace(t.var_name(), i);
  }

  // Query variables needed outside any covered component: head variables,
  // variables of comparison and evaluable atoms. Variables shared with
  // uncovered relation atoms are added per-candidate below.
  std::set<std::string> always_needed;
  for (const std::string& v : query.HeadVariables()) always_needed.insert(v);
  {
    std::set<std::string> cv;
    logic::CollectVariables(q_comps, &cv);
    always_needed.insert(cv.begin(), cv.end());
    std::vector<Atom> ev = query.EvaluableAtoms();
    std::set<std::string> evv;
    logic::CollectVariables(ev, &evv);
    always_needed.insert(evv.begin(), evv.end());
    std::vector<Atom> neg = query.NegatedAtoms();
    std::set<std::string> negv;
    logic::CollectVariables(neg, &negv);
    always_needed.insert(negv.begin(), negv.end());
  }

  Counters().searches->Increment();
  std::set<std::string> e_head_vars;
  for (const auto& [var, col] : head_column) e_head_vars.insert(var);
  MappingSearch search(e_atoms, q_atoms, e_head_vars, options.max_mappings);
  // Best match per distinct covered set.
  std::map<std::string, SubsumptionMatch> by_covered;

  auto mappings = search.Run();
  if (info != nullptr) info->truncated = search.truncated();
  for (auto& [assignment, subst] : mappings) {
    // Covered component = image of the assignment.
    std::set<size_t> covered_set(assignment.begin(), assignment.end());

    // Needed variables: always-needed plus those shared with uncovered
    // relation atoms.
    std::set<std::string> needed = always_needed;
    for (size_t qi = 0; qi < q_atoms.size(); ++qi) {
      if (covered_set.count(qi) > 0) continue;
      for (const Term& t : q_atoms[qi].args) {
        if (t.is_variable()) needed.insert(t.var_name());
      }
    }

    // Group element variables by their image term.
    // image of a variable: subst.Lookup — unbound element vars do not
    // appear in any mapped atom position... every var in a relation atom of
    // the element is bound by the match; head vars must all occur in the
    // body (Validate()), so all are bound.
    std::map<std::string, std::vector<std::string>> var_groups;
    bool viable = true;
    std::set<std::string> e_vars;
    logic::CollectVariables(e_atoms, &e_vars);
    for (const std::string& ev : e_vars) {
      auto image = subst.Lookup(ev);
      if (!image.has_value()) {
        // Unbound element variable (occurs only in comparisons) — treat
        // as unusable definition.
        viable = false;
        break;
      }
      if (image->is_variable()) {
        var_groups[image->var_name()].push_back(ev);
      }
    }
    if (!viable) continue;

    SubsumptionMatch match;
    match.covered.assign(covered_set.begin(), covered_set.end());
    match.full = covered_set.size() == q_atoms.size();

    // Constant images: every element variable in the group must be a head
    // column; emit an equality selection per member.
    for (const std::string& ev : e_vars) {
      auto image = subst.Lookup(ev);
      if (!image.has_value() || !image->is_constant()) continue;
      auto hc = head_column.find(ev);
      if (hc == head_column.end()) {
        viable = false;
        break;
      }
      ResidualSelection sel;
      sel.column = hc->second;
      sel.op = rel::CompareOp::kEq;
      sel.rhs_is_column = false;
      sel.constant = image->value();
      match.selections.push_back(sel);
    }
    if (!viable) continue;

    // Variable images.
    for (const auto& [qvar, evars] : var_groups) {
      const bool is_needed = needed.count(qvar) > 0;
      // Locate head columns for the group's members.
      std::vector<size_t> cols;
      for (const std::string& ev : evars) {
        auto hc = head_column.find(ev);
        if (hc != head_column.end()) cols.push_back(hc->second);
      }
      if (evars.size() > 1) {
        // Multiple element variables collapse onto one query variable: the
        // equality must be applied as residual selections, so all members
        // must be head columns.
        if (cols.size() != evars.size()) {
          viable = false;
          break;
        }
        for (size_t i = 1; i < cols.size(); ++i) {
          ResidualSelection sel;
          sel.column = cols[0];
          sel.op = rel::CompareOp::kEq;
          sel.rhs_is_column = true;
          sel.rhs_column = cols[i];
          match.selections.push_back(sel);
        }
      }
      if (is_needed) {
        if (cols.empty()) {
          viable = false;  // Needed variable projected away by the element.
          break;
        }
        match.var_to_column[qvar] = cols[0];
      }
    }
    if (!viable) continue;

    // Element comparison atoms must be implied by the query's context,
    // otherwise the element is more restrictive than the query component.
    for (const Atom& ec : e_comps) {
      Atom mapped = subst.Apply(ec);
      if (!ComparisonImplied(q_comps, mapped)) {
        viable = false;
        break;
      }
    }
    if (!viable) continue;

    // Keep the best candidate per covered set (fewest selections).
    std::string key;
    for (size_t qi : match.covered) key += std::to_string(qi) + ",";
    auto [it, inserted] = by_covered.emplace(key, match);
    if (!inserted && match.selections.size() < it->second.selections.size()) {
      it->second = std::move(match);
    }
  }

  std::vector<SubsumptionMatch> all;
  all.reserve(by_covered.size());
  for (auto& [key, match] : by_covered) all.push_back(std::move(match));
  if (!all.empty()) Counters().matches->Increment(all.size());
  std::sort(all.begin(), all.end(),
            [](const SubsumptionMatch& a, const SubsumptionMatch& b) {
              if (a.covered.size() != b.covered.size()) {
                return a.covered.size() > b.covered.size();
              }
              return a.selections.size() < b.selections.size();
            });
  return all;
}

std::optional<SubsumptionMatch> ComputeSubsumption(
    const CaqlQuery& element_def, const CaqlQuery& query,
    const SubsumptionOptions& options, SubsumptionInfo* info) {
  std::vector<SubsumptionMatch> all =
      ComputeSubsumptionAll(element_def, query, options, info);
  if (all.empty()) return std::nullopt;
  return std::move(all.front());
}

}  // namespace braid::cms
