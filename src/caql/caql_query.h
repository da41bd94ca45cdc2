#ifndef BRAID_CAQL_CAQL_QUERY_H_
#define BRAID_CAQL_CAQL_QUERY_H_

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "logic/atom.h"
#include "logic/substitution.h"
#include "logic/term.h"

namespace braid::caql {

/// True for the evaluable built-in functions CAQL supports beyond
/// comparisons: plus/minus/times/div with arity 3 (last argument is the
/// result) and abs with arity 2. Evaluable functions are computed by the
/// CMS Query Processor, never shipped to the remote DBMS, and require an
/// exact match during subsumption (paper §5.3.2).
bool IsEvaluablePredicate(const std::string& name, size_t arity);

/// True for a body atom over a stored relation (a base relation or a
/// cached view): not negated, not a comparison, not an evaluable function.
/// These are the atoms CaqlQuery::RelationAtoms returns.
bool IsRelationAtom(const logic::Atom& atom);

/// A canonical key (CaqlQuery::CanonicalKey) together with its 64-bit
/// hash, computed once and carried wherever the key is probed: the cache's
/// exact-match index is keyed by the hash, and two keys are equal only when
/// their texts are.
struct QueryKey {
  std::string text;
  uint64_t hash = 0;

  /// `text` with its hash.
  static QueryKey Of(std::string text);

  bool operator==(const QueryKey& other) const {
    return hash == other.hash && text == other.text;
  }
};

/// Hashes a QueryKey by its precomputed hash, for unordered containers.
struct QueryKeyHash {
  size_t operator()(const QueryKey& key) const { return key.hash; }
};

/// A CAQL query: a conjunctive (PSJ-class) expression with a distinguished
/// head. This is the language of the IE ↔ CMS interface (paper §3, §5).
///
///   d2(X, c6) :- b2(X, Z) & b3(Z, c2, c6)
///
/// `head_args` are the distinguished terms (variables produce bindings;
/// constants act as selections via the body). The body mixes relation
/// atoms (over base relations or cached views), comparison atoms, and
/// evaluable-function atoms. CAQL queries double as view *definitions*:
/// a cache element's definition is a CaqlQuery whose head args are all
/// variables.
struct CaqlQuery {
  std::string name;                   // e.g. "d2"; may be empty for ad hoc.
  std::vector<logic::Term> head_args;
  std::vector<logic::Atom> body;
  /// SETOF semantics (paper §5's second-order predicates): duplicate
  /// solutions are eliminated. Default is BAGOF (bag semantics).
  bool distinct = false;

  /// Body atoms that reference stored relations (not comparisons, not
  /// evaluable functions), in body order.
  std::vector<logic::Atom> RelationAtoms() const;
  std::vector<logic::Atom> ComparisonAtoms() const;
  std::vector<logic::Atom> EvaluableAtoms() const;
  /// Negated literals ("not p(X)"), evaluated by anti-join; every
  /// variable of a negated literal must also occur in a positive relation
  /// atom (safety, checked by Validate).
  std::vector<logic::Atom> NegatedAtoms() const;

  /// Distinct variable names across head and body, in first-occurrence
  /// order (head first).
  std::vector<std::string> AllVariables() const;

  /// Variables appearing in head_args, first-occurrence order.
  std::vector<std::string> HeadVariables() const;

  /// Applies a substitution to head and body.
  CaqlQuery Substitute(const logic::Substitution& subst) const;

  /// Structural equality.
  bool operator==(const CaqlQuery& other) const {
    return name == other.name && head_args == other.head_args &&
           body == other.body && distinct == other.distinct;
  }

  /// A canonical string with variables renamed V0, V1, ... in order of first
  /// occurrence and constants encoded unambiguously (ints in decimal,
  /// strings quoted with escapes, doubles tagged and exact). Two queries
  /// with the same canonical key are identical up to variable renaming —
  /// the exact-match fast path of result caching.
  std::string CanonicalKey() const;

  /// CanonicalKey() with its hash.
  QueryKey Key() const { return QueryKey::Of(CanonicalKey()); }

  /// Renders "d2(X, c6) :- b2(X, Z) & b3(Z, c2, c6)".
  std::string ToString() const;

  /// Validates well-formedness: at least one relation atom or a fully
  /// ground body; every head variable appears in the body; evaluable and
  /// comparison atoms have legal arity.
  Status Validate() const;
};

/// Parses CAQL text in the shared rule syntax, e.g.
/// "d2(X, c6) :- b2(X, Z) & b3(Z, c2, c6)." (trailing '.' optional).
Result<CaqlQuery> ParseCaql(std::string_view text);

}  // namespace braid::caql

#endif  // BRAID_CAQL_CAQL_QUERY_H_
