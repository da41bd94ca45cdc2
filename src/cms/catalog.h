#ifndef BRAID_CMS_CATALOG_H_
#define BRAID_CMS_CATALOG_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "caql/caql_query.h"
#include "cms/cache_element.h"
#include "relational/predicate.h"

namespace braid::cms {

/// The semantic catalog: a signature index over cached view definitions so
/// subsumption candidate retrieval is sublinear in cache size. Subsumption
/// proper (the containment-mapping search of §5.3.2) stays in
/// subsumption.cc; the catalog's job is to reject elements that *cannot*
/// subsume a component of the query before the mapping search ever runs,
/// using only necessary conditions:
///
///  * predicate-set containment — every relation predicate of the element
///    must occur in the query (bitmask test, then exact multiset counts,
///    since the mapping is injective);
///  * constant agreement — a definition constant at position p of a
///    predicate-r atom can only map onto a query atom of r with exactly
///    that constant at p (one-way matching never maps definition constants
///    onto query variables);
///  * range satisfiability — a definition comparison "X op c" with X at
///    (r, p) must, after mapping, be implied by the query's comparisons;
///    so some query atom of r must carry at position p either a constant
///    d with "d op c" true or a variable Y with "Y op c" implied
///    (ComparisonImplied — the same test the mapping search applies, so
///    the filter can never reject a candidate the search would accept);
///  * exact-only confinement — definitions with evaluable functions,
///    negation, or no relation atoms are only usable by the identical
///    query, so they are reachable solely through their canonical key.
///
/// Every element is posted under exactly one anchor key — its most
/// selective necessary condition (a required constant when it has one,
/// else its first predicate, else its canonical key) — so a lookup touches
/// only the postings behind the query's own predicates and constants and
/// never enumerates the rest of the cache.
///
/// Concurrency: each CacheModel stripe owns one CatalogShard over its own
/// elements and maintains and reads it in place under that stripe's
/// mutex, exactly like the other per-stripe maps, so the stripe lock
/// order of DESIGN.md §10 is unchanged. See DESIGN.md §11.

/// A constant the definition requires of any query it can serve: `value`
/// at argument position `pos` of a `predicate` atom.
struct ConstantRequirement {
  std::string predicate;
  size_t pos = 0;
  rel::Value value;

  bool operator<(const ConstantRequirement& o) const {
    return std::tie(predicate, pos, value) < std::tie(o.predicate, o.pos,
                                                      o.value);
  }
  bool operator==(const ConstantRequirement& o) const {
    return predicate == o.predicate && pos == o.pos && value == o.value;
  }
};

/// A range constraint the definition places on whatever query term its
/// variable at (predicate, pos) maps onto: "term op bound" must hold.
struct RangeRequirement {
  std::string predicate;
  size_t pos = 0;
  rel::CompareOp op = rel::CompareOp::kEq;
  rel::Value bound;

  bool operator<(const RangeRequirement& o) const {
    return std::tie(predicate, pos, op, bound) <
           std::tie(o.predicate, o.pos, o.op, o.bound);
  }
};

/// Everything the catalog knows about one cached view definition. Computed
/// once at insert (pure function of the definition) and immutable after.
struct CatalogSignature {
  /// One bit per relation predicate (hash mod 64). A query whose mask
  /// lacks an element bit cannot contain that predicate.
  uint64_t predicate_mask = 0;
  /// Relation-atom count per predicate, sorted by name. The injective
  /// mapping needs at least as many query atoms of each.
  std::vector<std::pair<std::string, uint32_t>> predicate_counts;
  std::vector<ConstantRequirement> constants;  // sorted, deduplicated
  std::vector<RangeRequirement> ranges;        // sorted, deduplicated
  bool distinct = false;
  /// Definitions with evaluable functions, negation, or no relation atoms
  /// are usable only by the identical query (§5.3.2).
  bool exact_only = false;
  std::string canonical_key;

  std::string ToString() const;
};

CatalogSignature ComputeSignature(const caql::CaqlQuery& def);

/// The query-side digest a lookup matches signatures against. Computed
/// once per query, amortizing the per-candidate checks.
struct QueryDescriptor {
  uint64_t predicate_mask = 0;
  std::map<std::string, uint32_t> predicate_counts;
  /// (predicate, pos, value) for every constant in a relation atom.
  std::set<std::tuple<std::string, size_t, rel::Value>> constants;
  /// Terms occurring at each (predicate, pos), for range satisfiability.
  std::map<std::pair<std::string, size_t>, std::vector<logic::Term>> terms;
  std::vector<logic::Atom> comparisons;
  bool distinct = false;
  /// Queries with evaluable atoms confine subsumption to the identical
  /// definition, so only the canonical-key posting is probed.
  bool exact_only = false;
  std::string canonical_key;
};

QueryDescriptor DescribeQuery(const caql::CaqlQuery& query);

/// True when `sig`'s necessary conditions all hold against `q` — i.e. the
/// element may subsume a component of the query and is worth the mapping
/// search. Never false for a pair ComputeSubsumptionAll would match
/// (soundness; property-tested against it).
bool SignatureAdmits(const CatalogSignature& sig, const QueryDescriptor& q);

/// Lookup-side counters, for traces and benches.
struct CatalogLookupStats {
  size_t probed = 0;    // postings examined
  size_t admitted = 0;  // candidates surviving SignatureAdmits
};

/// The posting index over one stripe's elements. Not internally
/// synchronized: the owning CacheModel stripe's mutex guards every call,
/// matching the other per-stripe maps.
class CatalogShard {
 public:
  /// Posts `element` under the signature's anchor. `signature` is computed
  /// by the caller (outside the stripe lock; it is a pure function of the
  /// definition). The element's id must not be posted yet.
  void Insert(CacheElementPtr element,
              std::shared_ptr<const CatalogSignature> signature);

  /// Drops the posting of `id` (no-op if absent).
  void Remove(const std::string& id);

  /// Appends the elements that may subsume a component of the described
  /// query: probe order, then id order within a posting. Each element of
  /// the stripe is posted once, so the output has no duplicates within
  /// one shard.
  void Candidates(const QueryDescriptor& q,
                  std::vector<CacheElementPtr>* out,
                  CatalogLookupStats* stats = nullptr) const;

  /// The difftest invariant (DESIGN.md §11): every element of `elements`
  /// (the stripe's id -> element map) is posted exactly once and is
  /// self-reachable (a lookup with its own definition returns it), and no
  /// posting dangles (names an id absent from `elements`) or pins another
  /// element than the one resident under its id. Returns "" when
  /// consistent, else a description of the first violation.
  std::string CheckConsistency(
      const std::map<std::string, CacheElementPtr>& elements) const;

 private:
  struct Posted {
    CacheElementPtr element;
    std::shared_ptr<const CatalogSignature> signature;
  };
  std::map<std::string, std::string> anchors_;  // id -> anchor
  // anchor -> id -> posting
  std::map<std::string, std::map<std::string, Posted>> postings_;
};

}  // namespace braid::cms

#endif  // BRAID_CMS_CATALOG_H_
