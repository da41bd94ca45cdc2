#include "cms/catalog.h"

#include <algorithm>
#include <functional>
#include <sstream>

#include "cms/subsumption.h"
#include "common/strings.h"

namespace braid::cms {

namespace {

using caql::CaqlQuery;
using logic::Atom;
using logic::Term;

uint64_t PredicateBit(const std::string& predicate) {
  return 1ull << (std::hash<std::string>{}(predicate) % 64);
}

/// Anchor keys. '\x1f' (unit separator) cannot occur in predicate names or
/// canonical keys, so the three namespaces cannot collide.
std::string KeyCanonical(const std::string& canonical_key) {
  return StrCat("k\x1f", canonical_key);
}
std::string KeyPredicate(const std::string& predicate) {
  return StrCat("p\x1f", predicate);
}
/// Constants key by Value::Hash, which is consistent with Value equality
/// (an int and a double that compare equal hash identically), so a lookup
/// can never miss an equal constant; hash collisions only admit extra
/// candidates, which SignatureAdmits re-checks by value.
std::string KeyConstant(const std::string& predicate, size_t pos,
                        const rel::Value& value) {
  return StrCat("c\x1f", predicate, "\x1f", pos, "\x1f", value.Hash());
}

/// "Var op Const" normal form of a comparison atom, flipping the operator
/// when the constant is on the left. Mirrors the normalization inside
/// ComparisonImplied so the catalog's range filter reasons about exactly
/// the atoms the mapping search will test.
std::optional<std::tuple<std::string, rel::CompareOp, rel::Value>>
NormalizeComparison(const Atom& a) {
  if (!a.IsComparison() || a.args.size() != 2) return std::nullopt;
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
}

std::string AnchorOf(const CatalogSignature& sig) {
  if (sig.exact_only) return KeyCanonical(sig.canonical_key);
  if (!sig.constants.empty()) {
    const ConstantRequirement& c = sig.constants.front();
    return KeyConstant(c.predicate, c.pos, c.value);
  }
  // All-variable definition: any of its predicates is a sound anchor (the
  // query must contain them all).
  return KeyPredicate(sig.predicate_counts.front().first);
}

}  // namespace

std::string CatalogSignature::ToString() const {
  std::ostringstream os;
  if (exact_only) {
    os << "exact-only " << canonical_key;
    return os.str();
  }
  os << "preds={";
  for (size_t i = 0; i < predicate_counts.size(); ++i) {
    if (i > 0) os << ",";
    os << predicate_counts[i].first << "x" << predicate_counts[i].second;
  }
  os << "} consts=" << constants.size() << " ranges=" << ranges.size();
  if (distinct) os << " distinct";
  return os.str();
}

CatalogSignature ComputeSignature(const CaqlQuery& def) {
  CatalogSignature sig;
  sig.distinct = def.distinct;
  sig.canonical_key = def.CanonicalKey();

  const std::vector<Atom> rel_atoms = def.RelationAtoms();
  if (rel_atoms.empty() || !def.EvaluableAtoms().empty() ||
      !def.NegatedAtoms().empty()) {
    sig.exact_only = true;
    return sig;
  }

  std::map<std::string, uint32_t> counts;
  std::set<ConstantRequirement> constants;
  // First relation-atom occurrence of each body variable, for ranges.
  std::map<std::string, std::vector<std::pair<std::string, size_t>>>
      var_positions;
  for (const Atom& a : rel_atoms) {
    sig.predicate_mask |= PredicateBit(a.predicate);
    ++counts[a.predicate];
    for (size_t p = 0; p < a.args.size(); ++p) {
      const Term& t = a.args[p];
      if (t.is_constant()) {
        constants.insert(ConstantRequirement{a.predicate, p, t.value()});
      } else {
        var_positions[t.var_name()].emplace_back(a.predicate, p);
      }
    }
  }
  sig.predicate_counts.assign(counts.begin(), counts.end());
  sig.constants.assign(constants.begin(), constants.end());

  // A definition comparison "X op c" maps onto "image(X) op c", which must
  // be implied by the query's comparisons. Consistency forces every
  // occurrence of X to the same image, so the constraint must be
  // satisfiable at each (predicate, pos) where X occurs — each occurrence
  // is an independently necessary condition.
  std::set<RangeRequirement> ranges;
  for (const Atom& comp : def.ComparisonAtoms()) {
    auto norm = NormalizeComparison(comp);
    if (!norm.has_value()) continue;
    const auto& [var, op, bound] = *norm;
    auto it = var_positions.find(var);
    if (it == var_positions.end()) continue;  // comparison-only variable
    for (const auto& [predicate, pos] : it->second) {
      ranges.insert(RangeRequirement{predicate, pos, op, bound});
    }
  }
  sig.ranges.assign(ranges.begin(), ranges.end());
  return sig;
}

QueryDescriptor DescribeQuery(const CaqlQuery& query) {
  QueryDescriptor q;
  q.distinct = query.distinct;
  q.canonical_key = query.CanonicalKey();
  q.comparisons = query.ComparisonAtoms();
  // Evaluable atoms in the query confine every element to the exact-match
  // path of ComputeSubsumptionAll, so only identical definitions can
  // serve it. (Query-side negation does not: negated literals are planned
  // as separate anti-sources, outside RelationAtoms().)
  q.exact_only = !query.EvaluableAtoms().empty();
  for (const Atom& a : query.RelationAtoms()) {
    q.predicate_mask |= PredicateBit(a.predicate);
    ++q.predicate_counts[a.predicate];
    for (size_t p = 0; p < a.args.size(); ++p) {
      const Term& t = a.args[p];
      if (t.is_constant()) q.constants.emplace(a.predicate, p, t.value());
      q.terms[{a.predicate, p}].push_back(t);
    }
  }
  return q;
}

bool SignatureAdmits(const CatalogSignature& sig, const QueryDescriptor& q) {
  // SETOF elements cannot serve BAGOF queries (duplicates were lost).
  if (sig.distinct && !q.distinct) return false;

  // Exact-only on either side: only the identical definition is usable.
  if (sig.exact_only || q.exact_only) {
    return sig.canonical_key == q.canonical_key;
  }

  // Predicate-set containment, cheapest test first.
  if ((sig.predicate_mask & ~q.predicate_mask) != 0) return false;
  for (const auto& [predicate, n] : sig.predicate_counts) {
    auto it = q.predicate_counts.find(predicate);
    if (it == q.predicate_counts.end() || it->second < n) return false;
  }

  // Constant agreement: each required constant must occur verbatim.
  for (const ConstantRequirement& c : sig.constants) {
    if (q.constants.count({c.predicate, c.pos, c.value}) == 0) return false;
  }

  // Range satisfiability: some query term at the position must be able to
  // carry the mapped comparison.
  for (const RangeRequirement& r : sig.ranges) {
    auto it = q.terms.find({r.predicate, r.pos});
    if (it == q.terms.end()) return false;
    bool satisfiable = false;
    for (const Term& t : it->second) {
      if (t.is_constant()) {
        if (rel::EvalCompare(r.op, t.value(), r.bound)) {
          satisfiable = true;
          break;
        }
      } else {
        Atom mapped(rel::CompareOpSymbol(r.op),
                    {Term::Var(t.var_name()), Term::Const(r.bound)});
        if (ComparisonImplied(q.comparisons, mapped)) {
          satisfiable = true;
          break;
        }
      }
    }
    if (!satisfiable) return false;
  }
  return true;
}

void CatalogShard::Insert(CacheElementPtr element,
                          std::shared_ptr<const CatalogSignature> signature) {
  const std::string& id = element->id();
  std::string anchor = AnchorOf(*signature);
  postings_[anchor][id] = Posted{element, std::move(signature)};
  anchors_[id] = std::move(anchor);
}

void CatalogShard::Remove(const std::string& id) {
  auto it = anchors_.find(id);
  if (it == anchors_.end()) return;
  auto pit = postings_.find(it->second);
  if (pit != postings_.end()) {
    pit->second.erase(id);
    if (pit->second.empty()) postings_.erase(pit);
  }
  anchors_.erase(it);
}

void CatalogShard::Candidates(const QueryDescriptor& q,
                              std::vector<CacheElementPtr>* out,
                              CatalogLookupStats* stats) const {
  // Probe keys are distinct by construction (the canonical key once, each
  // predicate once, each constant triple once), and every element is
  // posted under exactly one anchor, so no dedup set is needed.
  std::vector<std::string> probes;
  probes.push_back(KeyCanonical(q.canonical_key));
  if (!q.exact_only) {
    for (const auto& [predicate, n] : q.predicate_counts) {
      probes.push_back(KeyPredicate(predicate));
    }
    for (const auto& [predicate, pos, value] : q.constants) {
      probes.push_back(KeyConstant(predicate, pos, value));
    }
  }
  for (const std::string& probe : probes) {
    auto it = postings_.find(probe);
    if (it == postings_.end()) continue;
    for (const auto& [id, posted] : it->second) {
      if (stats != nullptr) ++stats->probed;
      if (!SignatureAdmits(*posted.signature, q)) continue;
      if (stats != nullptr) ++stats->admitted;
      out->push_back(posted.element);
    }
  }
}

std::string CatalogShard::CheckConsistency(
    const std::map<std::string, CacheElementPtr>& elements) const {
  std::set<std::string> posted;
  for (const auto& [anchor, entries] : postings_) {
    for (const auto& [id, p] : entries) {
      if (!posted.insert(id).second) {
        return StrCat("element ", id, " posted more than once");
      }
      auto it = elements.find(id);
      if (it == elements.end()) {
        return StrCat("posting for ", id,
                      " dangles (element gone from the stripe)");
      }
      if (it->second != p.element) {
        return StrCat("posting for ", id, " pins a stale element");
      }
    }
  }
  for (const auto& [id, element] : elements) {
    if (posted.count(id) == 0) {
      return StrCat("element ", id, " is not posted in the catalog");
    }
    // Self-reachability: the element's own definition must retrieve it.
    std::vector<CacheElementPtr> cands;
    Candidates(DescribeQuery(element->definition()), &cands);
    if (std::find(cands.begin(), cands.end(), element) == cands.end()) {
      return StrCat("element ", id,
                    " is not a candidate for its own definition");
    }
  }
  return "";
}

}  // namespace braid::cms
