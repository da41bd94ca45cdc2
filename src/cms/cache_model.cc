#include "cms/cache_model.h"

#include <chrono>
#include <sstream>
#include <utility>

#include "common/strings.h"

namespace braid::cms {

CacheModel::CacheModel()
    : totals_(&obs::MetricsRegistry::Global().gauge("cache.resident_bytes")),
      stripe_contention_(
          &obs::MetricsRegistry::Global().counter("cache.stripe_contention")),
      lock_wait_ms_(
          &obs::MetricsRegistry::Global().histogram("cache.lock_wait_ms")) {}

CacheModel::~CacheModel() {
  for (Stripe& s : stripes_) {
    MutexLock lock(&s.mu);
    for (const auto& [id, e] : s.elements) e->Discharge();
  }
}

CacheModel::StripeLock::StripeLock(const CacheModel* model, const Stripe& s)
    : mu_(&s.mu) {
  if (mu_->TryLock()) return;
  model->stripe_contention_->Increment();
  const auto start = std::chrono::steady_clock::now();
  mu_->Lock();
  model->lock_wait_ms_->Observe(
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count());
}

CacheModel::StripeLock::~StripeLock() { mu_->Unlock(); }

std::string CacheModel::NextId() {
  return StrCat("E", next_id_.fetch_add(1, std::memory_order_relaxed));
}

void CacheModel::Register(CacheElementPtr element) {
  const std::string& id = element->id();
  const caql::QueryKey& key = element->key();
  // The signature is a pure function of the definition; compute it before
  // taking the stripe lock.
  auto signature = std::make_shared<const CatalogSignature>(
      ComputeSignature(element->definition()));

  Stripe& s = stripes_[StripeOf(key.hash)];
  StripeLock lock(this, s);
  // Same canonical key: concurrent sessions raced to install the same
  // definition, or this element is registered again. The resident one is
  // dropped so the key maps to exactly one element.
  const CacheElementPtr displaced = FindLocked(s, key);
  if (displaced != nullptr) RemoveLocked(s, *displaced);
  for (const logic::Atom& a : element->definition().RelationAtoms()) {
    s.by_predicate[a.predicate][id] = element;
  }
  s.catalog.Insert(element, std::move(signature));
  s.by_key.emplace(key.hash, element);
  element->ChargeTo(&totals_);
  s.elements[id] = std::move(element);
  count_.fetch_add(1, std::memory_order_acq_rel);
  version_.fetch_add(1, std::memory_order_acq_rel);
}

size_t CacheModel::RemoveLocked(Stripe& s, const CacheElement& element) {
  auto it = s.elements.find(element.id());
  if (it == s.elements.end() || it->second.get() != &element) return 0;
  // Erasing the map entry may release the last owner of `element`: hold
  // it until the indexes are clean.
  const CacheElementPtr e = it->second;
  const std::string& id = e->id();
  const size_t freed = e->Discharge();
  for (const logic::Atom& a : e->definition().RelationAtoms()) {
    auto pit = s.by_predicate.find(a.predicate);
    if (pit != s.by_predicate.end()) {
      pit->second.erase(id);
      if (pit->second.empty()) s.by_predicate.erase(pit);
    }
  }
  auto [kit, kend] = s.by_key.equal_range(e->key().hash);
  for (; kit != kend; ++kit) {
    if (kit->second == e) {
      s.by_key.erase(kit);
      break;
    }
  }
  s.catalog.Remove(id);
  s.elements.erase(it);
  count_.fetch_sub(1, std::memory_order_acq_rel);
  version_.fetch_add(1, std::memory_order_acq_rel);
  return freed;
}

size_t CacheModel::Remove(const CacheElement& element) {
  Stripe& s = stripes_[StripeOf(element.key().hash)];
  StripeLock lock(this, s);
  return RemoveLocked(s, element);
}

CacheElementPtr CacheModel::Find(const std::string& id) const {
  for (const Stripe& s : stripes_) {
    StripeLock lock(this, s);
    auto it = s.elements.find(id);
    if (it != s.elements.end()) return it->second;
  }
  return nullptr;
}

std::vector<CacheElementPtr> CacheModel::ByPredicate(
    const std::string& predicate) const {
  // Every stripe may hold definitions mentioning the predicate (stripes
  // hash the whole canonical definition, not individual predicates).
  std::vector<CacheElementPtr> out;
  for (const Stripe& s : stripes_) {
    StripeLock lock(this, s);
    auto it = s.by_predicate.find(predicate);
    if (it == s.by_predicate.end()) continue;
    for (const auto& [id, e] : it->second) out.push_back(e);
  }
  return out;
}

std::vector<CacheElementPtr> CacheModel::SubsumptionCandidates(
    const QueryDescriptor& query, CatalogLookupStats* stats) const {
  // Like ByPredicate, every stripe may hold relevant definitions (stripes
  // hash the whole canonical key); each stripe's catalog rejects
  // non-subsuming entries without touching the rest of the stripe.
  std::vector<CacheElementPtr> out;
  for (const Stripe& s : stripes_) {
    StripeLock lock(this, s);
    s.catalog.Candidates(query, &out, stats);
  }
  return out;
}

std::string CacheModel::CheckCatalogConsistency() const {
  for (size_t i = 0; i < kNumStripes; ++i) {
    const Stripe& s = stripes_[i];
    StripeLock lock(this, s);
    std::string problem = s.catalog.CheckConsistency(s.elements);
    if (!problem.empty()) {
      return StrCat("stripe ", i, ": ", problem);
    }
    // Derived intermediates carry synthesized view definitions; a
    // malformed one (invalid CAQL, or a head that disagrees with the
    // materialized schema) would answer queries wrongly through
    // subsumption, so the consistency sweep validates them like any
    // posted element.
    for (const auto& [id, e] : s.elements) {
      if (!e->is_derived()) continue;
      Status valid = e->definition().Validate();
      if (!valid.ok()) {
        return StrCat("stripe ", i, ": derived element ", id,
                      " has invalid definition: ", valid.message());
      }
      if (e->is_materialized() &&
          e->definition().head_args.size() != e->extension()->schema().size()) {
        return StrCat("stripe ", i, ": derived element ", id,
                      " head arity ", e->definition().head_args.size(),
                      " != extension arity ",
                      e->extension()->schema().size());
      }
    }
  }
  return "";
}

CacheElementPtr CacheModel::FindLocked(const Stripe& s,
                                       const caql::QueryKey& key) {
  auto [it, end] = s.by_key.equal_range(key.hash);
  for (; it != end; ++it) {
    if (it->second->key().text == key.text) return it->second;
  }
  return nullptr;
}

CacheElementPtr CacheModel::ByCanonicalKey(const caql::QueryKey& key) const {
  const Stripe& s = stripes_[StripeOf(key.hash)];
  StripeLock lock(this, s);
  return FindLocked(s, key);
}

std::map<std::string, CacheElementPtr> CacheModel::elements() const {
  std::map<std::string, CacheElementPtr> out;
  for (const Stripe& s : stripes_) {
    StripeLock lock(this, s);
    out.insert(s.elements.begin(), s.elements.end());
  }
  return out;
}

std::vector<CacheElementPtr> CacheModel::ResidentElements() const {
  std::vector<CacheElementPtr> out;
  out.reserve(size());
  for (const Stripe& s : stripes_) {
    StripeLock lock(this, s);
    for (const auto& [id, e] : s.elements) out.push_back(e);
  }
  return out;
}

bool CacheModel::HasMaterializedFor(const std::string& predicate) const {
  for (const Stripe& s : stripes_) {
    StripeLock lock(this, s);
    auto it = s.by_predicate.find(predicate);
    if (it == s.by_predicate.end()) continue;
    for (const auto& [id, e] : it->second) {
      if (e->is_materialized()) return true;
    }
  }
  return false;
}

rel::Relation CacheModel::AsRelation() const {
  rel::Relation out("cache_model",
                    rel::Schema::FromNames(
                        {"e_id", "e_def", "form", "tuples", "bytes", "hits"}));
  for (const auto& [id, e] : elements()) {
    out.AppendUnchecked(
        {rel::Value::String(id),
         rel::Value::String(e->definition().ToString()),
         rel::Value::String(e->is_materialized() ? "extension" : "generator"),
         rel::Value::Int(e->is_materialized()
                             ? static_cast<int64_t>(e->extension()->NumTuples())
                             : 0),
         rel::Value::Int(static_cast<int64_t>(e->ByteSize())),
         rel::Value::Int(static_cast<int64_t>(
             e->stats().hits.load(std::memory_order_relaxed)))});
  }
  return out;
}

std::string CacheModel::CheckByteAccounting() const {
  size_t resident = 0;
  size_t derived = 0;
  for (const CacheElementPtr& e : ResidentElements()) {
    const size_t memo = e->ByteSize();
    const size_t recount = e->ComputeByteSize();
    if (memo != recount) {
      return StrCat("element ", e->id(), " memoizes ", memo,
                    " bytes, recount gives ", recount);
    }
    resident += recount;
    if (e->is_derived()) derived += recount;
  }
  if (TotalBytes() != resident) {
    return StrCat("resident total ", TotalBytes(), " bytes, recount gives ",
                  resident);
  }
  if (DerivedBytes() != derived) {
    return StrCat("derived total ", DerivedBytes(), " bytes, recount gives ",
                  derived);
  }
  return "";
}

std::string CacheModel::ToString() const {
  const std::map<std::string, CacheElementPtr> all = elements();
  std::ostringstream os;
  os << "cache: " << all.size() << " elements, " << TotalBytes() << " bytes";
  for (const auto& [id, e] : all) {
    os << "\n  " << e->ToString();
  }
  return os.str();
}

}  // namespace braid::cms
