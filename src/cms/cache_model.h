#ifndef BRAID_CMS_CACHE_MODEL_H_
#define BRAID_CMS_CACHE_MODEL_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "caql/caql_query.h"
#include "cms/cache_element.h"
#include "cms/catalog.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"

namespace braid::cms {

/// The cache model: meta-information about what is in the cache (paper §3:
/// "the CMS controls the cache and the cache model (i.e., meta-information
/// about the cache)"). Conceptually a relation (E_id, E_def, ...); here a
/// registry with two access paths the subsumption step needs:
///  * by element id, and
///  * by predicate name — the "(predicate name, cache element)" index of
///    §5.3.2 step 1, so only elements mentioning a query's predicates are
///    considered for subsumption.
/// A third index keys elements by the hash of their canonical definition
/// for the exact-match fast path (DESIGN.md §10 "Exact-match index").
///
/// Concurrency (DESIGN.md §10 "Striped cache & session model"): storage is
/// striped by the hash of the canonical definition key; each stripe has its
/// own `braid::Mutex`, and its indexes are written and read in place under
/// it. Writers (Register/Remove) lock exactly one stripe, the one the
/// element's key names; readers lock each stripe they search in turn and
/// copy out only the element pointers they return, so the mapping search,
/// eviction ranking and every other consumer run after the lock is
/// released. Lock order: a stripe mutex may be held while taking an
/// element's `repr_mu_`, never the reverse, and no operation ever holds
/// two stripe locks at once.
///
/// Byte accounting (DESIGN.md §10): the model keeps resident and derived
/// byte totals. Register charges an element's memoized size, RemoveLocked
/// discharges it, and a resident element charges each representation it
/// builds, all under the element's `repr_mu_`; so the totals are O(1)
/// loads and always equal the sum of the resident elements' sizes.
class CacheModel {
 public:
  static constexpr size_t kNumStripes = 8;

  CacheModel();
  /// Detaches the resident elements from the totals: elements outlive the
  /// model wherever answers or plans still share them.
  ~CacheModel();

  CacheModel(const CacheModel&) = delete;
  CacheModel& operator=(const CacheModel&) = delete;

  /// Fresh element id ("E1", "E2", ...).
  std::string NextId();

  /// Registers an element under its id, predicate index, and canonical
  /// key. Ids come from NextId(); an id may be registered again only with
  /// the same definition. Replaces any same-canonical-key entry:
  /// concurrent sessions may race to install the same definition under
  /// different ids (last install wins, the loser's element is dropped),
  /// and registering a resident element again replaces it.
  void Register(CacheElementPtr element);

  /// Removes the element from the stripe its key names. Returns the bytes
  /// it occupied at removal, 0 when it is no longer resident (another
  /// thread removed or displaced it first) — so concurrent evictions never
  /// double-count freed space.
  size_t Remove(const CacheElement& element);

  /// The resident element with this id, or null. Searches every stripe
  /// (an id names no stripe).
  CacheElementPtr Find(const std::string& id) const;

  /// Elements whose definitions mention `predicate`, stripe by stripe in
  /// id order.
  std::vector<CacheElementPtr> ByPredicate(const std::string& predicate) const;

  /// Subsumption candidates for the described query, merged across every
  /// stripe's catalog. A superset of the elements ComputeSubsumptionAll
  /// would match, usually far smaller than the cache.
  std::vector<CacheElementPtr> SubsumptionCandidates(
      const QueryDescriptor& query, CatalogLookupStats* stats = nullptr) const;

  /// Verifies the catalog/stripe agreement invariant on every stripe:
  /// each cached element is posted and reachable through its own
  /// definition, and no posting points at an evicted id. Returns "" when
  /// consistent, else a description of the first violation (exercised by
  /// the differential harness after every insert/eviction wave).
  std::string CheckCatalogConsistency() const;

  /// Element whose definition has this canonical key, or null: one probe
  /// of the key's stripe by `key.hash`, confirmed on `key.text` (a hash
  /// collision misses). Takes the stripe lock briefly.
  CacheElementPtr ByCanonicalKey(const caql::QueryKey& key) const;

  /// Copy of the full id -> element map, merged stripe by stripe. (A copy
  /// is the only sound shape once installs are concurrent. Element
  /// pointers stay valid after eviction.)
  std::map<std::string, CacheElementPtr> elements() const;

  /// Every resident element, stripe by stripe in id order: elements()
  /// without the merged map, for callers that rank or filter the whole
  /// cache.
  std::vector<CacheElementPtr> ResidentElements() const;

  size_t size() const { return count_.load(std::memory_order_acquire); }

  /// Monotonic content version: bumped by every Register and every
  /// effective Remove. Decisions derived from cache contents (e.g.
  /// memoized prefetch-admission rejections) carry the version they were
  /// judged against and detect staleness with one comparison.
  uint64_t version() const { return version_.load(std::memory_order_acquire); }

  /// Total bytes across all resident elements, co-existing
  /// representations (indexes, sorted copies) built after install
  /// included. A load: walks no tuples.
  size_t TotalBytes() const { return totals_.resident(); }

  /// The part of TotalBytes() held by derived elements (also a load).
  size_t DerivedBytes() const { return totals_.derived(); }

  /// Verifies the byte accounting against an independent recount: every
  /// resident element's memoized ByteSize() equals its
  /// ComputeByteSize() tuple walk, and the resident and derived totals
  /// equal the sums of those recounts. Returns "" when consistent, else
  /// the first disagreement. Call between queries: a concurrent install
  /// or eviction makes the two sides race.
  std::string CheckByteAccounting() const;

  /// True if some materialized element's definition mentions `predicate` —
  /// the signal the IE's shaper uses to prefer conjunct orders that hit
  /// cache-resident data.
  bool HasMaterializedFor(const std::string& predicate) const;

  /// The cache model *as a relation* — the paper's §5.3.2 presentation
  /// ("a relation of type (E_id_i, E_def_i, ....)"). Columns: e_id, e_def,
  /// form ('extension' or 'generator'), tuples, bytes, hits. This is what
  /// the IE reads when it "access[es] cache model information from the
  /// CMS" (§3).
  rel::Relation AsRelation() const;

  std::string ToString() const;

 private:
  struct Stripe {
    mutable Mutex mu;
    std::map<std::string, CacheElementPtr> elements BRAID_GUARDED_BY(mu);
    /// The "(predicate name, cache element)" index of §5.3.2: predicate ->
    /// id -> element.
    std::map<std::string, std::map<std::string, CacheElementPtr>>
        by_predicate BRAID_GUARDED_BY(mu);
    /// Exact-match index: element key hash -> element. A multimap only so
    /// that two definitions whose hashes collide can both be resident.
    std::unordered_multimap<uint64_t, CacheElementPtr> by_key
        BRAID_GUARDED_BY(mu);
    /// The semantic catalog over this stripe's elements, maintained in the
    /// same critical sections as the maps above.
    CatalogShard catalog BRAID_GUARDED_BY(mu);
  };

  /// Contention-instrumented stripe lock: an uncontended acquisition is
  /// one TryLock; a contended one counts on `cache.stripe_contention` and
  /// records the wait on `cache.lock_wait_ms`.
  class BRAID_SCOPED_CAPABILITY StripeLock {
   public:
    StripeLock(const CacheModel* model, const Stripe& s) BRAID_ACQUIRE(s.mu);
    ~StripeLock() BRAID_RELEASE();

    StripeLock(const StripeLock&) = delete;
    StripeLock& operator=(const StripeLock&) = delete;

   private:
    Mutex* mu_;
  };

  /// The stripe owning keys with this hash.
  static size_t StripeOf(uint64_t key_hash) { return key_hash % kNumStripes; }

  /// Removes `element` from stripe `s` (the stripe its key names) if it is
  /// resident there; returns the bytes freed (what the element
  /// discharged), 0 when it is not resident.
  size_t RemoveLocked(Stripe& s, const CacheElement& element)
      BRAID_REQUIRES(s.mu);

  /// The element of stripe `s` whose key is `key`, or null.
  static CacheElementPtr FindLocked(const Stripe& s, const caql::QueryKey& key)
      BRAID_REQUIRES(s.mu);

  std::array<Stripe, kNumStripes> stripes_;

  std::atomic<int> next_id_{1};
  std::atomic<uint64_t> version_{0};
  std::atomic<size_t> count_{0};
  CacheByteTotals totals_;

  // Registry-owned instrument handles (process lifetime).
  obs::Counter* stripe_contention_;
  obs::Histogram* lock_wait_ms_;
};

}  // namespace braid::cms

#endif  // BRAID_CMS_CACHE_MODEL_H_
