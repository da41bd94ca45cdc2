#ifndef BRAID_CMS_CACHE_ELEMENT_H_
#define BRAID_CMS_CACHE_ELEMENT_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>

#include "caql/caql_query.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"
#include "relational/index.h"
#include "relational/relation.h"

namespace braid::cms {

/// Byte totals of the elements resident in one cache model — what the
/// budget is checked against (DESIGN.md §10 "Byte accounting"). An
/// element charges them while resident: CacheModel::Register attaches it,
/// CacheModel::RemoveLocked detaches it, and a representation the element
/// builds in between is charged as it is built. Reads are plain loads.
class CacheByteTotals {
 public:
  /// `resident_gauge` is set to the resident total on every change.
  explicit CacheByteTotals(obs::Gauge* resident_gauge)
      : resident_gauge_(resident_gauge) {}

  size_t resident() const { return resident_.load(std::memory_order_acquire); }
  size_t derived() const { return derived_.load(std::memory_order_acquire); }

  void Charge(bool is_derived, size_t bytes);
  void Discharge(bool is_derived, size_t bytes);

 private:
  std::atomic<size_t> resident_{0};
  std::atomic<size_t> derived_{0};  // the part held by derived elements
  obs::Gauge* resident_gauge_;
};

/// Usage metadata kept per cache element: the "historical meta-data to
/// support cache replacement and accumulate performance measurement
/// statistics" of §5.4. Sequence numbers come from the CMS's logical
/// clock (one tick per IE query). Fields are relaxed atomics: concurrent
/// sessions touch elements from many threads, and every field is an
/// independent monotone counter where word-level atomicity suffices.
struct CacheElementStats {
  std::atomic<uint64_t> created_seq{0};
  std::atomic<uint64_t> last_used_seq{0};
  std::atomic<size_t> hits{0};
  std::atomic<double> cost_to_recompute_ms{0};  // est. remote cost saved/hit
};

/// A cache element: a relation defined by a CAQL expression (paper §5).
/// Materialized elements hold an extension (shared, immutable — streams and
/// generators may reference it after eviction); generator-form elements
/// hold only the definition and are evaluated lazily from other cached
/// data by the Query Processor.
///
/// Elements may carry hash indexes over extension columns ("attribute
/// indexing", built when advice marks the column's variable as a consumer).
///
/// Thread safety: id, definition, key, extension, and origin view are immutable
/// after the element is installed in the cache model, so readers touch
/// them without synchronization. The co-existing representations (indexes
/// and sorted copies), the memoized byte size and the totals the element
/// charges are guarded by a per-element mutex; stats fields are atomics.
class CacheElement {
 public:
  /// Materialized element. `key` is the definition's key when the caller
  /// already holds it; left empty, the element computes it.
  CacheElement(std::string id, caql::CaqlQuery definition,
               std::shared_ptr<const rel::Relation> extension,
               caql::QueryKey key = {});

  /// Generator-form element (definition only).
  CacheElement(std::string id, caql::CaqlQuery definition);

  const std::string& id() const { return id_; }
  const caql::CaqlQuery& definition() const { return definition_; }
  /// definition().Key(), computed once: the cache model indexes, displaces
  /// and removes the element by it.
  const caql::QueryKey& key() const { return key_; }

  bool is_materialized() const { return extension_ != nullptr; }
  const std::shared_ptr<const rel::Relation>& extension() const {
    return extension_;
  }

  /// View-spec id this element originated from (for advice lookups); empty
  /// when the element was not created from a view specification. Set once
  /// before the element is published to the cache model.
  const std::string& origin_view() const { return origin_view_; }
  void set_origin_view(std::string view) { origin_view_ = std::move(view); }

  /// True for a derived intermediate: a plan-stage result admitted by the
  /// cost gate rather than a query answer or advised view. Derived
  /// elements live in the intermediate budget slice and are evicted before
  /// any non-derived element (see CacheManager::MakeRoom). Set once before
  /// the element is published to the cache model.
  bool is_derived() const { return derived_; }
  void set_derived(bool derived) { derived_ = derived; }

  /// The index on `column`, or nullptr.
  std::shared_ptr<const rel::HashIndex> index(size_t column) const;

  /// Builds (or returns the existing) hash index on `column`. Requires a
  /// materialized extension. A new index adds to ByteSize() and, while the
  /// element is resident, to the cache totals.
  std::shared_ptr<const rel::HashIndex> EnsureIndex(size_t column);

  /// Co-existing alternative representation (paper §5.2): the extension
  /// sorted by `columns`, built on first request and shared by every
  /// later use that needs the same ordering. Returns nullptr for
  /// generator-form elements. Charged like EnsureIndex; budgeted callers
  /// go through CacheManager::EnsureSorted, which makes room first.
  std::shared_ptr<const rel::Relation> EnsureSorted(
      const std::vector<size_t>& columns);

  /// The sorted representation for `columns` if already built.
  std::shared_ptr<const rel::Relation> sorted(
      const std::vector<size_t>& columns) const;

  /// Number of alternative (sorted) representations currently held.
  size_t NumSortedRepresentations() const;

  /// Bytes consumed by the extension plus indexes and sorted copies (a
  /// small constant for generator-form elements). Memoized: computed at
  /// construction and grown as representations are built, so O(1).
  size_t ByteSize() const;

  /// ByteSize() recounted by walking every tuple of every representation:
  /// the reference CacheModel::CheckByteAccounting compares against.
  size_t ComputeByteSize() const;

  CacheElementStats& stats() { return stats_; }
  const CacheElementStats& stats() const { return stats_; }

  std::string ToString() const;

 private:
  friend class CacheModel;

  /// Starts charging `totals` with this element's bytes, now and as its
  /// representations grow. CacheModel calls it under the stripe lock that
  /// publishes the element; an element is resident in at most one model.
  void ChargeTo(CacheByteTotals* totals);

  /// Stops charging and discharges what was charged; returns those bytes
  /// (0 when not charging). Called under the stripe lock that unpublishes
  /// the element.
  size_t Discharge();

  /// Adds a representation of `bytes` to the footprint.
  void Grow(size_t bytes) BRAID_REQUIRES(repr_mu_);

  std::string id_;
  caql::CaqlQuery definition_;
  caql::QueryKey key_;
  std::shared_ptr<const rel::Relation> extension_;  // null => generator form
  std::string origin_view_;
  bool derived_ = false;

  /// Guards the lazily built representations and the byte accounting; a
  /// leaf lock (nothing else is acquired while it is held). Lock order:
  /// a cache-model stripe lock, then this.
  mutable Mutex repr_mu_;
  std::map<size_t, std::shared_ptr<const rel::HashIndex>> indexes_
      BRAID_GUARDED_BY(repr_mu_);
  std::map<std::vector<size_t>, std::shared_ptr<const rel::Relation>> sorted_
      BRAID_GUARDED_BY(repr_mu_);
  size_t bytes_ BRAID_GUARDED_BY(repr_mu_);
  /// The totals of the model this element is resident in, or null.
  CacheByteTotals* charged_ BRAID_GUARDED_BY(repr_mu_) = nullptr;
  CacheElementStats stats_;
};

using CacheElementPtr = std::shared_ptr<CacheElement>;

}  // namespace braid::cms

#endif  // BRAID_CMS_CACHE_ELEMENT_H_
