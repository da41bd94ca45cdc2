#ifndef BRAID_CMS_CACHE_MANAGER_H_
#define BRAID_CMS_CACHE_MANAGER_H_

#include <algorithm>
#include <atomic>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "cms/cache_model.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"

namespace braid::cms {

class LoadController;

/// Counters published by the cache manager. Atomics: concurrent sessions
/// insert and evict in parallel; each field is independently monotone.
struct CacheManagerStats {
  std::atomic<size_t> insertions{0};
  std::atomic<size_t> evictions{0};
  std::atomic<size_t> rejected_too_large{0};
  /// Derived intermediates through the cost-based admission gate.
  std::atomic<size_t> intermediates_admitted{0};
  std::atomic<size_t> intermediates_rejected{0};
  std::atomic<size_t> intermediates_evicted{0};
};

/// Verdict of the cost-based admission gate for a derived intermediate
/// (see JudgeIntermediate): benefit = predicted reuse × modeled
/// recomputation cost, against the per-use cost of its tuple footprint.
struct IntermediateVerdict {
  bool admit = false;
  double benefit_ms = 0;
  double cost_ms = 0;
  /// "admit", "oversized" (exceeds the intermediate budget slice),
  /// "low-benefit", or "shed-overload" (the load controller is shedding
  /// speculative work; the stage is recomputable, so dropping it costs
  /// only a possible future recomputation).
  const char* reason = "";
};

/// Returns the advice-predicted minimum distance (in queries) until the
/// element may be needed again, or nullopt when there is no prediction.
/// Provided by the Advice Manager; plain LRU is used when absent. Must be
/// callable from any session thread and must not call back into the cache
/// (MakeRoom invokes it while an eviction pass is in progress).
using ReplacementAdvisor =
    std::function<std::optional<size_t>(const CacheElement&)>;

/// Owns the cache within a byte budget and implements replacement: LRU
/// order "which may be modified due to advice" (paper §5.4). When advice
/// predicts an element will be needed within the replacement horizon it is
/// protected; among the rest, the victim is the element predicted farthest
/// in the future, breaking ties by least recent use.
///
/// Thread safety: fully concurrent. The model is striped (see CacheModel);
/// the logical clock and stats are atomics; the advisor is swapped under a
/// small leaf mutex and copied per eviction pass. `MakeRoom` is
/// stripe-aware: candidates are copied out one stripe lock at a time and
/// ranked with no lock held, and each eviction locks exactly one stripe
/// (via CacheModel::Remove), so an eviction pass never blocks reads or
/// installs on other stripes. Budget checks read the model's byte totals, which
/// are loads (CacheModel::TotalBytes), so a write costs O(1) in the size
/// of the cache until it has to evict.
class CacheManager {
 public:
  /// `intermediate_budget_fraction` bounds the slice of the budget derived
  /// intermediates may occupy (CmsConfig knob), so intermediates never
  /// starve advised views.
  CacheManager(size_t budget_bytes, size_t replacement_horizon,
               double intermediate_budget_fraction = 0.25);

  CacheModel& model() { return model_; }
  const CacheModel& model() const { return model_; }

  void set_replacement_advisor(ReplacementAdvisor advisor) {
    MutexLock lock(&advisor_mu_);
    advisor_ = std::move(advisor);
  }

  /// Installs the overload policy consulted by JudgeIntermediate (may be
  /// null — standalone cache-manager tests). Set once before concurrent
  /// use; the controller must outlive the cache manager.
  void set_load_controller(LoadController* controller) {
    load_controller_ = controller;
  }

  /// Advances the logical clock (call once per IE query).
  void Tick() { clock_.fetch_add(1, std::memory_order_acq_rel); }
  uint64_t clock() const { return clock_.load(std::memory_order_acquire); }

  /// Inserts `element`, evicting as needed. Returns false if the element
  /// alone exceeds the budget (it is not cached). Safe to call from any
  /// session thread; when concurrent inserts overshoot the budget, the
  /// post-install re-check evicts back under it before returning.
  bool Insert(CacheElementPtr element);

  /// Marks a use of `element` for LRU purposes: the caller passes the
  /// element its probe or plan returned, so no second lookup finds it
  /// again. Touching an element evicted meanwhile only updates that
  /// element's own stats.
  void Touch(CacheElement& element);

  /// Cost-based admission for a derived intermediate of `bytes` footprint
  /// and `tuples` rows that took `recompute_ms` (modeled) to produce.
  /// Benefit: the recomputation cost scaled by predicted reuse — 1 when
  /// advice predicts recurrence within the replacement horizon, decaying
  /// with distance beyond it, 0.5 with no prediction. Cost: the per-use
  /// price of the footprint (one scan of its tuples). Admit when benefit
  /// exceeds cost and the footprint fits the intermediate budget slice.
  /// Counts every verdict (intermediates_admitted / intermediates_rejected
  /// and the `intermediate.*` counters).
  IntermediateVerdict JudgeIntermediate(size_t bytes, size_t tuples,
                                        double recompute_ms,
                                        std::optional<size_t> predicted_distance,
                                        double local_per_tuple_ms);

  /// Installs a derived element (`element->is_derived()` must be set).
  /// Keeps the derived slice within its budget by first evicting other
  /// derived elements (least recently used first), then inserts normally.
  bool InsertIntermediate(CacheElementPtr element);

  /// The sorted representation of a resident `element` (paper §5.2),
  /// budgeted: an existing copy is reused; a new one is kept only after
  /// room is made for it (never by evicting `element` itself), and when
  /// it still does not fit it is returned without being kept. Null for
  /// generator-form elements.
  std::shared_ptr<const rel::Relation> EnsureSorted(
      const CacheElementPtr& element, const std::vector<size_t>& columns);

  /// Bytes currently held by derived elements (a load).
  size_t DerivedBytes() const { return model_.DerivedBytes(); }

  size_t budget_bytes() const { return budget_bytes_; }
  size_t intermediate_budget_bytes() const {
    return intermediate_budget_bytes_;
  }
  const CacheManagerStats& stats() const { return stats_; }

 private:
  /// Evicts elements until at least `needed` bytes are free (or nothing
  /// evictable remains). `exclude` is never evicted. Holds at most one
  /// stripe lock at a time and no lock while ranking or consulting the
  /// advisor.
  void MakeRoom(size_t needed, const std::string& exclude);

  /// Evicts (never `exclude`) until `bytes` more fit within the budget;
  /// returns whether they now fit.
  bool MakeRoomFor(size_t bytes, const std::string& exclude);

  /// Post-write re-check: concurrent writers each make room for their own
  /// bytes, but two can still land together; whichever re-checks last
  /// evicts (never `exclude`) back under the budget, so the budget holds
  /// whenever no write is mid-flight.
  void TrimToBudget(const std::string& exclude);

  /// Evicts derived elements only (least recently used first) until at
  /// least `needed` bytes of the derived slice are free.
  void MakeRoomDerived(size_t needed, const std::string& exclude);

  CacheModel model_;
  const size_t budget_bytes_;  // immutable after construction
  const size_t horizon_;       // immutable after construction
  const size_t intermediate_budget_bytes_;  // immutable after construction
  std::atomic<uint64_t> clock_{0};

  /// Leaf mutex for advisor replacement; MakeRoom copies the advisor out
  /// and calls it without holding this (the advisor takes its own lock).
  mutable Mutex advisor_mu_;
  ReplacementAdvisor advisor_ BRAID_GUARDED_BY(advisor_mu_);
  LoadController* load_controller_ = nullptr;  // set once, pre-concurrency
  CacheManagerStats stats_;

  /// Instruments, resolved once (every exact hit touches, every install,
  /// eviction and admission verdict counts). `cache.resident_bytes` is
  /// set by the model's byte totals.
  obs::Counter* touches_;
  obs::Counter* insertions_;
  obs::Counter* evictions_;
  obs::Counter* advisor_calls_;
  obs::Counter* rejected_too_large_;
  obs::Counter* intermediates_admitted_;
  obs::Counter* intermediates_rejected_;
  obs::Counter* intermediates_evicted_;
};

}  // namespace braid::cms

#endif  // BRAID_CMS_CACHE_MANAGER_H_
