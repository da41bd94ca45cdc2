#include "cms/cache_manager.h"

#include <algorithm>
#include <limits>
#include <map>
#include <tuple>
#include <utility>

#include "cms/load_controller.h"
#include "obs/metrics.h"

namespace braid::cms {

CacheManager::CacheManager(size_t budget_bytes, size_t replacement_horizon,
                           double intermediate_budget_fraction)
    : budget_bytes_(budget_bytes),
      horizon_(replacement_horizon),
      intermediate_budget_bytes_(static_cast<size_t>(
          static_cast<double>(budget_bytes) *
          std::clamp(intermediate_budget_fraction, 0.0, 1.0))),
      touches_(&obs::MetricsRegistry::Global().counter("cache.touches")),
      insertions_(
          &obs::MetricsRegistry::Global().counter("cache.insertions")),
      evictions_(&obs::MetricsRegistry::Global().counter("cache.evictions")),
      advisor_calls_(
          &obs::MetricsRegistry::Global().counter("cache.advisor_calls")),
      resident_bytes_(
          &obs::MetricsRegistry::Global().gauge("cache.resident_bytes")) {}

bool CacheManager::Insert(CacheElementPtr element) {
  const size_t size = element->ByteSize();
  if (size > budget_bytes_) {
    stats_.rejected_too_large.fetch_add(1, std::memory_order_relaxed);
    obs::MetricsRegistry::Global().counter("cache.rejected_too_large")
        .Increment();
    return false;
  }
  const uint64_t now = clock();
  element->stats().created_seq.store(now, std::memory_order_relaxed);
  element->stats().last_used_seq.store(now, std::memory_order_relaxed);
  const std::string id = element->id();
  const size_t current = model_.TotalBytes();
  if (current + size > budget_bytes_) {
    MakeRoom(current + size - budget_bytes_, id);
  }
  model_.Register(std::move(element));
  stats_.insertions.fetch_add(1, std::memory_order_relaxed);
  // Concurrent inserts each pre-evict for their own projection, but two
  // installs can still land together; whichever re-checks last pulls the
  // footprint back under budget (the invariant holds whenever no Insert
  // is mid-flight).
  const size_t after = model_.TotalBytes();
  if (after > budget_bytes_) {
    MakeRoom(after - budget_bytes_, id);
  }
  insertions_->Increment();
  resident_bytes_->Set(static_cast<int64_t>(model_.TotalBytes()));
  return true;
}

void CacheManager::Touch(const std::string& id) {
  CacheElementPtr e = model_.Find(id);
  if (e == nullptr) return;
  e->stats().last_used_seq.store(clock(), std::memory_order_relaxed);
  e->stats().hits.fetch_add(1, std::memory_order_relaxed);
  touches_->Increment();
}

IntermediateVerdict CacheManager::JudgeIntermediate(
    size_t bytes, size_t tuples, double recompute_ms,
    std::optional<size_t> predicted_distance, double local_per_tuple_ms) {
  // Under overload, installing an intermediate (copy + insert + possible
  // eviction pass) spends exactly the capacity foreground queries are
  // queueing for; shed it before running the cost model.
  if (load_controller_ != nullptr && load_controller_->ShouldShed()) {
    IntermediateVerdict shed;
    shed.reason = "shed-overload";
    load_controller_->CountShed(ShedKind::kIntermediate);
    stats_.intermediates_rejected.fetch_add(1, std::memory_order_relaxed);
    obs::MetricsRegistry::Global().counter("intermediate.rejected")
        .Increment();
    return shed;
  }
  IntermediateVerdict v;
  // Cost: every reuse pays at least one scan of the footprint; keeping an
  // intermediate that is cheaper to recompute than to scan is pure loss.
  v.cost_ms = static_cast<double>(tuples) * local_per_tuple_ms;
  // Benefit: recomputation cost scaled by predicted reuse. Advice within
  // the replacement horizon means a near-certain reuse; beyond it the
  // probability decays with distance; no prediction defaults to a coin
  // flip (the advisor only models the producing view's own recurrence —
  // cross-query subexpression sharing is exactly what it cannot see).
  double reuse = 0.5;
  if (predicted_distance.has_value()) {
    reuse = *predicted_distance <= horizon_
                ? 1.0
                : static_cast<double>(horizon_ + 1) /
                      static_cast<double>(*predicted_distance + 1);
  }
  v.benefit_ms = reuse * recompute_ms;
  if (bytes > intermediate_budget_bytes_) {
    v.reason = "oversized";
  } else if (v.benefit_ms <= v.cost_ms) {
    v.reason = "low-benefit";
  } else {
    v.admit = true;
    v.reason = "admit";
  }
  auto& registry = obs::MetricsRegistry::Global();
  if (v.admit) {
    stats_.intermediates_admitted.fetch_add(1, std::memory_order_relaxed);
    registry.counter("intermediate.admitted").Increment();
  } else {
    stats_.intermediates_rejected.fetch_add(1, std::memory_order_relaxed);
    registry.counter("intermediate.rejected").Increment();
  }
  return v;
}

size_t CacheManager::DerivedBytes() const {
  size_t total = 0;
  for (const auto& [id, e] : model_.elements()) {
    if (e->is_derived()) total += e->ByteSize();
  }
  return total;
}

void CacheManager::MakeRoomDerived(size_t needed, const std::string& exclude) {
  if (needed == 0) return;
  auto& registry = obs::MetricsRegistry::Global();
  // LRU among derived elements only; no advisor consultation — the slice
  // budget is a hard bound, and intermediates are reconstructible.
  struct Candidate {
    uint64_t last_used;
    CacheElementPtr element;
  };
  std::vector<Candidate> candidates;
  for (const auto& [id, e] : model_.elements()) {
    if (!e->is_derived() || id == exclude) continue;
    candidates.push_back(
        {e->stats().last_used_seq.load(std::memory_order_relaxed), e});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.last_used != b.last_used) return a.last_used < b.last_used;
              return a.element->id() < b.element->id();
            });
  for (const Candidate& c : candidates) {
    if (needed == 0) break;
    const size_t freed = model_.Remove(c.element->id());
    if (freed == 0) continue;
    stats_.evictions.fetch_add(1, std::memory_order_relaxed);
    stats_.intermediates_evicted.fetch_add(1, std::memory_order_relaxed);
    evictions_->Increment();
    registry.counter("intermediate.evicted").Increment();
    needed = freed >= needed ? 0 : needed - freed;
  }
}

bool CacheManager::InsertIntermediate(CacheElementPtr element) {
  const size_t size = element->ByteSize();
  if (size > intermediate_budget_bytes_) {
    stats_.rejected_too_large.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  // Intermediates never grow past their slice: make room among derived
  // elements first, then take the ordinary insert path (whose global
  // budget check ranks any remaining derived elements as first victims).
  const size_t derived = DerivedBytes();
  if (derived + size > intermediate_budget_bytes_) {
    MakeRoomDerived(derived + size - intermediate_budget_bytes_,
                    element->id());
  }
  return Insert(std::move(element));
}

void CacheManager::MakeRoom(size_t needed, const std::string& exclude) {
  if (needed == 0) return;
  auto& registry = obs::MetricsRegistry::Global();

  ReplacementAdvisor advisor;
  {
    MutexLock lock(&advisor_mu_);
    advisor = advisor_;
  }

  // Victim ordering: derived intermediates before anything else (they are
  // reconstructible stage results, never allowed to displace advised
  // views), then elements not predicted within the horizon, then farthest
  // predicted distance, then least recently used, with the element id as
  // a final tie-break so eviction order is fully deterministic. The
  // advisor is consulted exactly once per element per pass — evicting a
  // victim changes no other element's rank, which makes one ranking pass
  // sufficient for the whole batch. The candidate set is a snapshot;
  // a concurrently removed element simply frees no bytes when its turn
  // comes.
  struct Candidate {
    std::tuple<int, int, size_t, uint64_t> rank;
    CacheElementPtr element;
  };
  const std::map<std::string, CacheElementPtr> resident = model_.elements();
  std::vector<Candidate> candidates;
  candidates.reserve(resident.size());
  for (const auto& [id, e] : resident) {
    if (id == exclude) continue;
    std::optional<size_t> dist;
    if (advisor) {
      dist = advisor(*e);
      advisor_calls_->Increment();
    }
    const bool is_protected = dist.has_value() && *dist < horizon_;
    const size_t d =
        dist.has_value() ? *dist : std::numeric_limits<size_t>::max();
    candidates.push_back(
        {std::make_tuple(e->is_derived() ? 1 : 0, is_protected ? 0 : 1, d,
                         std::numeric_limits<uint64_t>::max() -
                             e->stats().last_used_seq.load(
                                 std::memory_order_relaxed)),
         e});
  }
  // Best victims first (larger rank = better victim).
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.rank != b.rank) return a.rank > b.rank;
              return a.element->id() < b.element->id();
            });

  for (const Candidate& c : candidates) {
    if (needed == 0) break;
    // Remove locks exactly one stripe and reports the bytes actually
    // freed (0 when a concurrent pass already evicted this element).
    const size_t freed = model_.Remove(c.element->id());
    if (freed == 0) continue;
    stats_.evictions.fetch_add(1, std::memory_order_relaxed);
    evictions_->Increment();
    if (c.element->is_derived()) {
      stats_.intermediates_evicted.fetch_add(1, std::memory_order_relaxed);
      registry.counter("intermediate.evicted").Increment();
    }
    needed = freed >= needed ? 0 : needed - freed;
  }
  resident_bytes_->Set(static_cast<int64_t>(model_.TotalBytes()));
}

}  // namespace braid::cms
