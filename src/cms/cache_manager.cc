#include "cms/cache_manager.h"

#include <algorithm>
#include <limits>
#include <tuple>
#include <utility>

#include "cms/load_controller.h"
#include "obs/metrics.h"
#include "relational/operators.h"

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
      rejected_too_large_(&obs::MetricsRegistry::Global().counter(
          "cache.rejected_too_large")),
      intermediates_admitted_(&obs::MetricsRegistry::Global().counter(
          "intermediate.admitted")),
      intermediates_rejected_(&obs::MetricsRegistry::Global().counter(
          "intermediate.rejected")),
      intermediates_evicted_(&obs::MetricsRegistry::Global().counter(
          "intermediate.evicted")) {}

bool CacheManager::MakeRoomFor(size_t bytes, const std::string& exclude) {
  const size_t current = model_.TotalBytes();
  if (current + bytes > budget_bytes_) {
    MakeRoom(current + bytes - budget_bytes_, exclude);
  }
  return model_.TotalBytes() + bytes <= budget_bytes_;
}

void CacheManager::TrimToBudget(const std::string& exclude) {
  const size_t after = model_.TotalBytes();
  if (after > budget_bytes_) MakeRoom(after - budget_bytes_, exclude);
}

bool CacheManager::Insert(CacheElementPtr element) {
  const size_t size = element->ByteSize();
  if (size > budget_bytes_) {
    stats_.rejected_too_large.fetch_add(1, std::memory_order_relaxed);
    rejected_too_large_->Increment();
    return false;
  }
  const uint64_t now = clock();
  element->stats().created_seq.store(now, std::memory_order_relaxed);
  element->stats().last_used_seq.store(now, std::memory_order_relaxed);
  const std::string id = element->id();
  MakeRoomFor(size, id);
  model_.Register(std::move(element));
  stats_.insertions.fetch_add(1, std::memory_order_relaxed);
  TrimToBudget(id);
  insertions_->Increment();
  return true;
}

std::shared_ptr<const rel::Relation> CacheManager::EnsureSorted(
    const CacheElementPtr& element, const std::vector<size_t>& columns) {
  if (auto kept = element->sorted(columns)) return kept;
  if (!element->is_materialized()) return nullptr;
  // A sorted copy holds the extension's tuples, so it costs what the
  // extension does.
  if (!MakeRoomFor(element->extension()->ByteSize(), element->id())) {
    return std::make_shared<const rel::Relation>(
        rel::Sort(*element->extension(), columns));
  }
  std::shared_ptr<const rel::Relation> rep = element->EnsureSorted(columns);
  TrimToBudget(element->id());
  return rep;
}

void CacheManager::Touch(CacheElement& element) {
  element.stats().last_used_seq.store(clock(), std::memory_order_relaxed);
  element.stats().hits.fetch_add(1, std::memory_order_relaxed);
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
    intermediates_rejected_->Increment();
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
  if (v.admit) {
    stats_.intermediates_admitted.fetch_add(1, std::memory_order_relaxed);
    intermediates_admitted_->Increment();
  } else {
    stats_.intermediates_rejected.fetch_add(1, std::memory_order_relaxed);
    intermediates_rejected_->Increment();
  }
  return v;
}

void CacheManager::MakeRoomDerived(size_t needed, const std::string& exclude) {
  if (needed == 0) return;
  // LRU among derived elements only; no advisor consultation — the slice
  // budget is a hard bound, and intermediates are reconstructible.
  struct Candidate {
    uint64_t last_used;
    CacheElementPtr element;
  };
  std::vector<Candidate> candidates;
  for (const CacheElementPtr& e : model_.ResidentElements()) {
    if (!e->is_derived() || e->id() == exclude) continue;
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
    const size_t freed = model_.Remove(*c.element);
    if (freed == 0) continue;
    stats_.evictions.fetch_add(1, std::memory_order_relaxed);
    stats_.intermediates_evicted.fetch_add(1, std::memory_order_relaxed);
    evictions_->Increment();
    intermediates_evicted_->Increment();
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
  // sufficient for the whole batch. The candidate set is a copy; a
  // concurrently removed element simply frees no bytes when its turn
  // comes.
  struct Candidate {
    std::tuple<int, int, size_t, uint64_t> rank;
    CacheElementPtr element;
  };
  const std::vector<CacheElementPtr> resident = model_.ResidentElements();
  std::vector<Candidate> candidates;
  candidates.reserve(resident.size());
  for (const CacheElementPtr& e : resident) {
    if (e->id() == exclude) continue;
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
    const size_t freed = model_.Remove(*c.element);
    if (freed == 0) continue;
    stats_.evictions.fetch_add(1, std::memory_order_relaxed);
    evictions_->Increment();
    if (c.element->is_derived()) {
      stats_.intermediates_evicted.fetch_add(1, std::memory_order_relaxed);
      intermediates_evicted_->Increment();
    }
    needed = freed >= needed ? 0 : needed - freed;
  }
}

}  // namespace braid::cms
