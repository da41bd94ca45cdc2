#ifndef BRAID_CMS_SESSION_H_
#define BRAID_CMS_SESSION_H_

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "advice/advice.h"
#include "cms/advice_manager.h"
#include "cms/cache_element.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace braid::cms {

/// Counters accumulated across a session.
struct CmsMetrics {
  size_t ie_queries = 0;
  size_t exact_hits = 0;
  size_t full_local_hits = 0;
  size_t lazy_answers = 0;
  size_t partial_hits = 0;
  size_t remote_only = 0;
  size_t prefetches = 0;
  size_t prefetch_joins = 0;  // foreground queries that joined an in-flight
                              // prefetch instead of re-fetching
  size_t generalizations = 0;
  double response_ms = 0;   // simulated time the IE waited
  double local_ms = 0;      // workstation compute
  double prefetch_ms = 0;   // remote time hidden behind the session
  std::string ToString() const;
};

/// Per-session CMS state: one IE connection's advice, path-tracker
/// position, metrics, and prefetch-admission memo. The shared components
/// (cache, planner, execution monitor, prefetcher) live in `Cms`; a
/// session is what makes N concurrent IE connections independent.
///
/// Threading contract, two tiers:
///  - The *query-serial* members (metrics, prefetch-rejects memo) are
///    touched only by the session's current query — the session scheduler
///    runs at most one query per session at a time, and a caller driving
///    the session synchronously must do so from one thread. Owners read
///    them at quiescence (between queries).
///  - The *advice* members are locked (`advice_mu_`): they are read by
///    the session's own queries and by the CMS's consistency check, and
///    InstallAdvice, OnQuery and WithdrawAdvice publish the session's
///    replacement advice into the CMS-wide index from under it.
///
/// Lock order: `advice_mu_` → the replacement-advice index's leaf mutex;
/// nothing else is acquired under it.
class CmsSession {
 public:
  /// A fresh session holds no advice (every advice-driven behaviour
  /// degrades to its default, paper §3) until InstallAdvice. The session
  /// keeps its replacement advice published in `index`, which must outlive
  /// it.
  CmsSession(uint64_t id, ReplacementAdviceIndex& index)
      : id_(id), index_(index) {}
  ~CmsSession() { WithdrawAdvice(); }

  CmsSession(const CmsSession&) = delete;
  CmsSession& operator=(const CmsSession&) = delete;

  uint64_t id() const { return id_; }

  // --- query-serial state ---

  CmsMetrics& metrics() { return metrics_; }
  const CmsMetrics& metrics() const { return metrics_; }
  void ResetMetrics() { metrics_ = CmsMetrics{}; }

  /// Memoized prefetch-admission rejections (too-large / fully-local /
  /// unplannable), keyed by canonical key and valid for one cache-content
  /// version; capacity skips are transient and are not memoized. A verdict
  /// depends on the query and the cache, not on the advice, so installing
  /// new advice keeps the memo.
  std::unordered_set<caql::QueryKey, caql::QueryKeyHash>& prefetch_rejects() {
    return prefetch_rejects_;
  }
  uint64_t& prefetch_rejects_version() { return prefetch_rejects_version_; }

  // --- advice (internally locked) ---

  /// Replaces the session's advice (shared, not copied), resetting the
  /// tracker. Quiescent-only: view pointers handed out by FindView may
  /// outlive their advice only while a query holds them, so no query of
  /// this session may be in flight.
  void InstallAdvice(advice::CompiledAdvicePtr advice);

  /// Removes the session's replacement advice from the index (idempotent;
  /// the destructor calls it too). For a closing session: from here on it
  /// protects no cache element. The session's own answers, AdvisedDistance
  /// included, are unchanged, and later OnQuery calls still advance its
  /// tracker but publish nothing until the next InstallAdvice.
  void WithdrawAdvice();

  void OnQuery(const std::string& view_id);
  std::set<std::string> PrefetchCandidates() const;
  std::vector<std::string> IndexHints(const std::string& view_id) const;
  bool LazyHint(const std::string& view_id) const;
  std::optional<size_t> PredictedDistance(const std::string& view_id) const;
  bool ShouldGeneralize(const std::string& view_id,
                        const caql::CaqlQuery& instance) const;

  /// Compiled views are immutable between InstallAdvice calls, so the
  /// pointer stays valid for the duration of the query that looked it up.
  const advice::CompiledView* FindView(const std::string& id) const;

  /// This session's replacement advice for `element`: the tracker's
  /// predicted distance for the element's origin view, else — when the
  /// element reads a session-relevant base relation — protection at the
  /// horizon boundary. The reference definition the replacement-advice
  /// index reproduces (Cms::CheckReplacementAdvice compares the two).
  std::optional<size_t> AdvisedDistance(const CacheElement& element,
                                        size_t horizon) const;

  /// Quiescent-only escape hatch for tests inspecting tracker internals.
  AdviceManager& advice_manager_unlocked() { return advice_; }

 private:
  const uint64_t id_;
  ReplacementAdviceIndex& index_;

  mutable Mutex advice_mu_;
  AdviceManager advice_ BRAID_GUARDED_BY(advice_mu_);
  ReplacementAdviceIndex::Contribution published_
      BRAID_GUARDED_BY(advice_mu_);

  // Query-serial (see class comment).
  CmsMetrics metrics_;
  std::unordered_set<caql::QueryKey, caql::QueryKeyHash> prefetch_rejects_;
  uint64_t prefetch_rejects_version_ = 0;
};

}  // namespace braid::cms

#endif  // BRAID_CMS_SESSION_H_
