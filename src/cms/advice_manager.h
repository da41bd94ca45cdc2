#ifndef BRAID_CMS_ADVICE_MANAGER_H_
#define BRAID_CMS_ADVICE_MANAGER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "advice/advice.h"
#include "advice/path_tracker.h"
#include "caql/caql_query.h"
#include "cms/cache_element.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace braid::cms {

/// The Advice Manager (paper Fig. 5): holds the advice received from the IE
/// at session start, tracks the session's position in the path expression,
/// and answers the planning questions of §4.2 — prefetching, result
/// caching, replacement priority, attribute indexing, lazy-vs-eager, and
/// query generalization. All answers degrade gracefully when a piece of
/// advice is absent (the CMS functions without advice; paper §3).
class AdviceManager {
 public:
  AdviceManager() = default;

  /// Installs the advice for a new session, resetting the tracker. The
  /// advice is shared, not copied: only the tracker's position is built.
  void BeginSession(advice::CompiledAdvicePtr advice);

  bool has_advice() const { return has_advice_; }
  const advice::AdviceSet& advice() const { return advice_->advice(); }

  /// Records the arrival of an IE query against `view_id`, advancing the
  /// path tracker.
  void OnQuery(const std::string& view_id);

  /// View ids that may be requested next (prefetch candidates), given the
  /// current tracker position. Empty without a path expression.
  std::set<std::string> PrefetchCandidates() const;

  /// Whether the result of a query against `view_id` is worth caching:
  /// true unless the path expression proves the view cannot recur ("It may
  /// also choose not to cache the relation if there are no other predicted
  /// requests for it", §4.2.1).
  bool ShouldCacheResult(const std::string& view_id) const;

  /// Head variables of the view annotated as consumers — the "prime
  /// candidates for indexing" (§4.2.1).
  std::vector<std::string> IndexHints(const std::string& view_id) const;

  /// True when the §5.3.3 guideline selects lazy evaluation: every
  /// annotated head variable is a producer.
  bool LazyHint(const std::string& view_id) const;

  /// Minimum predicted distance (in queries) until `view_id` may be
  /// requested again; nullopt when unknown or impossible. Drives
  /// replacement decisions.
  std::optional<size_t> PredictedDistance(const std::string& view_id) const;

  /// The simplest form of advice (§4.2): is `predicate` in the session's
  /// relevant-base-relation list? "Even this simplest form of advice will
  /// provide the CMS with significant knowledge about an AI query" — the
  /// cache manager uses it to prefer evicting session-irrelevant elements.
  bool SessionRelevant(const std::string& predicate) const;

  /// Whether a constant-bound instance of `view_id` should be generalized
  /// before remote execution (§5.3.1): the view may recur (so the general
  /// form will be reused with other constants), or another view spec
  /// contains a more general occurrence of one of its atoms.
  bool ShouldGeneralize(const std::string& view_id,
                        const caql::CaqlQuery& instance) const;

  const advice::CompiledView* FindView(const std::string& id) const {
    return advice_->FindView(id);
  }

  size_t queries_seen() const { return queries_seen_; }
  size_t tracker_mispredictions() const;

  /// The path tracker, or null without a path expression.
  const advice::PathTracker* tracker() const {
    return tracker_.has_value() ? &*tracker_ : nullptr;
  }

 private:
  advice::CompiledAdvicePtr advice_ = advice::CompiledAdvice::Empty();
  bool has_advice_ = false;
  std::optional<advice::PathTracker> tracker_;
  size_t queries_seen_ = 0;
};

/// The CMS-wide replacement advice (paper §5.4) kept as counts, so the
/// cache's advisor answers with one probe instead of asking every open
/// session. Lookup(e) equals the minimum over contributing sessions s of
/// CmsSession::AdvisedDistance_s(e, horizon), which is
///  - s's tracker distance d_s(v) to the element's origin view v, if any;
///  - else max(horizon, 1) - 1, if a predicate of e is among s's relevant
///    base relations;
///  - else nothing.
/// The index keeps, per view v, how many sessions sit at each distance;
/// per predicate p, how many sessions list p (`relevant[p]`); and per
/// (v, p), how many of those also have a distance for v. The fallback
/// applies exactly when some predicate p of e has relevant[p] greater than
/// its (v, p) count: a session lists p but predicts nothing for v.
///
/// Each session owns one Contribution, which only the index mutates, under
/// the session's own advice lock. View and predicate names are interned
/// append-only: a name keeps its id after the last session mentioning it
/// closes, with every count for it at zero, so the tables grow with the
/// advice vocabulary, not with the number of sessions.
///
/// Lock order: `mu_` is a leaf, taken inside a session's `advice_mu_`.
class ReplacementAdviceIndex {
 public:
  /// One session's share of the counts.
  struct Contribution {
    std::vector<uint32_t> predicates;  // interned, deduplicated
    std::vector<uint32_t> views;       // interned, one per tracker symbol
    std::vector<size_t> distances;     // published, one per tracker symbol
  };

  explicit ReplacementAdviceIndex(size_t horizon);

  ReplacementAdviceIndex(const ReplacementAdviceIndex&) = delete;
  ReplacementAdviceIndex& operator=(const ReplacementAdviceIndex&) = delete;

  /// Minimum advised distance of `element` over every contribution, or
  /// nullopt when no session advises it. Safe from any thread.
  std::optional<size_t> Lookup(const CacheElement& element) const
      BRAID_EXCLUDES(mu_);

  /// Replaces `c` with the contribution of `base_relations` plus the
  /// current distances of `tracker` (may be null: no path expression).
  /// O(symbols x base relations).
  void Replace(Contribution* c,
               const std::vector<std::string>& base_relations,
               const advice::PathTracker* tracker) BRAID_EXCLUDES(mu_);

  /// Publishes `c`'s tracker distances after an advance; takes the lock
  /// and touches the tables only for symbols whose distance changed. A
  /// withdrawn contribution stays withdrawn: this is then a no-op.
  void Update(Contribution* c, const std::vector<size_t>& distances)
      BRAID_EXCLUDES(mu_);

  /// Removes `c` from the counts and clears it (a closing session).
  void Withdraw(Contribution* c) BRAID_EXCLUDES(mu_);

 private:
  static constexpr size_t kNone = advice::PathTracker::kUnreachable;

  /// Append-only name -> dense id table.
  struct Names {
    std::unordered_map<std::string, uint32_t> ids;

    uint32_t Intern(const std::string& name);
    /// Id of `name`, or nullptr when no contribution ever mentioned it.
    const uint32_t* Find(const std::string& name) const;
  };

  struct ViewCounts {
    std::vector<uint32_t> at_distance;  // sessions per predicted distance
    size_t min = kNone;                 // lowest populated distance
    std::vector<uint32_t> predicted_relevant;  // per predicate id
  };

  /// Moves one session's distance for view `v` from `from` to `to`
  /// (either may be kNone) and, when the session starts or stops
  /// predicting v, its `predicates` in and out of predicted_relevant.
  void Move(uint32_t v, size_t from, size_t to,
            const std::vector<uint32_t>& predicates) BRAID_REQUIRES(mu_);
  /// Adds (`sign` = +1) or removes (-1) all of `c`'s counts.
  void Apply(const Contribution& c, int sign) BRAID_REQUIRES(mu_);

  const size_t fallback_;  // max(horizon, 1) - 1, immutable

  mutable Mutex mu_;
  Names views_ BRAID_GUARDED_BY(mu_);
  Names predicates_ BRAID_GUARDED_BY(mu_);
  // One entry per interned name.
  std::vector<ViewCounts> view_counts_ BRAID_GUARDED_BY(mu_);  // by view id
  std::vector<uint32_t> relevant_ BRAID_GUARDED_BY(mu_);  // by predicate id
};

}  // namespace braid::cms

#endif  // BRAID_CMS_ADVICE_MANAGER_H_
