#ifndef BRAID_CMS_PLANNER_H_
#define BRAID_CMS_PLANNER_H_

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "caql/caql_query.h"
#include "cms/cache_model.h"
#include "cms/subsumption.h"
#include "common/status.h"
#include "dbms/remote_dbms.h"
#include "obs/trace.h"

namespace braid::cms {

class LoadController;

/// One independent input of a plan: either a cache element (with the
/// subsumption match describing the residual operations) or a remote
/// subquery. Sources are independent and may execute in parallel — the
/// cache-side sources on the workstation while the remote subquery runs on
/// the database server (paper §5: "Support for parallel execution of
/// subqueries on both the CMS and the remote DBMS").
struct PlanSource {
  enum class Kind { kElement, kRemote };
  Kind kind = Kind::kElement;

  // kElement:
  /// Pin on the element taken at plan time. Extensions are immutable and
  /// shared_ptr-held, so a concurrent eviction cannot invalidate a plan
  /// mid-execution: the plan reads its pinned element, the cache just
  /// stops advertising it. Every element source carries one; hand-built
  /// plans hold only remote sources.
  CacheElementPtr element;
  SubsumptionMatch match;

  // kRemote:
  caql::CaqlQuery remote_query;
  std::vector<std::string> remote_vars;  // bindings to ship back

  std::string ToString() const;
};

/// An executable plan: a set of independent sources whose binding
/// relations are joined, filtered by the residual comparisons, extended by
/// the evaluable atoms, anti-joined against the negated literals' sources,
/// and projected onto the query head.
struct Plan {
  caql::CaqlQuery query;
  std::vector<PlanSource> sources;
  /// One source per negated literal, fetching the positive form; applied
  /// as an anti-join during assembly (CAQL's NOT — the remote DML cannot
  /// express it, so it always executes on the CMS).
  std::vector<PlanSource> anti_sources;
  std::vector<logic::Atom> residual_comparisons;
  std::vector<logic::Atom> evaluables;
  bool fully_local = false;

  std::string ToString() const;
};

/// Planner policy knobs (subset of the CMS configuration).
struct PlannerConfig {
  /// When false, cached data is only reused through the facade's
  /// exact-match path; the planner sends everything remote.
  bool enable_subsumption = true;
  /// When true, subsumption candidates come from the semantic catalog
  /// (signature pre-filtering, sublinear in cache size); when false, the
  /// planner scans the predicate index — the linear baseline the catalog
  /// bench and the difftest on/off configuration compare against.
  bool use_catalog = true;
  /// Cap on complete containment mappings examined per element
  /// (CmsConfig::max_subsumption_mappings).
  size_t max_subsumption_mappings = kDefaultMaxSubsumptionMappings;
};

/// The Query Planner/Optimizer (paper §5.3). Step 1 (choosing the query to
/// evaluate, including generalization) happens in the CMS facade with the
/// Advice Manager; this class implements step 2 (identify relevant cache
/// elements via subsumption, using the cache model's predicate index) and
/// step 3 (divide the query into a partially ordered set of subqueries for
/// the Cache Manager and the remote DBMS, choosing among overlapping
/// elements by cost).
class QueryPlanner {
 public:
  QueryPlanner(const CacheModel* model, const dbms::RemoteDbms* remote,
               PlannerConfig config)
      : model_(model), remote_(remote), config_(config) {}

  /// Step 2: all materialized cache elements that can derive a component
  /// of `query`, with their matches. With a tracer, the probe is recorded
  /// as a `subsumption` span (annotated with the match count) under
  /// `parent`.
  std::vector<std::pair<CacheElementPtr, SubsumptionMatch>> RelevantElements(
      const caql::CaqlQuery& query, obs::Tracer* tracer = nullptr,
      obs::SpanId parent = 0) const;

  /// Steps 2+3: builds an executable plan for `query`. The tracer, when
  /// given, records a `plan` span with a nested `subsumption` span.
  Result<Plan> PlanQuery(const caql::CaqlQuery& query,
                         obs::Tracer* tracer = nullptr,
                         obs::SpanId parent = 0) const;

 private:
  /// Subsumption candidate retrieval: the semantic catalog when
  /// `use_catalog` is set, else a linear sweep of the predicate index.
  std::vector<CacheElementPtr> CandidateElements(
      const caql::CaqlQuery& query, CatalogLookupStats* stats) const;

  const CacheModel* model_;
  const dbms::RemoteDbms* remote_;
  PlannerConfig config_;
};

/// Verdict of the speculative-admission rule shared by query
/// generalization (§5.3.1) and prefetching (§4.2.2): whether the
/// generalized form of a view is worth executing ahead of need.
enum class SpeculativeAdmission {
  kAdmit,          // execute it
  kAlreadyCached,  // the general form is already materialized
  kFullyLocal,     // derivable from cached data — no remote work to hide
  kTooLarge,       // estimated result exceeds half the cache budget
  kUnplannable,    // the planner cannot build a plan for it
  kShedOverload,   // the load controller is shedding speculative work
};

const char* SpeculativeAdmissionName(SpeculativeAdmission verdict);

/// The single definition of speculative admission control: the overload
/// check (DESIGN.md §13 — under load, speculation yields its pool
/// capacity to foreground queries before anything else is considered),
/// the already-cached probe, the size cap against `cache_budget_bytes /
/// 2`, and — for prefetching, which only pays off when there is remote
/// latency to hide — the fully-local skip. `estimated_result_bytes` is
/// invoked lazily, after the cheap cache probe. On kAdmit with a non-null
/// `plan_out`, the plan computed for the fully-local check is handed back
/// so callers do not plan the same query twice. `general_key` is
/// `general.Key()`, which callers compile once per advice (DESIGN.md §10
/// "Compiled advice"). `load`, when non-null, is
/// consulted first and short-circuits everything (the verdict must stay
/// cheap exactly when the system is busiest); callers acting on
/// kShedOverload report it via LoadController::CountShed.
SpeculativeAdmission JudgeSpeculative(
    const CacheModel& model, const QueryPlanner& planner,
    const caql::CaqlQuery& general, const caql::QueryKey& general_key,
    const std::function<double()>& estimated_result_bytes,
    size_t cache_budget_bytes, bool skip_if_fully_local,
    Plan* plan_out = nullptr, const LoadController* load = nullptr);

}  // namespace braid::cms

#endif  // BRAID_CMS_PLANNER_H_
