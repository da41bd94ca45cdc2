#ifndef BRAID_CMS_CMS_H_
#define BRAID_CMS_CMS_H_

#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "advice/advice.h"
#include "cms/advice_manager.h"
#include "cms/cache_manager.h"
#include "cms/execution_monitor.h"
#include "cms/load_controller.h"
#include "cms/planner.h"
#include "cms/prefetcher.h"
#include "cms/query_processor.h"
#include "cms/remote_interface.h"
#include "cms/session.h"
#include "cms/session_scheduler.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "dbms/remote_dbms.h"
#include "exec/exec_context.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stream/stream_ops.h"

namespace braid::cms {

/// Policy switchboard for the CMS. Each flag corresponds to one of the
/// paper's techniques, so experiments can ablate them independently; the
/// baseline coupling modes of §1 are specific settings (see
/// `src/baselines`).
struct CmsConfig {
  size_t cache_budget_bytes = 8ull << 20;
  bool enable_caching = true;        // off = loose coupling
  bool enable_subsumption = true;    // off = exact-match reuse only
  /// Subsumption candidates via the semantic catalog (DESIGN.md §11); off
  /// = linear predicate-index scan (the pre-catalog baseline, kept for the
  /// scaling bench and the differential on/off configuration).
  bool enable_catalog = true;
  /// Cap on complete containment mappings the subsumption search collects
  /// per element before truncating (surfaced on the `subsumption` span and
  /// the `subsumption.truncations` counter when hit).
  size_t max_subsumption_mappings = kDefaultMaxSubsumptionMappings;
  bool single_relation_only = false; // CERI86-style: cache base relations only
  bool enable_advice = true;
  bool enable_prefetch = true;
  /// Prefetches run as background pool tasks, overlapping the IE's think
  /// time; off = the pre-pipeline behaviour of executing them inline on
  /// the session's thread. Only all-remote prefetch plans go async, and a
  /// null pool degrades to inline execution.
  bool prefetch_async = true;
  /// Background prefetches in flight at once; further admitted candidates
  /// are reconsidered after a later query.
  size_t prefetch_max_inflight = 4;
  bool enable_generalization = true;
  bool enable_indexing = true;
  bool enable_lazy = true;
  bool enable_parallel = true;
  size_t replacement_horizon = 4;    // advice-protection window (queries)
  double local_per_tuple_ms = 0.002; // workstation per-tuple cost
  /// Intermediate-result caching (DESIGN.md §12): offer the eager plan's
  /// DAG stages (per-source binding relations, join fragments, the
  /// residual-filtered relation) to a cost-based admission gate, so later
  /// queries sharing a subplan reuse the stage through subsumption instead
  /// of recomputing it.
  bool enable_intermediates = true;
  /// Fraction of the cache budget derived intermediates may occupy; the
  /// slice keeps intermediates from starving advised views (they are also
  /// the first eviction victims globally).
  double intermediate_budget_fraction = 0.25;

  /// Worker threads of the execution engine's pool (the calling thread
  /// always participates in morsel loops, so total parallelism is
  /// num_threads + 1). 0 = one less than the hardware concurrency, at
  /// least 1. Only consulted when enable_parallel is set; with parallel
  /// execution off the CMS runs poolless and fully serial. Concurrent
  /// sessions ride the same pool: size it at least to the number of
  /// sessions expected to run at once (their queries mostly block on the
  /// modeled remote link, so workers >> cores is normal and cheap).
  size_t num_threads = 0;
  /// Operator inputs below this many tuples skip the morsel machinery.
  size_t parallel_threshold = 4096;

  /// Overload policy (DESIGN.md §13). With load control on, QueryAsync
  /// refuses new queries with kOverloaded once `admission_queue_bound`
  /// queries are waiting on the scheduler, and speculative work
  /// (prefetch, generalization, intermediate admission) is shed while
  /// more than `shed_queue_depth` queries wait or — when
  /// `foreground_slo_ms` > 0 — while the foreground latency average
  /// exceeds that SLO. The defaults are far above anything a closed-loop
  /// workload produces; only open-loop traffic past the service rate
  /// reaches them.
  bool enable_load_control = true;
  size_t admission_queue_bound = 4096;
  size_t shed_queue_depth = 64;
  double foreground_slo_ms = 0;
};

/// How a query was answered.
enum class CacheOutcome {
  kExact,       // identical cached result
  kFullLocal,   // derived entirely from cached data via subsumption
  kLazy,        // generator over cached data
  kPartial,     // cached data plus a remote subquery
  kRemote,      // entirely from the remote DBMS
};

const char* CacheOutcomeName(CacheOutcome outcome);

/// A query answer: materialized relation and/or a stream over it. For lazy
/// answers `relation` is null and the stream is a generator that computes
/// tuples on demand from cached data.
struct CmsAnswer {
  std::shared_ptr<const rel::Relation> relation;
  stream::TupleStreamPtr stream;
  bool lazy = false;
  CacheOutcome outcome = CacheOutcome::kRemote;
  double response_ms = 0;
};

/// The Cache Management System (paper §5): a main-memory relational store
/// between the inference engine and the remote DBMS. Accepts advice and
/// CAQL queries, reuses cached views via subsumption, splits residual work
/// between the local Query Processor and the remote DBMS, and streams
/// results back to the IE.
///
/// The CMS is usable without any advice and by clients other than the IE
/// (paper §3) — every advice-driven behaviour degrades to a default.
///
/// ## Sessions and concurrency
///
/// One CMS serves N independent IE sessions against one shared cache.
/// OpenSession creates a `CmsSession` (its own advice, tracker, metrics);
/// queries run either synchronously — `Query(session, q)`, one caller
/// thread per session — or through the session scheduler (`QueryAsync`),
/// which multiplexes sessions over the execution pool with a fair
/// per-session FIFO and serializes each session's queries. The shared
/// components (striped cache, planner, monitor, prefetcher, remote link)
/// are all concurrency-safe; per-session state needs no lock because at
/// most one query of a session runs at a time. Do not mix QueryAsync with
/// concurrent synchronous calls on the *same* session.
///
/// The no-argument Query/metrics/BeginSession entry points operate on a
/// built-in default session, preserving the single-session API.
class Cms {
 public:
  Cms(dbms::RemoteDbms* remote, CmsConfig config);

  /// Opens an independent session with its own advice and metrics. The
  /// returned pointer stays valid until CloseSession (Cms owns it).
  CmsSession* OpenSession(advice::AdviceSet advice = advice::AdviceSet{});

  /// Closes `session`: cancels its in-flight prefetches, waits them out,
  /// installs salvageable completions, and destroys the session. The
  /// caller must have no query of the session in flight. Closing the
  /// default session or a null/unknown pointer is a no-op.
  void CloseSession(CmsSession* session);

  /// (Re)starts the default session: installs advice (ignored when advice
  /// is disabled) and resets the tracker; the default session's in-flight
  /// prefetches are cancelled and waited out first (their predictions
  /// died with the old advice).
  void BeginSession(advice::CompiledAdvicePtr advice);

  /// BeginSession with `advice` compiled first.
  void BeginSession(advice::AdviceSet advice);

  /// Answers one IE query on `session`. Synchronous; a session's queries
  /// must not overlap (use one caller thread per session, or QueryAsync).
  Result<CmsAnswer> Query(CmsSession& session, const caql::CaqlQuery& query);

  /// Answers one IE query on the default session.
  Result<CmsAnswer> Query(const caql::CaqlQuery& query);

  /// Queues `query` on the session scheduler. Queries of one session run
  /// FIFO, one at a time; distinct sessions run concurrently on the pool
  /// (round-robin when it is oversubscribed). Poolless CMS degrades to
  /// synchronous execution inside this call.
  ///
  /// Admission control: when the scheduler already holds
  /// `admission_queue_bound` waiting queries, the future resolves
  /// immediately to kOverloaded — the query is never queued, never
  /// executed, and safe to retry after backing off.
  std::future<Result<CmsAnswer>> QueryAsync(CmsSession& session,
                                            const caql::CaqlQuery& query);

  /// Completion hook for one scheduled query, invoked on the executing
  /// thread right before the future resolves (for a refused query: on the
  /// caller's thread, inside QueryAsync). Lets open-loop load harnesses
  /// timestamp completions without a thread parked per in-flight future.
  /// The callback must be cheap and must not call back into this CMS.
  using QueryCallback = std::function<void(const Result<CmsAnswer>&)>;

  /// QueryAsync with a completion callback (`done` may be null).
  std::future<Result<CmsAnswer>> QueryAsync(CmsSession& session,
                                            const caql::CaqlQuery& query,
                                            QueryCallback done);

  /// Waits until every scheduled query has completed.
  void DrainSessions();

  /// Checks the replacement advisor's index against its definition: for
  /// every resident element, the index's answer must equal the minimum
  /// over open sessions of CmsSession::AdvisedDistance. Returns "" when
  /// they agree, else names the first element that differs. Call between
  /// queries: a concurrent advance makes the two sides race.
  std::string CheckReplacementAdvice() const;

  /// CMS-only aggregation service (the remote DML has no aggregates):
  /// evaluates `query` on the default session, then groups by the named
  /// head variables and applies the aggregate to `agg_var`.
  Result<rel::Relation> Aggregate(const caql::CaqlQuery& query,
                                  const std::vector<std::string>& group_by,
                                  rel::AggFn fn, const std::string& agg_var);

  /// Answers `query` ordered by the named head variables. When the answer
  /// is a cached extension, the sorted copy is kept as a co-existing
  /// alternative representation of the element (paper §5.2) and reused by
  /// later sorted requests; "the case where alternative sortings are
  /// required" then costs one sort total, not one per use.
  Result<rel::Relation> QuerySorted(const caql::CaqlQuery& query,
                                    const std::vector<std::string>& order_by);

  /// CAQL's OR: answers the union of several conjunctive branches (the
  /// disjunctive queries a compiling IE's DAPs contain, §2). Every branch
  /// must have the same head arity; each branch benefits from the cache
  /// independently. With `distinct`, duplicates across branches collapse
  /// (SETOF over the union).
  Result<rel::Relation> QueryUnion(
      const std::vector<caql::CaqlQuery>& branches, bool distinct = false);

  /// CMS-only fixed-point service: the transitive closure of the base
  /// relation `edge_predicate` (arity 2). The closure is cached under a
  /// dedicated predicate name and reused on later calls.
  Result<rel::Relation> TransitiveClosure(const std::string& edge_predicate);

  /// Schema (and statistics) of the remote database — the path by which
  /// the IE reads schema information "via the CMS" (paper §3).
  const dbms::Database& RemoteSchema() const { return remote_->database(); }

  CacheManager& cache() { return cache_; }
  const CacheManager& cache() const { return cache_; }
  /// Default session's advice manager (tests; quiescent use only).
  AdviceManager& advice_manager() {
    return default_session_->advice_manager_unlocked();
  }
  const CmsConfig& config() const { return config_; }

  /// Default session's metrics (quiescent use, like any session metrics).
  CmsMetrics& metrics() { return default_session_->metrics(); }
  void ResetMetrics() { default_session_->ResetMetrics(); }

  /// Waits for every in-flight background prefetch and installs the
  /// completed results into the cache (credited to the default session).
  /// Benches and tests call this before reading prefetch metrics or
  /// asserting on cache contents; query processing itself never needs it
  /// (results are harvested at the next Query / joined on demand).
  void DrainPrefetches();

  /// Background prefetches currently executing or queued on the pool.
  size_t prefetches_in_flight() const {
    return prefetcher_ != nullptr ? prefetcher_->NumInFlight() : 0;
  }

  /// Scheduled queries not yet running: intra-session backlog on the
  /// scheduler plus dispatched session tasks waiting in the pool queue —
  /// the load controller's primary signal.
  size_t QueuedQueries() const {
    return scheduler_->NumQueued() +
           (pool_ != nullptr ? pool_->NumQueuedSession() : 0);
  }

  /// The overload policy engine (tests and load harnesses read its
  /// counters and latency average; always non-null).
  LoadController& load_controller() { return *load_controller_; }
  const LoadController& load_controller() const { return *load_controller_; }

  /// Per-query span recorder: every Query() records a `query` root span
  /// with `advice`, `plan` (nesting `subsumption`), `prep`, `fetch`, and
  /// `assembly` children, carrying both measured wall time and modeled
  /// simulated cost. Spans accumulate across queries (all sessions; the
  /// tracer is internally locked); callers inspect or export
  /// (`tracer().WriteJson(...)`, `tracer().PrettyTree()`) and may
  /// `tracer().Clear()` between queries.
  obs::Tracer& tracer() { return tracer_; }
  const obs::Tracer& tracer() const { return tracer_; }

  /// Execution policy for operators run on behalf of this CMS (null pool
  /// when parallel execution is disabled).
  exec::ExecContext exec_context() const {
    return exec::ExecContext{pool_.get(), config_.parallel_threshold};
  }

 private:
  struct EagerExec {
    rel::Relation result;
    double response_ms = 0;
    bool any_element_source = false;
    bool fully_local = false;
  };

  /// Plans and eagerly executes `query` (no caching of the result here).
  /// Spans are recorded into `tracer_` under `parent` when nonzero.
  Result<EagerExec> ExecuteEager(CmsSession& session,
                                 const caql::CaqlQuery& query,
                                 obs::SpanId parent = 0);

  /// Caches `result` as a materialized element defined by `definition`
  /// (whose key is `key`), subject to the caching policy; builds advised
  /// indexes using `session`'s consumer annotations. The element shares
  /// `result` (callers may hand the same relation to the IE). Returns the
  /// element id or "" when not cached.
  std::string CacheResult(CmsSession& session,
                          const caql::CaqlQuery& definition,
                          const caql::QueryKey& key,
                          std::shared_ptr<const rel::Relation> result,
                          const std::string& origin_view);

  /// Generalization decision + execution (step 1 of §5.3): if advice says
  /// the constants of `query` will vary across a recurring view, execute
  /// the all-variable generalization and cache it. Charges the cost to the
  /// current response time. Returns true if a generalization was cached.
  Result<bool> MaybeGeneralize(CmsSession& session,
                               const caql::CaqlQuery& query,
                               const std::string& view_id,
                               double* response_ms, obs::SpanId parent = 0);

  /// Prefetch: execute predicted-next views (in generalized form) whose
  /// data is not yet locally derivable, ranked by the path tracker's
  /// predicted distance. With `prefetch_async`, admitted all-remote
  /// candidates launch as background pool tasks tagged with the session;
  /// costs accrue to prefetch_ms, not to any query's response. Under
  /// overload the whole pass is shed (counted once per pass). `parent`
  /// parents the shed span when nonzero.
  void MaybePrefetch(CmsSession& session, const std::string& current_view,
                     obs::SpanId parent = 0);

  /// Counts one acted-on shed decision and records a `shed` span under
  /// `parent` carrying the kind and the queue depth that triggered it.
  void RecordShed(ShedKind kind, obs::SpanId parent);

  /// Answers the query whose key is `key` from an exact materialized
  /// cache element if present; fills `answer` and returns true on a hit
  /// (shared by the fast path and the post-join re-probe).
  bool TryAnswerExact(CmsSession& session, const caql::QueryKey& key,
                      obs::SpanId parent, CmsAnswer* answer);

  /// Installs harvested background-prefetch results into the (striped,
  /// concurrency-safe) cache and settles their metrics. Completions may
  /// belong to any session; they are credited to the harvesting one.
  void InstallCompletedPrefetches(CmsSession& session,
                                  std::vector<Prefetcher::Completed> done);

  /// Estimated bytes of the result of `query` if fetched remotely.
  double EstimateResultBytes(const caql::CaqlQuery& query) const;

  /// True if the caching policy admits an element with this definition.
  bool CachingPolicyAdmits(const caql::CaqlQuery& definition) const;

  dbms::RemoteDbms* remote_;
  CmsConfig config_;
  CacheManager cache_;
  RemoteDbmsInterface rdi_;
  QueryPlanner planner_;
  std::unique_ptr<exec::ThreadPool> pool_;  // before monitor_: it borrows it
  ExecutionMonitor monitor_;
  obs::Tracer tracer_;
  // Hot-path instruments, resolved once.
  obs::Counter* prefetch_memo_hits_;
  obs::Counter* prefetch_rejected_;
  obs::Counter* prefetch_cancelled_;
  obs::Counter* prefetch_errors_;
  obs::Counter* prefetch_wasted_;
  obs::Counter* intermediate_hits_;

  /// Replacement advice of every open session, kept current by the
  /// sessions themselves; the cache's advisor is one probe of it. Declared
  /// before the sessions, which publish into it until they are destroyed.
  ReplacementAdviceIndex advice_index_;

  /// Session registry; the default session (index 0, id 0) lives for the
  /// whole CMS. Locked for Open/CloseSession and the advice check only:
  /// the replacement advisor reads `advice_index_` instead.
  ///
  /// Lock order: `sessions_mu_` → per-session `advice_mu_` → the index's
  /// leaf mutex. Never acquired with any cache stripe lock held, and
  /// nothing below it calls back into the cache.
  mutable Mutex sessions_mu_;
  std::vector<std::unique_ptr<CmsSession>> sessions_
      BRAID_GUARDED_BY(sessions_mu_);
  uint64_t next_session_id_ BRAID_GUARDED_BY(sessions_mu_) = 1;
  CmsSession* default_session_;  // == sessions_[0].get(), set once

  /// Declared before prefetcher_/scheduler_ (so destroyed after them):
  /// queries drained during scheduler teardown still consult it. Its
  /// queue-depth provider reads scheduler_, which is only dereferenced at
  /// query time — never during construction or after scheduler teardown
  /// completes.
  std::unique_ptr<LoadController> load_controller_;

  /// Declared after the components their tasks use: destroyed first, so
  /// teardown drains scheduled queries, then cancels and waits out
  /// background prefetches, while pool, RDI and tracer are still alive.
  std::unique_ptr<Prefetcher> prefetcher_;
  std::unique_ptr<SessionScheduler> scheduler_;
};

}  // namespace braid::cms

#endif  // BRAID_CMS_CMS_H_
