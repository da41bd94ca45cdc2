#ifndef BRAID_CMS_PREFETCHER_H_
#define BRAID_CMS_PREFETCHER_H_

#include <atomic>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "caql/caql_query.h"
#include "cms/planner.h"
#include "cms/remote_interface.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace braid::cms {

/// One admitted prefetch, self-contained so a pool task can execute it
/// without touching any foreground-owned state: the plan is computed at
/// admission time and must contain only remote sources (a plan that reads
/// cache elements runs on the foreground thread instead — the cache is
/// single-threaded by design).
struct PrefetchJob {
  caql::CaqlQuery query;      // the generalized form to execute
  std::string view_id;        // origin view (cache install + advice)
  caql::QueryKey key;         // dedup / join key: query.Key()
  uint64_t session_id = 0;    // owning session (cancel / drain scoping)
  Plan plan;
};

/// What a finished prefetch produced. `modeled_ms` is the simulated cost
/// of the remote fetches plus local assembly — the time hidden behind IE
/// processing when the overlap succeeds.
struct PrefetchOutcome {
  Status status = Status::Ok();
  rel::Relation result;
  double modeled_ms = 0;
};

/// The background prefetch pipeline (paper §4.2.2: fetch predicted data
/// "before [the CMS] actually receives [the query] from the IE"). Each
/// admitted job runs as a task on the execution pool; an in-flight
/// registry keyed by canonical definition lets a foreground query *join*
/// a pending prefetch instead of duplicating its remote fetch, and lets
/// session teardown cancel or drain the pipeline cleanly.
///
/// Threading contract: every public method may be called from any session
/// thread (the registry is internally locked); jobs are tagged with the
/// launching session so CancelSession/DrainSession scope to one session.
/// The job body executes on pool threads and touches only thread-safe
/// components — the RDI and remote DBMS, the span tracer, and the metrics
/// registry. Completed results are handed back through Harvest/Drain and
/// installed into the (now concurrency-safe) cache by the harvesting
/// session. Blocking waits (Join*, Drain*) help-drain the pool's inner
/// queue while they wait, so a session task blocked here cannot deadlock
/// a pool saturated with session tasks.
class Prefetcher {
 public:
  struct Completed {
    PrefetchJob job;
    PrefetchOutcome outcome;
    bool cancelled = false;
  };

  /// `pool` may be null (serial CMS): jobs then execute inline inside
  /// Launch, which degrades prefetching to the synchronous behaviour.
  Prefetcher(exec::ThreadPool* pool, RemoteDbmsInterface* rdi,
             double local_per_tuple_ms, size_t max_inflight,
             obs::Tracer* tracer);
  /// Cancels what has not started and waits out what has.
  ~Prefetcher();

  Prefetcher(const Prefetcher&) = delete;
  Prefetcher& operator=(const Prefetcher&) = delete;

  /// Launches `job` as a pool task. Refuses (returning false) a duplicate
  /// of an in-flight canonical key and launches beyond the in-flight cap;
  /// refused candidates are simply reconsidered after a later query.
  bool Launch(PrefetchJob job);

  bool InFlight(const std::string& canonical_key) const;
  bool InFlightForView(const std::string& view_id) const;
  size_t NumInFlight() const;

  /// Blocks until the in-flight prefetch for `canonical_key` completes;
  /// returns false immediately when none is pending. The result is
  /// delivered through the next Harvest().
  bool Join(const std::string& canonical_key);
  /// Same, keyed by origin view: joins every pending job for the view.
  bool JoinView(const std::string& view_id);

  /// Completed-but-unharvested results; non-blocking.
  std::vector<Completed> Harvest();

  /// Waits for every in-flight job, then returns all completed results.
  std::vector<Completed> Drain();

  /// Waits for `session_id`'s in-flight jobs only, then returns everything
  /// completed so far (any session's — installs are cross-session).
  std::vector<Completed> DrainSession(uint64_t session_id);

  /// Marks every in-flight job cancelled: fetches not yet started are
  /// skipped (their outcome carries a failed status); a fetch already on
  /// the wire completes normally. Non-blocking.
  void CancelAll();

  /// Same, but only jobs launched by `session_id`.
  void CancelSession(uint64_t session_id);

 private:
  struct Entry {
    PrefetchJob job;
    std::atomic<bool> cancelled{false};
  };

  void RunJob(const std::shared_ptr<Entry>& entry);
  PrefetchOutcome Execute(const PrefetchJob& job,
                          const std::atomic<bool>& cancelled);

  /// True while some in-flight job originates from `view_id`.
  bool PendingForViewLocked(const std::string& view_id) const
      BRAID_REQUIRES(mu_);

  /// True while some in-flight job belongs to `session_id`.
  bool PendingForSessionLocked(uint64_t session_id) const BRAID_REQUIRES(mu_);

  /// One step of a blocking wait: runs a queued inner pool task if there
  /// is one, otherwise sleeps briefly on the registry condvar. Callers
  /// loop on their predicate around this.
  void WaitStep();

  /// Joins the parked pool futures of finished jobs, so no task lambda is
  /// still inside its epilogue when the registry is torn down.
  void SettleFutures();

  exec::ThreadPool* pool_;
  RemoteDbmsInterface* rdi_;
  const double local_per_tuple_ms_;
  const size_t max_inflight_;
  obs::Tracer* tracer_;

  // The registry guards the *maps*; an Entry's job is immutable from
  // launch until its RunJob completion moves it out under the lock, and
  // its `cancelled` flag is atomic, so the executing pool thread reads the
  // job without taking mu_.
  mutable Mutex mu_;
  CondVar cv_;
  std::map<std::string, std::shared_ptr<Entry>> inflight_
      BRAID_GUARDED_BY(mu_);
  std::vector<Completed> completed_ BRAID_GUARDED_BY(mu_);
  /// Futures of submitted pool tasks; ready ones are pruned on Launch and
  /// all are joined by Drain (a future is ready only once its task lambda
  /// has fully returned).
  std::vector<std::future<void>> futures_ BRAID_GUARDED_BY(mu_);

  // Registry-owned instrument handles (process lifetime).
  obs::Counter* issued_;
  obs::Counter* joined_;
  obs::Histogram* join_wait_ms_;
};

}  // namespace braid::cms

#endif  // BRAID_CMS_PREFETCHER_H_
