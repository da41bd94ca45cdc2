#ifndef BRAID_TESTING_DIFF_RUNNER_H_
#define BRAID_TESTING_DIFF_RUNNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "testing/fault_remote.h"
#include "testing/workload_gen.h"

namespace braid::testing {

/// One differential run's configuration: a seed (which fixes the whole
/// workload) plus the system settings under test. The oracle side is
/// always the same — ReferenceEval straight over the generated base
/// tables, no cache, no CMS.
struct DiffOptions {
  uint64_t seed = 0;
  size_t num_queries = 24;

  /// Concurrent IE sessions sharing the one CMS. 1 = the classic serial
  /// run. With N > 1, each session replays the same seeded stream rotated
  /// by its index through the session scheduler, every answer is
  /// bag-checked against the oracle, and the quiescence-dependent
  /// invariants (exact-hit remote counting, warm recheck) are skipped.
  size_t sessions = 1;

  /// CMS settings of the optimized side.
  size_t num_threads = 1;       // pool workers; 1 keeps the run serial-ish
  bool parallel = true;
  /// Deliberately tiny so the morsel machinery engages on the small
  /// generated relations instead of falling back to serial everywhere;
  /// one matrix cell runs at CmsConfig's default instead, where the
  /// serial kernels answer.
  size_t parallel_threshold = 2;
  bool prefetch = true;
  bool prefetch_async = true;
  bool caching = true;
  /// Subsumption candidates via the semantic catalog (on) or the linear
  /// predicate-index scan (off). Both must produce identical answers; the
  /// harness additionally checks the catalog/stripe consistency invariant
  /// after every query (serial pass) and every wave (session mode) while
  /// the catalog is on.
  bool catalog = true;
  /// Intermediate-result caching (DESIGN.md §12): admit assembly-stage
  /// results as derived cache elements. Both settings must produce
  /// bag-identical answers — the matrix runs one cell with this off so
  /// on-vs-off equality (through the shared oracle) stays pinned, and the
  /// catalog consistency check above covers derived elements too.
  bool intermediates = true;
  /// Cache budget of the system side. The default holds every generated
  /// workload without evicting; `braid_difftest --budget 2048` evicts on
  /// every seed, which is how the CI cells check answers and invariants
  /// across evictions.
  size_t cache_budget_bytes = 256ull << 10;

  /// Open-loop overload cell (DESIGN.md §13): arrivals follow a seeded
  /// Poisson schedule at `open_loop_rate` qps regardless of completions,
  /// under a deliberately tight load-control policy (shed_queue_depth 0 so
  /// speculation sheds whenever anything queues, admission bound 4 so the
  /// burst draws real kOverloaded refusals). Every completion is
  /// bag-checked against the oracle; every refusal is retried
  /// synchronously once the system is quiescent and must then agree with
  /// the oracle — shedding may change latency and cost, never answers.
  /// Uses `sessions` concurrent sessions (minimum 2).
  bool open_loop = false;
  double open_loop_rate = 500;

  /// Fault injection on the remote link.
  bool faults = false;
  FaultPlan fault_plan;

  /// After the first pass, replay the whole stream against the warm cache
  /// and re-check every answer (catches corruption that only later reuse
  /// exposes). Skipped when faults are on.
  bool recheck = true;

  /// Test hook: after the query at this stream index completes, append a
  /// poison tuple to every materialized cache extension. A correct harness
  /// MUST subsequently report a bag mismatch — this is how the harness
  /// itself is tested. -1 = never.
  int corrupt_after_query = -1;

  /// When non-empty, only these stream indices run (minimization).
  std::vector<size_t> keep;
};

/// One detected discrepancy.
struct DiffFailure {
  size_t query_index = 0;
  std::string query;    // CAQL text
  std::string kind;     // "bag-mismatch" | "status" | "invariant" | "oracle"
  std::string outcome;  // CacheOutcome name, when applicable
  std::string detail;

  std::string ToString() const;
};

/// Outcome of one differential run.
struct DiffReport {
  bool ok = true;
  uint64_t seed = 0;
  std::vector<DiffFailure> failures;

  size_t queries_run = 0;
  size_t queries_faulted = 0;  // clean injected-fault propagations
  size_t overload_rejections = 0;  // clean kOverloaded refusals (open loop)
  size_t exact_hits = 0;
  size_t remote_queries = 0;
  size_t evictions = 0;

  std::string Summary() const;
};

/// Runs the CAQL stream for `opts.seed` through the full CMS and through
/// the reference oracle, checking bag-equality per query plus the
/// metamorphic invariants (subsumption-derived answers contained in the
/// oracle's bag; exact cache hits answer without contacting the remote;
/// injected faults surface as clean Status propagation, never a wrong
/// answer).
DiffReport RunDifferential(const DiffOptions& opts);

/// Greedy backward elimination over the query stream: returns the
/// smallest `keep` set found that still fails (starting from the full
/// stream, dropping one index at a time). `opts.keep` is ignored.
std::vector<size_t> MinimizeFailure(const DiffOptions& opts);

/// The `tools/braid_difftest` invocation that reproduces `opts`.
std::string ReproCommand(const DiffOptions& opts);

/// Runs the standard configuration matrix for one seed — threads {1, 8} ×
/// prefetch {off, sync, async}, catalog off, intermediates off, one cell
/// at the CMS's default parallel threshold (serial kernels), plus
/// fault-injected configurations — every cell at `cache_budget_bytes`,
/// and returns the first failing report (or the last passing one). When
/// `failing` is non-null it receives the options of the failing cell.
DiffReport RunSeedMatrix(
    uint64_t seed, size_t num_queries = 24, bool with_faults = true,
    DiffOptions* failing = nullptr,
    size_t cache_budget_bytes = DiffOptions{}.cache_budget_bytes);

}  // namespace braid::testing

#endif  // BRAID_TESTING_DIFF_RUNNER_H_
