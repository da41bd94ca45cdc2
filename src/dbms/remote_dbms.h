#ifndef BRAID_DBMS_REMOTE_DBMS_H_
#define BRAID_DBMS_REMOTE_DBMS_H_

#include <string>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "dbms/database.h"
#include "dbms/executor.h"
#include "dbms/sql.h"
#include "obs/metrics.h"

namespace braid::dbms {

/// Parameters of the simulated workstation ↔ database-server link. The
/// paper's prototype talked to INGRES / a Britton-Lee IDM-500 over Ethernet;
/// the defaults here approximate a LAN of that class scaled to readable
/// magnitudes. All times are simulated milliseconds on a deterministic
/// clock — no wall-clock measurement is involved.
struct NetworkModel {
  double msg_latency_ms = 5.0;  // round-trip latency per message
  double per_tuple_ms = 0.05;   // marshalling + transfer per result tuple
  double per_byte_ms = 0.0;     // optional bandwidth term
  size_t buffer_tuples = 64;    // result tuples per transfer message
  bool pipelining = true;       // server production overlaps transfer
  /// When > 0, Execute() also sleeps for total_ms * wall_clock_scale real
  /// milliseconds, making the simulated link physically observable so the
  /// Execution Monitor's remote/local overlap can be validated against
  /// wall-clock time (bench E10, test_exec).
  double wall_clock_scale = 0.0;
};

/// Per-tuple cost coefficients of the simulated server.
struct DbmsCostModel {
  double query_overhead_ms = 2.0;          // parse/optimize/setup per query
  double per_tuple_scan_ms = 0.001;
  double per_tuple_intermediate_ms = 0.002;
  double per_tuple_output_ms = 0.002;
};

/// Cost of one remote execution.
struct RemoteCost {
  double server_ms = 0;
  double transfer_ms = 0;
  double total_ms = 0;
  size_t messages = 0;
  size_t tuples_shipped = 0;
  size_t bytes_shipped = 0;
};

/// Accumulated communication statistics for a session; the quantities the
/// paper's cost definition names: "volume of communication between the
/// workstation and the remote system [and] computational demands made on
/// the database server" (§3).
struct RemoteStats {
  size_t queries = 0;
  size_t messages = 0;
  size_t tuples_shipped = 0;
  size_t bytes_shipped = 0;
  double server_ms = 0;
  double total_ms = 0;

  std::string ToString() const;
};

/// One remote query's outcome: the result relation plus its cost.
struct RemoteResult {
  rel::Relation relation;
  RemoteCost cost;
};

/// The remote DBMS as seen from the workstation: executes SqlQuery requests
/// against its database and charges simulated time and message counts. Per
/// the paper's architecture the DBMS is an independent component — it
/// answers queries and exposes its schema, and never calls into the CMS or
/// IE.
class RemoteDbms {
 public:
  RemoteDbms(Database database, NetworkModel network, DbmsCostModel costs);

  explicit RemoteDbms(Database database)
      : RemoteDbms(std::move(database), NetworkModel{}, DbmsCostModel{}) {}

  virtual ~RemoteDbms() = default;

  /// Executes `query`, returning the result and charging its cost to the
  /// session statistics. Thread-safe: the Execution Monitor issues
  /// concurrent subqueries from pool workers; execution reads the
  /// immutable database and the statistics update is mutex-guarded.
  ///
  /// Virtual so test harnesses can decorate the link (fault injection,
  /// added latency) without the CMS knowing; see
  /// `testing::FaultyRemoteDbms`.
  virtual Result<RemoteResult> Execute(const SqlQuery& query);

  /// Estimated server-side cost of `query` without executing it, derived
  /// from catalog statistics. Used by the CMS planner to compare remote
  /// vs. local execution.
  double EstimateServerMs(const SqlQuery& query) const;

  /// Estimated result cardinality from catalog statistics.
  double EstimateCardinality(const SqlQuery& query) const;

  const Database& database() const { return database_; }
  const NetworkModel& network() const { return network_; }
  const DbmsCostModel& costs() const { return costs_; }

  /// Snapshot of the accumulated session statistics. Returns a copy taken
  /// under the lock: concurrent Execute calls (pool fetches, async
  /// prefetches) mutate the counters, so handing out a reference would
  /// let callers read a struct mid-update.
  RemoteStats stats() const {
    MutexLock lock(&stats_mu_);
    return stats_;
  }
  void ResetStats() {
    MutexLock lock(&stats_mu_);
    stats_ = RemoteStats{};
  }

 private:
  Database database_;
  NetworkModel network_;
  DbmsCostModel costs_;
  Executor executor_;
  mutable Mutex stats_mu_;
  RemoteStats stats_ BRAID_GUARDED_BY(stats_mu_);

  // Registry-owned `remote.*` instruments, resolved once: every Execute
  // counts on all of them.
  obs::Counter* queries_;
  obs::Counter* messages_;
  obs::Counter* tuples_shipped_;
  obs::Counter* bytes_shipped_;
  obs::Histogram* fetch_modeled_ms_;
};

}  // namespace braid::dbms

#endif  // BRAID_DBMS_REMOTE_DBMS_H_
