#ifndef BRAID_CMS_REMOTE_INTERFACE_H_
#define BRAID_CMS_REMOTE_INTERFACE_H_

#include <string>
#include <vector>

#include "caql/caql_query.h"
#include "common/status.h"
#include "dbms/remote_dbms.h"
#include "dbms/sql.h"
#include "obs/metrics.h"
#include "stream/remote_stream.h"

namespace braid::cms {

/// Outcome of a remote fetch: the bindings (one column per requested
/// variable) plus the communication cost charged.
struct RemoteFetch {
  rel::Relation bindings;
  dbms::RemoteCost cost;
};

/// The Remote DBMS Interface (RDI, paper Fig. 5): translates CAQL
/// subqueries into the DML of the remote DBMS, executes them, and buffers
/// the returned data. CAQL constructs the remote system cannot express —
/// evaluable functions, non-base predicates — are rejected here; the
/// planner keeps them local.
class RemoteDbmsInterface {
 public:
  explicit RemoteDbmsInterface(dbms::RemoteDbms* remote);

  /// Translates a conjunctive CAQL query over base relations into SQL.
  /// `needed_vars` become the SELECT list, in order.
  Result<dbms::SqlQuery> Translate(const caql::CaqlQuery& query,
                                   const std::vector<std::string>& needed_vars)
      const;

  /// Translates and executes; the result's columns are named `needed_vars`.
  Result<RemoteFetch> Fetch(const caql::CaqlQuery& query,
                            const std::vector<std::string>& needed_vars);

  /// Like Fetch, but returns the bindings as a buffered stream exposing
  /// per-buffer simulated arrival times (paper §5.5: buffering +
  /// pipelining so the Cache Manager can proceed while data is still
  /// arriving).
  Result<std::unique_ptr<stream::BufferedRemoteStream>> FetchStream(
      const caql::CaqlQuery& query,
      const std::vector<std::string>& needed_vars);

  dbms::RemoteDbms* remote() { return remote_; }
  const dbms::RemoteDbms* remote() const { return remote_; }

 private:
  dbms::RemoteDbms* remote_;
  obs::Counter* fetches_;  // `remote.fetches`, resolved once
};

}  // namespace braid::cms

#endif  // BRAID_CMS_REMOTE_INTERFACE_H_
