#include "dbms/remote_dbms.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <sstream>
#include <thread>

#include "obs/metrics.h"

namespace braid::dbms {

std::string RemoteStats::ToString() const {
  std::ostringstream os;
  os << "queries=" << queries << " messages=" << messages
     << " tuples_shipped=" << tuples_shipped << " bytes=" << bytes_shipped
     << " server_ms=" << server_ms << " total_ms=" << total_ms;
  return os.str();
}

RemoteDbms::RemoteDbms(Database database, NetworkModel network,
                       DbmsCostModel costs)
    : database_(std::move(database)),
      network_(network),
      costs_(costs),
      executor_(&database_),
      queries_(&obs::MetricsRegistry::Global().counter("remote.queries")),
      messages_(&obs::MetricsRegistry::Global().counter("remote.messages")),
      tuples_shipped_(
          &obs::MetricsRegistry::Global().counter("remote.tuples_shipped")),
      bytes_shipped_(
          &obs::MetricsRegistry::Global().counter("remote.bytes_shipped")),
      fetch_modeled_ms_(&obs::MetricsRegistry::Global().histogram(
          "remote.fetch_modeled_ms")) {}

Result<RemoteResult> RemoteDbms::Execute(const SqlQuery& query) {
  WorkCounters work;
  BRAID_ASSIGN_OR_RETURN(rel::Relation result, executor_.Execute(query, &work));

  RemoteCost cost;
  cost.server_ms = costs_.query_overhead_ms +
                   work.tuples_scanned * costs_.per_tuple_scan_ms +
                   work.tuples_intermediate * costs_.per_tuple_intermediate_ms +
                   work.tuples_output * costs_.per_tuple_output_ms;

  cost.tuples_shipped = result.NumTuples();
  cost.bytes_shipped = result.ByteSize();
  // One request message plus one message per result buffer (at least one
  // reply even for an empty result).
  const size_t buffers =
      std::max<size_t>(1, (cost.tuples_shipped + network_.buffer_tuples - 1) /
                              std::max<size_t>(1, network_.buffer_tuples));
  cost.messages = 1 + buffers;
  cost.transfer_ms = cost.messages * network_.msg_latency_ms +
                     cost.tuples_shipped * network_.per_tuple_ms +
                     cost.bytes_shipped * network_.per_byte_ms;
  // With pipelining the server's production overlaps the transfer of
  // earlier buffers; without it the result is fully produced first.
  if (network_.pipelining) {
    cost.total_ms = std::max(cost.server_ms, cost.transfer_ms) +
                    network_.msg_latency_ms;
  } else {
    cost.total_ms = cost.server_ms + cost.transfer_ms;
  }

  {
    MutexLock lock(&stats_mu_);
    stats_.queries += 1;
    stats_.messages += cost.messages;
    stats_.tuples_shipped += cost.tuples_shipped;
    stats_.bytes_shipped += cost.bytes_shipped;
    stats_.server_ms += cost.server_ms;
    stats_.total_ms += cost.total_ms;
  }
  queries_->Increment();
  messages_->Increment(cost.messages);
  tuples_shipped_->Increment(cost.tuples_shipped);
  bytes_shipped_->Increment(cost.bytes_shipped);
  fetch_modeled_ms_->Observe(cost.total_ms);

  if (network_.wall_clock_scale > 0) {
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        cost.total_ms * network_.wall_clock_scale));
  }

  return RemoteResult{std::move(result), cost};
}

double RemoteDbms::EstimateCardinality(const SqlQuery& query) const {
  // Cardinality estimate: product of table cardinalities, discounted by
  // the selectivity of each condition (equality via distinct counts,
  // inequality with the textbook 1/3 guess).
  double card = 1.0;
  for (const std::string& name : query.from) {
    const TableStats* stats = database_.GetStats(name);
    card *= stats == nullptr ? 1000.0
                             : std::max<size_t>(1, stats->cardinality);
  }
  for (const Condition& c : query.where) {
    const TableStats* lhs_stats =
        c.lhs.table < query.from.size()
            ? database_.GetStats(query.from[c.lhs.table])
            : nullptr;
    double sel = 0.33;
    if (c.op == rel::CompareOp::kEq) {
      sel = lhs_stats != nullptr ? lhs_stats->EqSelectivity(c.lhs.column)
                                 : 0.1;
      if (c.rhs_is_column && c.rhs_col.table < query.from.size()) {
        const TableStats* rhs_stats =
            database_.GetStats(query.from[c.rhs_col.table]);
        if (rhs_stats != nullptr) {
          sel = std::min(sel, rhs_stats->EqSelectivity(c.rhs_col.column));
        }
      }
    }
    card *= sel;
  }
  return std::max(card, 0.0);
}

double RemoteDbms::EstimateServerMs(const SqlQuery& query) const {
  double scanned = 0;
  for (const std::string& name : query.from) {
    const TableStats* stats = database_.GetStats(name);
    if (stats != nullptr) scanned += static_cast<double>(stats->cardinality);
  }
  const double output = EstimateCardinality(query);
  // Intermediate work approximated as twice the output.
  return costs_.query_overhead_ms + scanned * costs_.per_tuple_scan_ms +
         2.0 * output * costs_.per_tuple_intermediate_ms +
         output * costs_.per_tuple_output_ms;
}

}  // namespace braid::dbms
