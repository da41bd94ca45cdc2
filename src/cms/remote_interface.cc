#include "cms/remote_interface.h"

#include <map>

#include "common/strings.h"
#include "obs/metrics.h"

namespace braid::cms {

namespace {

using caql::CaqlQuery;
using logic::Atom;
using logic::Term;

}  // namespace

Result<dbms::SqlQuery> RemoteDbmsInterface::Translate(
    const CaqlQuery& query, const std::vector<std::string>& needed_vars)
    const {
  if (!query.EvaluableAtoms().empty()) {
    return Status::Unimplemented(
        "remote DBMS does not support evaluable functions");
  }
  const std::vector<Atom> atoms = query.RelationAtoms();
  if (atoms.empty()) {
    return Status::InvalidArgument("remote query has no relation atoms");
  }

  dbms::SqlQuery sql;
  // Occurrences of each variable: (table position, column).
  std::map<std::string, std::vector<dbms::ColRef>> occurrences;

  const dbms::Database& db = remote_->database();
  for (size_t ti = 0; ti < atoms.size(); ++ti) {
    const Atom& atom = atoms[ti];
    const rel::Relation* table = db.GetTable(atom.predicate);
    if (table == nullptr) {
      return Status::NotFound(
          StrCat("base relation ", atom.predicate, " not in remote schema"));
    }
    if (table->schema().size() != atom.arity()) {
      return Status::InvalidArgument(
          StrCat("atom ", atom.ToString(), " arity mismatch with table ",
                 atom.predicate));
    }
    sql.from.push_back(atom.predicate);
    for (size_t ci = 0; ci < atom.args.size(); ++ci) {
      const Term& t = atom.args[ci];
      if (t.is_constant()) {
        dbms::Condition cond;
        cond.lhs = dbms::ColRef{ti, ci};
        cond.op = rel::CompareOp::kEq;
        cond.rhs_is_column = false;
        cond.constant = t.value();
        sql.where.push_back(std::move(cond));
      } else {
        occurrences[t.var_name()].push_back(dbms::ColRef{ti, ci});
      }
    }
  }

  // Equality chains for repeated variables.
  for (const auto& [var, occs] : occurrences) {
    for (size_t i = 1; i < occs.size(); ++i) {
      dbms::Condition cond;
      cond.lhs = occs[i - 1];
      cond.op = rel::CompareOp::kEq;
      cond.rhs_is_column = true;
      cond.rhs_col = occs[i];
      sql.where.push_back(std::move(cond));
    }
  }

  // Comparison atoms.
  for (const Atom& comp : query.ComparisonAtoms()) {
    const Term& lhs = comp.args[0];
    const Term& rhs = comp.args[1];
    if (lhs.is_constant() && rhs.is_constant()) {
      // Ground: statically true comparisons vanish; statically false ones
      // are unsatisfiable — represent with an impossible condition on the
      // first table's first column (a = a AND a != a shape is overkill;
      // use two contradictory constants).
      if (rel::EvalCompare(comp.comparison_op(), lhs.value(), rhs.value())) {
        continue;
      }
      dbms::Condition c1;
      c1.lhs = dbms::ColRef{0, 0};
      c1.op = rel::CompareOp::kEq;
      c1.rhs_is_column = false;
      c1.constant = rel::Value::Int(0);
      dbms::Condition c2 = c1;
      c2.op = rel::CompareOp::kNe;
      sql.where.push_back(c1);
      sql.where.push_back(c2);
      continue;
    }
    auto occ_of = [&occurrences](const Term& t) -> const dbms::ColRef* {
      auto it = occurrences.find(t.var_name());
      return it == occurrences.end() ? nullptr : &it->second.front();
    };
    if (lhs.is_variable() && rhs.is_variable()) {
      const dbms::ColRef* lo = occ_of(lhs);
      const dbms::ColRef* ro = occ_of(rhs);
      if (lo == nullptr || ro == nullptr) {
        return Status::InvalidArgument(
            StrCat("comparison ", comp.ToString(),
                   " references variable outside the remote subquery"));
      }
      dbms::Condition cond;
      cond.lhs = *lo;
      cond.op = comp.comparison_op();
      cond.rhs_is_column = true;
      cond.rhs_col = *ro;
      sql.where.push_back(std::move(cond));
    } else {
      const bool lhs_is_var = lhs.is_variable();
      const Term& var = lhs_is_var ? lhs : rhs;
      const Term& constant = lhs_is_var ? rhs : lhs;
      const dbms::ColRef* occ = occ_of(var);
      if (occ == nullptr) {
        return Status::InvalidArgument(
            StrCat("comparison ", comp.ToString(),
                   " references variable outside the remote subquery"));
      }
      dbms::Condition cond;
      cond.lhs = *occ;
      cond.op = lhs_is_var ? comp.comparison_op()
                           : rel::ReverseCompareOp(comp.comparison_op());
      cond.rhs_is_column = false;
      cond.constant = constant.value();
      sql.where.push_back(std::move(cond));
    }
  }

  // SELECT list. An empty needed set (pure existence check) selects the
  // first column so the tuple count survives the round trip.
  if (needed_vars.empty()) {
    sql.select.push_back(dbms::ColRef{0, 0});
  }
  for (const std::string& var : needed_vars) {
    auto it = occurrences.find(var);
    if (it == occurrences.end()) {
      return Status::InvalidArgument(
          StrCat("needed variable ", var, " does not occur in the subquery"));
    }
    sql.select.push_back(it->second.front());
  }
  return sql;
}

RemoteDbmsInterface::RemoteDbmsInterface(dbms::RemoteDbms* remote)
    : remote_(remote),
      fetches_(&obs::MetricsRegistry::Global().counter("remote.fetches")) {}

Result<RemoteFetch> RemoteDbmsInterface::Fetch(
    const CaqlQuery& query, const std::vector<std::string>& needed_vars) {
  // Counts every fetch issued through the RDI, from the foreground
  // thread, the monitor's concurrent fetch tasks, and prefetch tasks
  // alike — the counter the fetch-exactly-once tests assert on. Fetch is
  // thread-safe: Translate is const over the immutable remote schema and
  // Execute guards its statistics internally.
  fetches_->Increment();
  BRAID_ASSIGN_OR_RETURN(dbms::SqlQuery sql, Translate(query, needed_vars));
  BRAID_ASSIGN_OR_RETURN(dbms::RemoteResult result, remote_->Execute(sql));

  // Rename result columns to the requested variable names, carrying the
  // remote base-table column types through: sql.select[i] is the first
  // occurrence of needed_vars[i], so its table/column pair resolves the
  // variable's declared type in the remote schema.
  const dbms::Database& db = remote_->database();
  std::vector<rel::Column> cols;
  cols.reserve(needed_vars.size());
  for (size_t i = 0; i < needed_vars.size(); ++i) {
    rel::ValueType type = rel::ValueType::kNull;
    const dbms::ColRef& ref = sql.select[i];
    if (const rel::Relation* table = db.GetTable(sql.from[ref.table])) {
      type = table->schema().column(ref.column).type;
    }
    cols.push_back(rel::Column{needed_vars[i], type});
  }
  rel::Relation bindings("remote", rel::Schema(std::move(cols)));
  if (needed_vars.empty()) {
    // Existence check: keep the tuple count, drop the placeholder column.
    bindings.mutable_tuples().assign(result.relation.NumTuples(),
                                     rel::Tuple{});
  } else {
    bindings.mutable_tuples() = std::move(result.relation.mutable_tuples());
  }
  return RemoteFetch{std::move(bindings), result.cost};
}

Result<std::unique_ptr<stream::BufferedRemoteStream>>
RemoteDbmsInterface::FetchStream(const CaqlQuery& query,
                                 const std::vector<std::string>& needed_vars) {
  BRAID_ASSIGN_OR_RETURN(RemoteFetch fetch, Fetch(query, needed_vars));
  stream::RemoteStreamTiming timing;
  timing.server_ms = fetch.cost.server_ms;
  timing.msg_latency_ms = remote_->network().msg_latency_ms;
  timing.per_tuple_ms = remote_->network().per_tuple_ms;
  timing.buffer_tuples = remote_->network().buffer_tuples;
  timing.pipelining = remote_->network().pipelining;
  return std::make_unique<stream::BufferedRemoteStream>(
      std::make_shared<rel::Relation>(std::move(fetch.bindings)), timing);
}

}  // namespace braid::cms
