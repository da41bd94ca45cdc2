#ifndef BRAID_CMS_QUERY_PROCESSOR_H_
#define BRAID_CMS_QUERY_PROCESSOR_H_

#include <functional>
#include <memory>

#include "caql/caql_query.h"
#include "common/status.h"
#include "exec/exec_context.h"
#include "relational/operators.h"
#include "relational/relation.h"

namespace braid::cms {

/// Work counters for local (cache) execution, used for simulated local
/// cost: one unit per intermediate tuple materialized or examined.
struct LocalWork {
  size_t tuples_processed = 0;
};

/// Observes the stages of `QueryProcessor::Assemble` so the Execution
/// Monitor can offer intermediate relations to the cache as they are
/// produced. `bound` holds indices into the `bindings` vector (in join
/// order, the start relation first) and `comps` indices into the
/// `comparisons` vector that have been applied to `current` so far.
/// Callbacks run on the assembling thread; `current` is only valid for
/// the duration of the call.
struct AssemblyObserver {
  /// After each pairwise join in the positive join loop (and the eager
  /// comparisons it enabled). Not fired for the lone start relation.
  std::function<void(const std::vector<size_t>& bound,
                     const std::vector<size_t>& comps,
                     const rel::Relation& current)>
      on_join_stage;
  /// Once after the trailing residual comparisons, before the head
  /// projection — only for pure PSJ assemblies (no anti bindings, no
  /// evaluables) where at least one trailing comparison actually ran
  /// (otherwise it would duplicate the last join stage).
  std::function<void(const std::vector<size_t>& comps,
                     const rel::Relation& current)>
      on_residual_stage;
};

/// The Query Processor: "an integral component of the Cache Manager,
/// performs the actual DBMS-like operations (i.e., joins, selects,
/// aggregation, indexing, etc.) on the cache elements" (paper §5).
///
/// Evaluation works over *binding relations*: relations whose columns are
/// named after query variables. Sources (cache-element extensions, remote
/// results) are converted into binding relations, natural-joined on shared
/// variable names, filtered by comparison atoms, extended/checked by
/// evaluable atoms, and finally projected onto the query head. The CMS
/// also supports operations the remote DBMS lacks — aggregation over
/// cached data and a transitive-closure fixed-point operator used by the
/// compiled inference strategy.
class QueryProcessor {
 public:
  /// Maps a relation atom to a locally available source relation (a cached
  /// base-relation copy or element extension) or nullptr.
  using AtomResolver =
      std::function<std::shared_ptr<const rel::Relation>(const logic::Atom&)>;

  /// Fully evaluates a conjunctive CAQL query from local sources. Every
  /// relation atom must resolve. Returns the head projection.
  static Result<rel::Relation> Evaluate(const caql::CaqlQuery& query,
                                        const AtomResolver& resolver,
                                        LocalWork* work);

  /// Joins pre-computed binding relations (columns named by query
  /// variables), applies the given comparison and evaluable atoms as their
  /// variables become bound, applies each anti binding (rows with a match
  /// in an anti binding on its shared columns are removed — the NOT of
  /// CAQL), and projects onto the query head. This is the assembly step
  /// the Execution Monitor runs over plan-source outputs. With a non-null
  /// `ctx`, the joins and the final duplicate elimination run
  /// morsel-parallel on large inputs (results are unchanged; see
  /// `exec::` operator contracts). A non-null `observer` is notified after
  /// each join stage and the final residual filter (intermediate-result
  /// capture; see AssemblyObserver).
  static Result<rel::Relation> Assemble(
      const caql::CaqlQuery& query, std::vector<rel::Relation> bindings,
      const std::vector<logic::Atom>& comparisons,
      const std::vector<logic::Atom>& evaluables, LocalWork* work,
      std::vector<rel::Relation> anti_bindings = {},
      const exec::ExecContext* ctx = nullptr,
      const AssemblyObserver* observer = nullptr);

  /// Anti-join: rows of `input` with no counterpart in `anti` agreeing on
  /// every column name the two share. With no shared columns the result
  /// is `input` when `anti` is empty and the empty relation otherwise.
  static rel::Relation AntiJoin(const rel::Relation& input,
                                const rel::Relation& anti, LocalWork* work);

  /// Converts one atom occurrence plus its source relation into a binding
  /// relation: constant arguments become selections, repeated variables
  /// become equality selections, and the output columns are the atom's
  /// distinct variables in first-occurrence order.
  static Result<rel::Relation> BindAtom(const logic::Atom& atom,
                                        const rel::Relation& source,
                                        LocalWork* work);

  /// Natural join on identically named columns (cross product when none
  /// are shared). Right-side duplicates of shared columns are dropped: the
  /// join writes only the kept columns of each output tuple. With a
  /// non-null `ctx` the join is morsel-parallel on large inputs.
  static rel::Relation NaturalJoin(const rel::Relation& left,
                                   const rel::Relation& right, LocalWork* work,
                                   const exec::ExecContext* ctx = nullptr);

  /// Applies a comparison atom in place, compacting `relation`, which the
  /// caller must own outright (never a relation the cache shares); every
  /// variable must name a column.
  static Status ApplyComparison(rel::Relation* relation,
                                const logic::Atom& comparison,
                                LocalWork* work);

  /// Applies an evaluable atom (plus/minus/times/div/abs). Input arguments
  /// must be bound (columns or constants); the result argument either
  /// binds a new column or, if already bound, acts as a filter.
  static Result<rel::Relation> ApplyEvaluable(const rel::Relation& input,
                                              const logic::Atom& evaluable,
                                              LocalWork* work);

  /// Projects a binding relation onto the query head (constants in the
  /// head become literal columns). Column names in the result are the
  /// head terms' renderings.
  static Result<rel::Relation> ProjectHead(const rel::Relation& input,
                                           const caql::CaqlQuery& query);

  /// Transitive closure of an edge relation — the CMS's fixed-point
  /// operator (§2: "second-order templates along with specialized
  /// operators (e.g., a fixed point operator)"). Semi-naive evaluation.
  static rel::Relation TransitiveClosure(const rel::Relation& edges,
                                         size_t from_col, size_t to_col,
                                         LocalWork* work);
};

}  // namespace braid::cms

#endif  // BRAID_CMS_QUERY_PROCESSOR_H_
