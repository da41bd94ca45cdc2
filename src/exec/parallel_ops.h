#ifndef BRAID_EXEC_PARALLEL_OPS_H_
#define BRAID_EXEC_PARALLEL_OPS_H_

#include <vector>

#include "exec/exec_context.h"
#include "relational/operators.h"
#include "relational/predicate.h"
#include "relational/relation.h"

namespace braid::exec {

/// Morsel-parallel variants of the hot relational operators. Every
/// function produces output byte-identical to its serial counterpart in
/// `braid::rel` (same tuples, same order) — parallelism changes wall-clock
/// time, never results — and falls back to the serial implementation when
/// `ctx.ShouldParallelize` rejects the input size.
///
/// Determinism recipe, shared by all of them: workers claim fixed-size
/// morsels of the input, write into per-morsel output buffers, and the
/// buffers are concatenated (or merged) in morsel order afterwards, which
/// reproduces the serial input-order traversal exactly.

/// σ then π in one pass, in parallel: per-morsel buffers of the kept
/// columns of the rows satisfying `pred` (every row when null),
/// concatenated in input order.
rel::Relation SelectProject(const ExecContext& ctx, const rel::Relation& input,
                            const rel::Predicate* pred,
                            const std::vector<size_t>& columns);

/// Composite-key equi-join writing only the `keep` columns (positions over
/// the concatenated tuple), on `rel::JoinKernel`: each build row is hashed
/// once into a partition morsel-by-morsel, each partition builds its own
/// kernel table concurrently (rows in input order), and the probe runs
/// morsel-parallel with per-morsel output buffers merged in probe order.
rel::Relation HashJoin(const ExecContext& ctx, const rel::Relation& left,
                       const rel::Relation& right,
                       const std::vector<rel::JoinKey>& keys,
                       const std::vector<size_t>& keep,
                       const rel::PredicatePtr& residual = nullptr);

/// Duplicate elimination: per-morsel local dedup, then a serial merge over
/// the (much smaller) per-morsel survivors keeps global first-occurrence
/// order.
rel::Relation Distinct(const ExecContext& ctx, const rel::Relation& input);

}  // namespace braid::exec

#endif  // BRAID_EXEC_PARALLEL_OPS_H_
