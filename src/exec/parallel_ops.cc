#include "exec/parallel_ops.h"

#include <algorithm>
#include <bit>
#include <optional>
#include <unordered_set>

#include "common/strings.h"

namespace braid::exec {

namespace {

using rel::Relation;
using rel::Tuple;
using rel::TupleHash;

/// Number of morsels a ParallelFor over `n` items with this context's
/// grain will produce; parallel operators size their per-morsel output
/// buffers with it.
size_t NumMorsels(const ExecContext& ctx, size_t n) {
  return (n + ctx.morsel_tuples - 1) / ctx.morsel_tuples;
}

/// Concatenates per-morsel buffers in morsel order — the step that
/// restores the serial input-order traversal after a parallel pass.
void ConcatInOrder(std::vector<std::vector<Tuple>> parts, Relation* out) {
  size_t total = 0;
  for (const auto& p : parts) total += p.size();
  out->mutable_tuples().reserve(total);
  for (auto& p : parts) {
    for (Tuple& t : p) out->AppendUnchecked(std::move(t));
  }
}

}  // namespace

Relation SelectProject(const ExecContext& ctx, const Relation& input,
                       const rel::Predicate* pred,
                       const std::vector<size_t>& columns) {
  const size_t n = input.NumTuples();
  if (!ctx.ShouldParallelize(n)) {
    return rel::SelectProject(input, pred, columns);
  }

  std::vector<std::vector<Tuple>> parts(NumMorsels(ctx, n));
  ctx.pool->ParallelFor(n, ctx.morsel_tuples, [&](size_t begin, size_t end) {
    std::vector<Tuple>& local = parts[begin / ctx.morsel_tuples];
    local.reserve(end - begin);
    for (size_t i = begin; i < end; ++i) {
      const Tuple& t = input.tuple(i);
      if (pred == nullptr || pred->Eval(t)) {
        local.push_back(rel::ProjectTuple(t, columns));
      }
    }
  });
  Relation out(StrCat("project(", input.name(), ")"),
               input.schema().Project(columns));
  ConcatInOrder(std::move(parts), &out);
  return out;
}

Relation HashJoin(const ExecContext& ctx, const Relation& left,
                  const Relation& right,
                  const std::vector<rel::JoinKey>& keys,
                  const std::vector<size_t>& keep,
                  const rel::PredicatePtr& residual) {
  const size_t total = left.NumTuples() + right.NumTuples();
  if (keys.empty() || !ctx.ShouldParallelize(total)) {
    return rel::HashJoin(left, right, keys, keep, residual);
  }
  const rel::JoinKernel kernel(left, right, keys, keep, residual);

  // Partitions: a power of two, at least four per lane (8 to 256), so the
  // partition of a hash is its top bits (the kernel's buckets use the low
  // ones).
  const int partition_bits =
      std::clamp(static_cast<int>(std::bit_width(4 * ctx.Lanes() - 1)), 3, 8);
  const size_t partitions = size_t{1} << partition_bits;
  auto partition_of = [partition_bits](uint64_t hash) {
    return static_cast<size_t>(hash >> (64 - partition_bits));
  };

  // Build phase 1 — morsel-parallel hashing: each build row is hashed once
  // and binned, in row order, by partition.
  const size_t nb = kernel.build().NumTuples();
  std::vector<uint64_t> hashes(nb);
  std::vector<std::vector<std::vector<size_t>>> binned(
      NumMorsels(ctx, nb), std::vector<std::vector<size_t>>(partitions));
  ctx.pool->ParallelFor(nb, ctx.morsel_tuples, [&](size_t begin, size_t end) {
    auto& local = binned[begin / ctx.morsel_tuples];
    for (size_t row = begin; row < end; ++row) {
      hashes[row] = kernel.BuildHash(row);
      local[partition_of(hashes[row])].push_back(row);
    }
  });

  // Build phase 2 — one kernel table per partition, built concurrently.
  // Gathering the morsel bins in morsel order keeps each partition's rows
  // ascending, as the serial build's are.
  std::vector<std::optional<rel::JoinKernel::Table>> tables(partitions);
  ctx.pool->ParallelFor(partitions, 1, [&](size_t begin, size_t end) {
    for (size_t p = begin; p < end; ++p) {
      std::vector<size_t> rows;
      for (const auto& morsel_bins : binned) {
        rows.insert(rows.end(), morsel_bins[p].begin(), morsel_bins[p].end());
      }
      tables[p].emplace(std::move(rows), hashes);
    }
  });

  // Probe phase — morsel-parallel with per-morsel output buffers.
  const size_t np = kernel.probe().NumTuples();
  std::vector<std::vector<Tuple>> parts(NumMorsels(ctx, np));
  ctx.pool->ParallelFor(np, ctx.morsel_tuples, [&](size_t begin, size_t end) {
    std::vector<Tuple>& local = parts[begin / ctx.morsel_tuples];
    for (size_t row = begin; row < end; ++row) {
      const uint64_t hash = kernel.ProbeHash(row);
      kernel.Probe(*tables[partition_of(hash)], row, hash, &local);
    }
  });

  Relation out = kernel.MakeOutput();
  ConcatInOrder(std::move(parts), &out);
  return out;
}

Relation Distinct(const ExecContext& ctx, const Relation& input) {
  const size_t n = input.NumTuples();
  if (!ctx.ShouldParallelize(n)) return rel::Distinct(input);

  // Per-morsel local dedup keeps each morsel's first occurrences in order;
  // the serial merge then walks morsels in order against a global set, so
  // the output is the global first-occurrence order.
  std::vector<std::vector<Tuple>> survivors(NumMorsels(ctx, n));
  ctx.pool->ParallelFor(n, ctx.morsel_tuples, [&](size_t begin, size_t end) {
    std::vector<Tuple>& local = survivors[begin / ctx.morsel_tuples];
    std::unordered_set<Tuple, TupleHash> seen;
    seen.reserve(end - begin);
    for (size_t i = begin; i < end; ++i) {
      const Tuple& t = input.tuple(i);
      if (seen.insert(t).second) local.push_back(t);
    }
  });

  Relation out(StrCat("distinct(", input.name(), ")"), input.schema());
  std::unordered_set<Tuple, TupleHash> seen;
  seen.reserve(n);
  for (const auto& part : survivors) {
    for (const Tuple& t : part) {
      if (seen.insert(t).second) out.AppendUnchecked(t);
    }
  }
  return out;
}

}  // namespace braid::exec
