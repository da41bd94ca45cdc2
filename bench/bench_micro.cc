// M1-M4 — google-benchmark micro-benchmarks for the substrate operations
// the architecture leans on: unification, the subsumption test, hash
// joins, the Query Processor's natural-join chain, aggregation,
// canonical-key computation, and path-tracker advances. Also the
// morsel-parallel hash join (exec::) at several worker counts, timed by
// wall clock, with threads=0 rows running the serial rel:: baseline, and
// two warm end-to-end paths: one exact-hit CMS query, and one IE Ask
// answered entirely from the cache. C2: cache reads right after a write
// and evicting inserts, at 100 to 16000 resident elements.
//
// Results are written to BENCH_micro.json by default; pass `--json <path>`
// (or any --benchmark_out=... flag) to override.

#include <benchmark/benchmark.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "advice/path_tracker.h"
#include "caql/caql_query.h"
#include "cms/cms.h"
#include "cms/query_processor.h"
#include "cms/subsumption.h"
#include "common/rng.h"
#include "common/strings.h"
#include "exec/parallel_ops.h"
#include "exec/thread_pool.h"
#include "ie/inference_engine.h"
#include "logic/parser.h"
#include "logic/unify.h"
#include "relational/operators.h"
#include "workload/generators.h"

namespace braid {
namespace {

void BM_UnifyAtoms(benchmark::State& state) {
  logic::Atom a = logic::ParseQueryAtom("p(X, Y, Z, W)").value();
  logic::Atom b = logic::ParseQueryAtom("p(1, B, C, 4)").value();
  for (auto _ : state) {
    auto mgu = logic::UnifyAtoms(a, b);
    benchmark::DoNotOptimize(mgu);
  }
}
BENCHMARK(BM_UnifyAtoms);

void BM_MatchOneWay(benchmark::State& state) {
  logic::Atom general = logic::ParseQueryAtom("b(X, Y, Z)").value();
  logic::Atom specific = logic::ParseQueryAtom("b(1, Q, 3)").value();
  for (auto _ : state) {
    auto m = logic::MatchOneWay(general, specific);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_MatchOneWay);

void BM_Subsumption(benchmark::State& state) {
  caql::CaqlQuery def =
      caql::ParseCaql("e(X, Y, Z) :- b1(X, Y) & b2(Y, Z)").value();
  caql::CaqlQuery query =
      caql::ParseCaql("q(A, C) :- b1(A, 7) & b2(7, C)").value();
  for (auto _ : state) {
    auto m = cms::ComputeSubsumption(def, query);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_Subsumption);

void BM_CanonicalKey(benchmark::State& state) {
  caql::CaqlQuery q =
      caql::ParseCaql("d(X, Y, Z) :- b1(X, W) & b2(W, Y) & b3(Y, Z) & Z > 3")
          .value();
  for (auto _ : state) {
    std::string key = q.CanonicalKey();
    benchmark::DoNotOptimize(key);
  }
}
BENCHMARK(BM_CanonicalKey);

void BM_HashJoin(benchmark::State& state) {
  const int64_t rows = state.range(0);
  Rng rng(42);
  rel::Relation left("l", rel::Schema::FromNames({"k", "v"}));
  rel::Relation right("r", rel::Schema::FromNames({"k", "w"}));
  for (int64_t i = 0; i < rows; ++i) {
    left.AppendUnchecked({rel::Value::Int(rng.Uniform(0, rows / 4 + 1)),
                          rel::Value::Int(i)});
    right.AppendUnchecked({rel::Value::Int(rng.Uniform(0, rows / 4 + 1)),
                           rel::Value::Int(i)});
  }
  for (auto _ : state) {
    rel::Relation out = rel::HashJoin(left, right, {rel::JoinKey{0, 0}});
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_HashJoin)->Arg(256)->Arg(1024)->Arg(4096);

void BM_AntiJoin(benchmark::State& state) {
  const int64_t rows = state.range(0);
  Rng rng(7);
  rel::Relation input("in", rel::Schema::FromNames({"X", "Y"}));
  rel::Relation anti("anti", rel::Schema::FromNames({"X"}));
  for (int64_t i = 0; i < rows; ++i) {
    input.AppendUnchecked({rel::Value::Int(rng.Uniform(0, rows / 2 + 1)),
                           rel::Value::Int(i)});
    if (i % 3 == 0) {
      anti.AppendUnchecked({rel::Value::Int(rng.Uniform(0, rows / 2 + 1))});
    }
  }
  for (auto _ : state) {
    cms::LocalWork work;
    rel::Relation out = cms::QueryProcessor::AntiJoin(input, anti, &work);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_AntiJoin)->Arg(256)->Arg(2048);

void BM_TransitiveClosure(benchmark::State& state) {
  const int64_t nodes = state.range(0);
  Rng rng(9);
  rel::Relation edges("e", rel::Schema::FromNames({"s", "d"}));
  for (int64_t i = 0; i < nodes * 3; ++i) {
    int64_t a = rng.Uniform(0, nodes - 1);
    int64_t b = rng.Uniform(0, nodes - 1);
    if (a > b) std::swap(a, b);
    if (a == b) continue;
    edges.AppendUnchecked({rel::Value::Int(a), rel::Value::Int(b)});
  }
  for (auto _ : state) {
    cms::LocalWork work;
    rel::Relation tc =
        cms::QueryProcessor::TransitiveClosure(edges, 0, 1, &work);
    benchmark::DoNotOptimize(tc);
  }
}
BENCHMARK(BM_TransitiveClosure)->Arg(64)->Arg(256);

// Builds the same join inputs as BM_HashJoin for the parallel variants.
void MakeJoinInputs(int64_t rows, rel::Relation* left, rel::Relation* right) {
  Rng rng(42);
  *left = rel::Relation("l", rel::Schema::FromNames({"k", "v"}));
  *right = rel::Relation("r", rel::Schema::FromNames({"k", "w"}));
  for (int64_t i = 0; i < rows; ++i) {
    left->AppendUnchecked({rel::Value::Int(rng.Uniform(0, rows / 4 + 1)),
                           rel::Value::Int(i)});
    right->AppendUnchecked({rel::Value::Int(rng.Uniform(0, rows / 4 + 1)),
                            rel::Value::Int(i)});
  }
}

// threads == 0 runs the serial rel:: operator as the baseline; otherwise a
// pool with `threads` workers and a zero threshold forces the parallel
// path regardless of input size. Timed by wall clock: the default CPU
// time of the main thread omits the workers' time.
void BM_ParallelHashJoin(benchmark::State& state) {
  const int64_t rows = state.range(0);
  const int64_t threads = state.range(1);
  rel::Relation left("l", {}), right("r", {});
  MakeJoinInputs(rows, &left, &right);
  std::unique_ptr<exec::ThreadPool> pool;
  exec::ExecContext ctx;
  if (threads > 0) {
    pool = std::make_unique<exec::ThreadPool>(static_cast<size_t>(threads));
    ctx.pool = pool.get();
    ctx.parallel_threshold = 0;
  }
  const std::vector<rel::JoinKey> keys = {rel::JoinKey{0, 0}};
  for (auto _ : state) {
    rel::Relation out = threads > 0
                            ? exec::HashJoin(ctx, left, right, keys,
                                             {0, 1, 2, 3})
                            : rel::HashJoin(left, right, keys);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_ParallelHashJoin)
    ->ArgsProduct({{4096, 65536}, {0, 1, 2, 4, 8}})
    ->UseRealTime();

void BM_Aggregate(benchmark::State& state) {
  const int64_t rows = state.range(0);
  Rng rng(13);
  rel::Relation input("in", rel::Schema::FromNames({"g", "v"}));
  for (int64_t i = 0; i < rows; ++i) {
    input.AppendUnchecked({rel::Value::Int(rng.Uniform(0, 255)),
                           rel::Value::Int(rng.Uniform(0, 1000))});
  }
  const std::vector<size_t> group_by = {0};
  const std::vector<rel::AggSpec> aggs = {
      {rel::AggFn::kSum, 1, "sum_v"}, {rel::AggFn::kCount, 0, "n"}};
  for (auto _ : state) {
    rel::Relation out = rel::Aggregate(input, group_by, aggs);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_Aggregate)->Arg(4096)->Arg(65536);

/// `relation`'s tuples under column names `vars` — a binding relation.
rel::Relation Bind(const rel::Relation& relation,
                   const std::vector<std::string>& vars) {
  rel::Relation out(relation.name(), rel::Schema::FromNames(vars));
  out.mutable_tuples() = relation.tuples();
  return out;
}

// The serial natural-join chain of `local_join`'s grandparent shape over
// its data (the 1000-person genealogy): parent(X, Y) * parent(Y, Z), then
// * person(Z, A, C), whose city column C is a string.
void BM_NaturalJoin(benchmark::State& state) {
  workload::GenealogyParams params;
  params.people = 1000;
  const dbms::Database db = workload::MakeGenealogyDatabase(params);
  const rel::Relation xy = Bind(*db.GetTable("parent"), {"X", "Y"});
  const rel::Relation yz = Bind(*db.GetTable("parent"), {"Y", "Z"});
  const rel::Relation zac = Bind(*db.GetTable("person"), {"Z", "A", "C"});
  size_t rows = 0;
  for (auto _ : state) {
    cms::LocalWork work;
    rel::Relation xyz = cms::QueryProcessor::NaturalJoin(xy, yz, &work);
    rel::Relation out = cms::QueryProcessor::NaturalJoin(xyz, zac, &work);
    rows = out.NumTuples();
    benchmark::DoNotOptimize(out);
  }
  state.counters["rows"] = static_cast<double>(rows);
}
BENCHMARK(BM_NaturalJoin);

void BM_PathTrackerAdvance(benchmark::State& state) {
  using advice::PathExpr;
  using advice::RepBound;
  auto d1 = PathExpr::Pattern("d1", {});
  auto d2 = PathExpr::Pattern("d2", {});
  auto d3 = PathExpr::Pattern("d3", {});
  auto inner = PathExpr::Sequence({d2, d3}, RepBound::Fixed(0),
                                  RepBound::Cardinality("Y"));
  auto whole =
      PathExpr::Sequence({d1, inner}, RepBound::Fixed(1), RepBound::Fixed(1));
  for (auto _ : state) {
    advice::PathTracker tracker(whole);
    tracker.Advance("d1");
    for (int i = 0; i < 8; ++i) {
      tracker.Advance("d2");
      tracker.Advance("d3");
    }
    benchmark::DoNotOptimize(tracker.mispredictions());
  }
}
BENCHMARK(BM_PathTrackerAdvance);

/// Span records accumulate in the CMS tracer on every query; clearing it
/// outside the timed region every this many iterations keeps the warm
/// benchmarks' memory flat.
constexpr int64_t kTracerClearEvery = 4096;

void BM_ExactHit(benchmark::State& state) {
  constexpr int64_t kElements = 2000;
  dbms::Database db;
  rel::Relation b("b", rel::Schema::FromNames({"k", "v"}));
  for (int64_t i = 0; i < kElements; ++i) {
    b.AppendUnchecked({rel::Value::Int(i), rel::Value::Int(i * 7)});
  }
  BRAID_CHECK_OK(db.AddTable(std::move(b)));
  dbms::RemoteDbms remote(std::move(db));
  cms::CmsConfig config;
  config.enable_parallel = false;
  cms::Cms cms(&remote, config);
  std::vector<caql::CaqlQuery> queries;
  for (int64_t i = 0; i < kElements; ++i) {
    queries.push_back(
        caql::ParseCaql(StrCat("q(Y) :- b(", i, ", Y)")).value());
    BRAID_CHECK_OK(cms.Query(queries.back()).status());
  }
  cms.tracer().Clear();
  int64_t i = 0;
  for (auto _ : state) {
    auto answer = cms.Query(queries[static_cast<size_t>(i % kElements)]);
    benchmark::DoNotOptimize(answer);
    if (++i % kTracerClearEvery == 0) {
      state.PauseTiming();
      cms.tracer().Clear();
      state.ResumeTiming();
    }
  }
  if (cms.metrics().exact_hits < static_cast<size_t>(i)) {
    state.SkipWithError("a timed query missed the cache");
  }
}
BENCHMARK(BM_ExactHit);

void BM_WarmAsk(benchmark::State& state) {
  workload::GenealogyParams params;
  params.people = 250;
  dbms::RemoteDbms remote(workload::MakeGenealogyDatabase(params));
  logic::KnowledgeBase kb;
  BRAID_CHECK_OK(logic::ParseProgram(workload::GenealogyKb(), &kb));
  cms::CmsConfig config;
  config.enable_parallel = false;
  cms::Cms cms(&remote, config);
  ie::InferenceEngine engine(&kb, &cms);
  std::vector<logic::Atom> goals;
  for (const char* rule : {"ancestor", "grandparent", "sibling", "greatgrand"}) {
    for (int person = 0; person < 250; person += 10) {
      goals.push_back(
          logic::ParseQueryAtom(StrCat(rule, "(", person, ", Y)")).value());
    }
  }
  // Whole passes until one installs nothing: from then on every Ask is
  // answered from the cache without a write.
  for (int pass = 0; pass < 4; ++pass) {
    const size_t before = cms.cache().stats().insertions.load();
    for (const logic::Atom& goal : goals) {
      BRAID_CHECK_OK(engine.Ask(goal).status());
    }
    if (cms.cache().stats().insertions.load() == before) break;
  }
  cms.tracer().Clear();
  const size_t inserts = cms.cache().stats().insertions.load();
  int64_t i = 0;
  for (auto _ : state) {
    auto outcome = engine.Ask(goals[static_cast<size_t>(i) % goals.size()]);
    benchmark::DoNotOptimize(outcome);
    if (++i % kTracerClearEvery == 0) {
      state.PauseTiming();
      cms.tracer().Clear();
      state.ResumeTiming();
    }
  }
  if (cms.cache().stats().insertions.load() != inserts) {
    state.SkipWithError("a timed Ask wrote to the cache");
  }
}
BENCHMARK(BM_WarmAsk);

/// C2's resident element: v_i(Y) :- b1(i, Y) with four rows. The
/// extension's name is fixed, so every element has the same byte size and
/// a budget of N elements holds exactly N.
cms::CacheElementPtr ScalingElement(std::string id, int64_t i) {
  auto ext =
      std::make_shared<rel::Relation>("v", rel::Schema::FromNames({"Y"}));
  for (int64_t row = 0; row < 4; ++row) {
    ext->AppendUnchecked({rel::Value::Int(row)});
  }
  return std::make_shared<cms::CacheElement>(
      std::move(id),
      caql::ParseCaql(StrCat("v_", i, "(Y) :- b1(", i, ", Y)")).value(), ext);
}

// C2: the first subsumption-candidate lookup after a write, at N resident
// elements. Each iteration registers one element, looks up the candidates
// of q(Y) :- b1(7, Y) and removes the element again.
void BM_CandidatesAfterWrite(benchmark::State& state) {
  const int64_t n = state.range(0);
  cms::CacheModel model;
  for (int64_t i = 0; i < n; ++i) {
    model.Register(ScalingElement(model.NextId(), i));
  }
  const cms::QueryDescriptor probe =
      cms::DescribeQuery(caql::ParseCaql("q(Y) :- b1(7, Y)").value());
  int64_t i = n;
  size_t candidates = 0;
  for (auto _ : state) {
    cms::CacheElementPtr e = ScalingElement(model.NextId(), i++);
    model.Register(e);
    std::vector<cms::CacheElementPtr> found =
        model.SubsumptionCandidates(probe);
    benchmark::DoNotOptimize(found);
    candidates = found.size();
    model.Remove(*e);
  }
  if (candidates != 1) state.SkipWithError("expected one candidate, v_7");
}
BENCHMARK(BM_CandidatesAfterWrite)->Arg(100)->Arg(1000)->Arg(4000)->Arg(16000);

// C2: an insert into a full cache, at N resident elements. The budget
// holds N elements, so each iteration's insert evicts exactly one.
void BM_EvictingInsert(benchmark::State& state) {
  const int64_t n = state.range(0);
  const size_t unit = ScalingElement("E0", 0)->ByteSize();
  cms::CacheManager mgr(static_cast<size_t>(n) * unit + unit / 2,
                        /*replacement_horizon=*/4);
  for (int64_t i = 0; i < n; ++i) {
    mgr.Insert(ScalingElement(mgr.model().NextId(), i));
    mgr.Tick();
  }
  if (mgr.model().size() != static_cast<size_t>(n)) {
    state.SkipWithError("the budget does not hold N elements");
  }
  int64_t i = n;
  for (auto _ : state) {
    bool inserted = mgr.Insert(ScalingElement(mgr.model().NextId(), i++));
    benchmark::DoNotOptimize(inserted);
    mgr.Tick();
  }
  if (mgr.stats().evictions.load() != static_cast<size_t>(i - n)) {
    state.SkipWithError("an insert did not evict exactly one element");
  }
}
BENCHMARK(BM_EvictingInsert)->Arg(100)->Arg(1000)->Arg(4000)->Arg(16000);

}  // namespace
}  // namespace braid

// BENCHMARK_MAIN, plus JSON output to BENCH_micro.json by default.
// `--json <path>` is translated to google-benchmark's --benchmark_out;
// an explicit --benchmark_out flag wins; `--json ""` disables the file.
int main(int argc, char** argv) {
  std::vector<std::string> args;
  std::string json_path = "BENCH_micro.json";
  bool explicit_out = false;
  for (int i = 0; i < argc; ++i) {
    if (i + 1 < argc && std::strcmp(argv[i], "--json") == 0) {
      json_path = argv[++i];
      continue;
    }
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0) {
      explicit_out = true;
    }
    args.emplace_back(argv[i]);
  }
  if (!explicit_out && !json_path.empty()) {
    args.push_back("--benchmark_out=" + json_path);
    args.push_back("--benchmark_out_format=json");
  }
  std::vector<char*> argv2;
  argv2.reserve(args.size());
  for (std::string& a : args) argv2.push_back(a.data());
  int argc2 = static_cast<int>(argv2.size());
  ::benchmark::Initialize(&argc2, argv2.data());
  if (::benchmark::ReportUnrecognizedArguments(argc2, argv2.data())) {
    return 1;
  }
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
