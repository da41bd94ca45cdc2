#include "testing/diff_runner.h"

#include <algorithm>
#include <future>
#include <memory>
#include <optional>
#include <utility>

#include "cms/cms.h"
#include "common/strings.h"
#include "relational/value.h"
#include "testing/load_harness.h"
#include "testing/reference_eval.h"

namespace braid::testing {

namespace {

using caql::CaqlQuery;
using cms::CacheOutcome;
using cms::Cms;
using cms::CmsAnswer;
using cms::CmsConfig;
using rel::Relation;
using rel::Tuple;
using rel::Value;

CmsConfig MakeConfig(const DiffOptions& opts) {
  CmsConfig config;
  config.cache_budget_bytes = opts.cache_budget_bytes;
  config.enable_caching = opts.caching;
  config.enable_catalog = opts.catalog;
  config.enable_intermediates = opts.intermediates;
  config.enable_prefetch = opts.prefetch;
  config.prefetch_async = opts.prefetch_async;
  config.enable_parallel = opts.parallel;
  config.num_threads = opts.num_threads;
  config.parallel_threshold = opts.parallel_threshold;
  if (opts.open_loop) {
    // Tight on purpose: speculation sheds whenever anything is queued,
    // and the admission bound is low enough that the Poisson bursts draw
    // real kOverloaded refusals. The cell then proves both shed paths
    // leave answers untouched.
    config.enable_load_control = true;
    config.shed_queue_depth = 0;
    config.admission_queue_bound = 4;
  }
  return config;
}

/// Materializes a CMS answer (eager relation or lazy stream) into a
/// standalone relation.
Result<Relation> Materialize(const CmsAnswer& answer) {
  if (answer.relation != nullptr) return *answer.relation;
  if (answer.stream == nullptr) {
    return Status::Internal("CMS answer has neither relation nor stream");
  }
  Relation out("answer", answer.stream->schema());
  while (auto t = answer.stream->Next()) {
    out.AppendUnchecked(std::move(*t));
  }
  return out;
}

/// The deliberate-corruption hook: appends one out-of-domain poison tuple
/// to every materialized extension in the cache, bypassing the const
/// shield the way a real memory-safety bug would. Any later answer served
/// from a poisoned element gains a row the oracle does not have.
void CorruptCache(Cms* cms) {
  for (const auto& [id, element] : cms->cache().model().elements()) {
    if (!element->is_materialized()) continue;
    auto* extension =
        const_cast<Relation*>(element->extension().get());
    Tuple poison(extension->schema().size(), Value::Int(987654321));
    extension->AppendUnchecked(std::move(poison));
  }
}

struct StreamChecker {
  const DiffOptions& opts;
  const GeneratedWorkload& workload;
  const std::vector<Result<Relation>>& oracle;
  dbms::RemoteDbms* remote;
  Cms* cms;
  DiffReport* report;

  void Fail(size_t index, std::string kind, std::string outcome,
            std::string detail) {
    report->ok = false;
    report->failures.push_back(DiffFailure{
        index, workload.queries[index].ToString(), std::move(kind),
        std::move(outcome), std::move(detail)});
  }

  /// Checks one answered query against the oracle: status propagation,
  /// bag-equality, and the subsumption-containment invariant. Returns the
  /// outcome when the answer was well-formed (even if a check failed),
  /// nullopt on status failures and clean faults. Shared by the serial
  /// pass and the multi-session waves; thread-compatible (callers check
  /// from one thread).
  std::optional<CacheOutcome> CheckAnswer(size_t index, const char* pass_label,
                                          const Result<CmsAnswer>& got) {
    const Result<Relation>& want = oracle[index];
    if (!want.ok()) {
      Fail(index, "oracle", "", want.status().ToString());
      return std::nullopt;
    }
    ++report->queries_run;

    if (!got.ok()) {
      if (opts.faults && IsInjectedFault(got.status())) {
        ++report->queries_faulted;  // clean propagation — the contract
        return std::nullopt;
      }
      Fail(index, "status", "",
           StrCat(pass_label, ": ", got.status().ToString()));
      return std::nullopt;
    }
    const CmsAnswer& answer = got.value();
    const char* outcome = cms::CacheOutcomeName(answer.outcome);

    Result<Relation> materialized = Materialize(answer);
    if (!materialized.ok()) {
      Fail(index, "status", outcome,
           StrCat(pass_label, ": ", materialized.status().ToString()));
      return std::nullopt;
    }

    std::string diff;
    if (!BagEqual(want.value(), materialized.value(), &diff)) {
      Fail(index, "bag-mismatch", outcome,
           StrCat(pass_label, ": ", diff, "; oracle ",
                  want.value().NumTuples(), " rows, cms ",
                  materialized.value().NumTuples(), " rows"));
      return answer.outcome;
    }

    // Metamorphic invariant: answers derived from cached data via
    // subsumption must be contained in the oracle's bag. Bag-equality
    // already implies it; checking separately gives the sharper
    // "subsumption-unsound" failure kind if equality is ever relaxed.
    if (answer.outcome == CacheOutcome::kFullLocal ||
        answer.outcome == CacheOutcome::kPartial) {
      if (!BagContains(want.value(), materialized.value(), &diff)) {
        Fail(index, "invariant", outcome,
             StrCat(pass_label, ": subsumption-unsound: ", diff));
      }
    }
    if (answer.outcome == CacheOutcome::kExact) ++report->exact_hits;
    return answer.outcome;
  }

  /// The catalog/stripe agreement invariant (DESIGN.md §11): every cached
  /// element reachable through the catalog index via its own definition,
  /// no posting left pointing at an evicted id. Checked after every query
  /// of the serial pass and after every session wave, i.e. after each
  /// insert/eviction burst.
  void CheckCatalog(size_t index, const char* pass_label) {
    if (!opts.catalog) return;
    std::string problem = cms->cache().model().CheckCatalogConsistency();
    if (!problem.empty()) {
      Fail(index, "invariant", "",
           StrCat(pass_label, ": catalog/stripe disagreement: ", problem));
    }
  }

  /// The replacement-advice invariant (DESIGN.md §10): the advisor's
  /// min-over-sessions index agrees with every open session's own
  /// AdvisedDistance on each resident element. Checked wherever the
  /// catalog is, with every session quiescent.
  void CheckAdvice(size_t index, const char* pass_label) {
    std::string problem = cms->CheckReplacementAdvice();
    if (!problem.empty()) {
      Fail(index, "invariant", "",
           StrCat(pass_label, ": replacement-advice index disagrees: ",
                  problem));
    }
  }

  /// The byte-accounting invariant (DESIGN.md §10): the cache model's
  /// resident and derived byte totals equal a recount over every resident
  /// element's tuples, indexes and sorted copies.
  void CheckBytes(size_t index, const char* pass_label) {
    std::string problem = cms->cache().model().CheckByteAccounting();
    if (!problem.empty()) {
      Fail(index, "invariant", "",
           StrCat(pass_label, ": byte accounting disagrees with recount: ",
                  problem));
    }
  }

  /// Every cache invariant, at a point where no query is in flight.
  void CheckInvariants(size_t index, const char* pass_label) {
    CheckCatalog(index, pass_label);
    CheckAdvice(index, pass_label);
    CheckBytes(index, pass_label);
  }

  /// Runs one stream pass; `pass_label` distinguishes the first pass from
  /// the warm-cache recheck in failure details.
  void RunPass(const std::vector<size_t>& indices, const char* pass_label) {
    for (size_t index : indices) {
      const CaqlQuery& query = workload.queries[index];

      // Exact-hit invariant bookkeeping is only meaningful when nothing
      // can touch the remote counters concurrently.
      const bool quiescent = !opts.prefetch;
      const size_t remote_before = quiescent ? remote->stats().queries : 0;

      Result<CmsAnswer> got = cms->Query(query);
      std::optional<CacheOutcome> outcome = CheckAnswer(index, pass_label, got);

      // Metamorphic invariant: an exact cache hit answers from memory —
      // the cache changes fetch counts and cost, never answers, and an
      // exact hit needs no new remote queries at all.
      if (quiescent && outcome == CacheOutcome::kExact) {
        const size_t remote_after = remote->stats().queries;
        if (remote_after != remote_before) {
          Fail(index, "invariant", "exact",
               StrCat(pass_label, ": exact hit issued ",
                      remote_after - remote_before, " remote queries"));
        }
      }

      CheckInvariants(index, pass_label);

      if (opts.corrupt_after_query >= 0 &&
          index == static_cast<size_t>(opts.corrupt_after_query)) {
        cms->DrainPrefetches();  // poison everything that will land, too
        CorruptCache(cms);
      }
    }
  }

  /// Interleaved multi-session run: `opts.sessions` sessions share the
  /// CMS, session s replaying the stream rotated by s. Queries go through
  /// the session scheduler in waves (one query per session per wave) so
  /// installs, evictions, prefetch joins, and in-place stripe reads
  /// genuinely race; every answer is still bag-checked against the
  /// oracle. The quiescence-dependent remote-counter invariant does not
  /// apply.
  void RunSessions(const std::vector<size_t>& indices) {
    std::vector<cms::CmsSession*> sessions;
    for (size_t s = 0; s < opts.sessions; ++s) {
      sessions.push_back(cms->OpenSession(workload.advice));
    }
    const size_t n = indices.size();
    std::vector<std::pair<size_t, std::future<Result<CmsAnswer>>>> wave;
    for (size_t w = 0; w < n; ++w) {
      wave.clear();
      for (size_t s = 0; s < sessions.size(); ++s) {
        const size_t index = indices[(w + s) % n];
        wave.emplace_back(
            index, cms->QueryAsync(*sessions[s], workload.queries[index]));
      }
      bool corrupt_now = false;
      for (auto& [index, future] : wave) {
        CheckAnswer(index, "sessions", future.get());
        corrupt_now |= opts.corrupt_after_query >= 0 &&
                       index == static_cast<size_t>(opts.corrupt_after_query);
      }
      // Every wave ends with an insert/eviction burst behind it; the
      // cache invariants must hold at each such point.
      CheckInvariants(indices[w % n], "sessions");
      // The harness self-test hook, between waves so the poison lands at
      // a quiescent point and later waves must detect it.
      if (corrupt_now) {
        cms->DrainPrefetches();
        CorruptCache(cms);
      }
    }
    for (cms::CmsSession* s : sessions) cms->CloseSession(s);
  }

  /// Open-loop overload run: one shared Poisson arrival schedule at
  /// `opts.open_loop_rate` qps paced in real time, arrival i going to
  /// session i mod S with session s replaying the stream rotated by s.
  /// Arrivals are issued at their scheduled times whether or not earlier
  /// queries finished, so the scheduler queue genuinely builds and the
  /// tight MakeConfig policy sheds speculation and refuses admissions.
  /// Every completion is bag-checked; every kOverloaded refusal is
  /// retried synchronously after the drain — a refusal must be clean
  /// (nothing executed, nothing dropped), so the retry must agree with
  /// the oracle exactly like a first run would.
  void RunOpenLoop(const std::vector<size_t>& indices) {
    const size_t n = indices.size();
    if (n == 0) return;
    std::vector<cms::CmsSession*> sessions;
    const size_t num_sessions = std::max<size_t>(opts.sessions, 2);
    for (size_t s = 0; s < num_sessions; ++s) {
      sessions.push_back(cms->OpenSession(workload.advice));
    }

    ArrivalParams schedule;
    schedule.process = ArrivalProcess::kPoisson;
    schedule.rate_qps = opts.open_loop_rate;
    schedule.count = num_sessions * n;  // each session covers the stream
    schedule.seed = opts.seed + 1;      // decorrelate from the workload
    const std::vector<double> arrivals_ms = GenerateArrivals(schedule);

    struct Pending {
      size_t index;
      size_t session;
      std::future<Result<CmsAnswer>> future;
    };
    std::vector<Pending> pending;
    pending.reserve(arrivals_ms.size());
    std::vector<size_t> issued(num_sessions, 0);

    SteadyLoadClock clock;
    const double start_ms = clock.NowMs();
    for (size_t i = 0; i < arrivals_ms.size(); ++i) {
      clock.SleepUntilMs(start_ms + arrivals_ms[i]);
      const size_t s = i % num_sessions;
      const size_t index = indices[(issued[s]++ + s) % n];
      pending.push_back(Pending{
          index, s, cms->QueryAsync(*sessions[s], workload.queries[index])});
    }
    cms->DrainSessions();
    cms->DrainPrefetches();

    std::vector<std::pair<size_t, size_t>> refused;  // (index, session)
    for (Pending& p : pending) {
      Result<CmsAnswer> got = p.future.get();
      if (!got.ok() && got.status().code() == StatusCode::kOverloaded) {
        ++report->overload_rejections;
        refused.emplace_back(p.index, p.session);
        continue;
      }
      CheckAnswer(p.index, "open-loop", got);
    }
    CheckInvariants(indices[0], "open-loop");

    for (const auto& [index, s] : refused) {
      CheckAnswer(index, "open-loop-retry",
                  cms->Query(*sessions[s], workload.queries[index]));
    }
    CheckInvariants(indices[0], "open-loop-retry");

    for (cms::CmsSession* s : sessions) cms->CloseSession(s);
  }
};

}  // namespace

std::string DiffFailure::ToString() const {
  return StrCat("query #", query_index, " [", kind,
                outcome.empty() ? "" : StrCat(", outcome=", outcome),
                "]: ", detail, "\n  ", query);
}

std::string DiffReport::Summary() const {
  std::string out =
      StrCat("seed ", seed, ": ", ok ? "OK" : "FAIL", " — ", queries_run,
             " queries (", exact_hits, " exact hits, ", queries_faulted,
             " clean faults, ", overload_rejections, " overload rejections, ",
             remote_queries, " remote queries, ", evictions, " evictions)");
  for (const DiffFailure& f : failures) {
    out += "\n  " + f.ToString();
  }
  return out;
}

DiffReport RunDifferential(const DiffOptions& opts) {
  DiffReport report;
  report.seed = opts.seed;

  WorkloadParams params;
  params.seed = opts.seed;
  params.num_queries = opts.num_queries;
  GeneratedWorkload workload = GenerateWorkload(params);

  // Oracle answers, computed once straight over the base tables.
  std::vector<Result<Relation>> oracle;
  oracle.reserve(workload.queries.size());
  for (const CaqlQuery& q : workload.queries) {
    oracle.push_back(ReferenceEval(workload.database, q));
  }

  std::unique_ptr<dbms::RemoteDbms> remote;
  if (opts.faults) {
    FaultPlan plan = opts.fault_plan;
    if (plan.seed == 0) plan.seed = opts.seed;
    remote = std::make_unique<FaultyRemoteDbms>(workload.database, plan);
  } else if (opts.open_loop) {
    // A link that sleeps for real, so the arrival rate genuinely outruns
    // the service rate: the scheduler queue builds past the tight
    // admission bound and the kOverloaded refusal path draws real
    // coverage (cost modeling changes with the latency, answers cannot).
    dbms::NetworkModel net;
    net.msg_latency_ms = 5;
    net.wall_clock_scale = 1.0;
    remote = std::make_unique<dbms::RemoteDbms>(workload.database, net,
                                                dbms::DbmsCostModel{});
  } else {
    remote = std::make_unique<dbms::RemoteDbms>(workload.database);
  }

  Cms cms(remote.get(), MakeConfig(opts));
  cms.BeginSession(workload.advice);

  std::vector<size_t> indices = opts.keep;
  if (indices.empty()) {
    for (size_t i = 0; i < workload.queries.size(); ++i) indices.push_back(i);
  } else {
    indices.erase(std::remove_if(indices.begin(), indices.end(),
                                 [&](size_t i) {
                                   return i >= workload.queries.size();
                                 }),
                  indices.end());
  }

  StreamChecker checker{opts, workload, oracle, remote.get(), &cms, &report};
  if (opts.open_loop) {
    checker.RunOpenLoop(indices);
  } else if (opts.sessions > 1) {
    checker.RunSessions(indices);
    cms.DrainSessions();
    cms.DrainPrefetches();
  } else {
    checker.RunPass(indices, "pass1");

    // Settle the pipeline before reading cross-thread state.
    cms.DrainPrefetches();

    if (opts.recheck && !opts.faults) {
      checker.RunPass(indices, "recheck");
      cms.DrainPrefetches();
    }
  }

  report.remote_queries = remote->stats().queries;
  report.evictions = cms.cache().stats().evictions;
  return report;
}

std::vector<size_t> MinimizeFailure(const DiffOptions& opts) {
  DiffOptions work = opts;
  work.keep.clear();

  DiffReport full = RunDifferential(work);
  std::vector<size_t> kept;
  for (size_t i = 0; i < work.num_queries; ++i) kept.push_back(i);
  if (full.ok) return kept;  // nothing to minimize

  // Greedy backward elimination: drop one index at a time, keeping the
  // removal whenever the remaining stream still fails.
  bool shrunk = true;
  while (shrunk && kept.size() > 1) {
    shrunk = false;
    for (size_t drop = kept.size(); drop-- > 0;) {
      std::vector<size_t> candidate = kept;
      candidate.erase(candidate.begin() + static_cast<ptrdiff_t>(drop));
      work.keep = candidate;
      if (!RunDifferential(work).ok) {
        kept = std::move(candidate);
        shrunk = true;
      }
    }
  }
  return kept;
}

std::string ReproCommand(const DiffOptions& opts) {
  std::string cmd =
      StrCat("braid_difftest --seed ", opts.seed, " --queries ",
             opts.num_queries, " --threads ", opts.num_threads, " --prefetch ",
             opts.prefetch ? (opts.prefetch_async ? "async" : "sync") : "off",
             " --faults ", opts.faults ? "on" : "off");
  cmd += StrCat(" --budget ", opts.cache_budget_bytes,
                " --parallel-threshold ", opts.parallel_threshold);
  if (opts.sessions > 1) cmd += StrCat(" --sessions ", opts.sessions);
  if (opts.open_loop) {
    cmd += StrCat(" --open-loop --rate ",
                  static_cast<size_t>(opts.open_loop_rate));
  }
  if (!opts.caching) cmd += " --no-cache";
  if (!opts.catalog) cmd += " --no-catalog";
  if (!opts.intermediates) cmd += " --no-intermediates";
  if (!opts.keep.empty()) {
    cmd += " --keep ";
    for (size_t i = 0; i < opts.keep.size(); ++i) {
      if (i > 0) cmd += ",";
      cmd += std::to_string(opts.keep[i]);
    }
  }
  return cmd;
}

DiffReport RunSeedMatrix(uint64_t seed, size_t num_queries, bool with_faults,
                         DiffOptions* failing, size_t cache_budget_bytes) {
  struct Cell {
    size_t threads;
    bool prefetch;
    bool prefetch_async;
    bool faults;
    bool catalog = true;
    bool intermediates = true;
    size_t parallel_threshold = DiffOptions{}.parallel_threshold;
  };
  std::vector<Cell> cells = {
      {1, false, false, false},
      {1, true, false, false},
      {1, true, true, false},
      {8, true, true, false},
      // Catalog off: the linear candidate scan must answer identically.
      {1, true, true, false, /*catalog=*/false},
      // Intermediates off: stage-result caching changes costs, never
      // answers — both sides equal the oracle, so on vs. off are
      // bag-equal on every query of the stream.
      {1, true, true, false, /*catalog=*/true, /*intermediates=*/false},
      // The CMS's own parallel threshold: every generated relation is
      // below it, so the serial rel:: kernels run, as they do in
      // production on inputs under the threshold.
      {8, true, true, false, /*catalog=*/true, /*intermediates=*/true,
       /*parallel_threshold=*/cms::CmsConfig{}.parallel_threshold},
  };
  if (with_faults) {
    cells.push_back({1, true, true, true});
    cells.push_back({8, true, true, true});
  }

  DiffReport last;
  for (const Cell& cell : cells) {
    DiffOptions opts;
    opts.seed = seed;
    opts.num_queries = num_queries;
    opts.cache_budget_bytes = cache_budget_bytes;
    opts.num_threads = cell.threads;
    opts.prefetch = cell.prefetch;
    opts.prefetch_async = cell.prefetch_async;
    opts.faults = cell.faults;
    opts.catalog = cell.catalog;
    opts.intermediates = cell.intermediates;
    opts.parallel_threshold = cell.parallel_threshold;
    if (cell.faults) {
      opts.fault_plan.error_rate = 0.15;
      opts.fault_plan.delay_rate = 0.2;
      opts.fault_plan.delay_ms = 1.0;
      opts.fault_plan.warmup_calls = 2;
    }
    last = RunDifferential(opts);
    if (!last.ok) {
      if (failing != nullptr) *failing = opts;
      return last;
    }
  }
  return last;
}

}  // namespace braid::testing
