// bench_sessions — multi-session scaling of the concurrent CMS: aggregate
// QPS and per-query latency (p50/p95) against one shared warm cache, for
// 1/2/4/8 concurrent IE sessions.
//
// Each session interleaves two kinds of queries per iteration:
//  * a warm query answered exactly from a shared cached element — the
//    striped cache's exact probe (one hash lookup under the stripe lock)
//    under concurrent lookups;
//  * a cold query with a session-and-iteration-unique constant, forcing a
//    remote fetch. The simulated link sleeps for real (wall_clock_scale),
//    so with N sessions the link latencies overlap on the pool and
//    aggregate QPS scales with N even on one core — the same
//    latency-hiding argument as prefetching (paper §4.2.2), applied
//    across sessions instead of within one.
//
// Sessions go through the session scheduler (QueryAsync) with one
// outstanding query each — the closed-loop replay core shared with
// tools/braid_loadgen (src/testing/load_harness.h); installs and
// evictions race for real. The speedup column at 8 sessions is the
// ROADMAP-1 acceptance number (>= 3x over 1 session).
//
// `--json <path>` (default BENCH_sessions.json) dumps the table; the obs
// registry (cache.lock_wait_ms, cache.stripe_contention, sessions.*) is
// printed afterwards so lock behavior ships with the bench output.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "caql/caql_query.h"
#include "cms/cms.h"
#include "common/strings.h"
#include "obs/metrics.h"
#include "testing/load_harness.h"
#include "workload/generators.h"

namespace braid {
namespace {

constexpr size_t kIterations = 30;  // per session; 2 queries per iteration

caql::CaqlQuery Parse(const std::string& text) {
  auto q = caql::ParseCaql(text);
  if (!q.ok()) {
    std::fprintf(stderr, "bench_sessions parse failed: %s\n",
                 q.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(q.value());
}

struct RunResult {
  double wall_ms = 0;
  double qps = 0;
  double p50_ms = 0;
  double p95_ms = 0;
  size_t queries = 0;
  size_t exact_hits = 0;
  size_t remote_queries = 0;
};

RunResult Run(size_t num_sessions) {
  workload::GenealogyParams params;
  params.people = 600;
  dbms::NetworkModel net;
  net.msg_latency_ms = 10;
  net.wall_clock_scale = 0.25;  // every remote fetch sleeps ~3ms for real
  dbms::RemoteDbms remote(workload::MakeGenealogyDatabase(params), net,
                          dbms::DbmsCostModel{});

  cms::CmsConfig config;
  config.enable_advice = false;  // isolate the session-scaling effect
  config.enable_prefetch = false;
  config.enable_generalization = false;
  config.num_threads = 8;  // constant across rows; workers sleep on the link
  cms::Cms cms(&remote, config);

  // Warm the shared cache: the full parent relation, which every
  // session's warm query then answers exactly.
  const caql::CaqlQuery warm = Parse("warm(X, Y) :- parent(X, Y)");
  if (auto a = cms.Query(warm); !a.ok()) {
    std::fprintf(stderr, "bench_sessions warm-up failed: %s\n",
                 a.status().ToString().c_str());
    std::exit(1);
  }
  const size_t warm_remote = remote.stats().queries;

  // Each session replays {warm, cold} pairs: the cold query of each
  // (session, iteration) binds a distinct constant over `person` — a
  // relation the warm `parent` element cannot subsume — so every one pays
  // one real (scaled) link sleep.
  std::vector<testing::ReplaySession> sessions(num_sessions);
  for (size_t s = 0; s < num_sessions; ++s) {
    sessions[s].session = cms.OpenSession();
    sessions[s].queries.reserve(2 * kIterations);
    for (size_t i = 0; i < kIterations; ++i) {
      const size_t id = s * kIterations + i;
      sessions[s].queries.push_back(warm);
      sessions[s].queries.push_back(Parse(StrCat(
          "cold", s, "_", i, "(A, C) :- person(", id, ", A, C)")));
    }
  }

  const testing::ReplayStats stats = testing::ReplayClosedLoop(cms, sessions);
  if (stats.failed > 0 || stats.rejected > 0) {
    std::fprintf(stderr, "bench_sessions: %zu failed, %zu rejected queries\n",
                 stats.failed, stats.rejected);
    std::exit(1);
  }

  RunResult result;
  result.wall_ms = stats.wall_ms;
  result.queries = stats.completed;
  for (const testing::ReplaySession& s : sessions) {
    result.exact_hits += s.session->metrics().exact_hits;
  }
  result.qps = static_cast<double>(result.queries) / (stats.wall_ms / 1000.0);
  result.p50_ms = benchutil::P50(stats.latencies_ms);
  result.p95_ms = benchutil::P95(stats.latencies_ms);
  result.remote_queries = remote.stats().queries - warm_remote;

  cms.DrainSessions();
  for (testing::ReplaySession& s : sessions) cms.CloseSession(s.session);
  return result;
}

}  // namespace
}  // namespace braid

int main(int argc, char** argv) {
  braid::benchutil::Table table(
      "Sessions: N concurrent IE sessions over one shared CMS — 30 "
      "iterations each of {warm exact hit, cold remote fetch}, 10ms link "
      "at 0.25 wall-clock scale, 8 pool workers",
      {"sessions", "queries", "wall_ms", "qps", "speedup", "p50_ms",
       "p95_ms", "exact_hits", "remote_queries"});
  double base_qps = 0;
  double speedup_at_8 = 0;
  for (size_t n : {1, 2, 4, 8}) {
    auto r = braid::Run(n);
    if (n == 1) base_qps = r.qps;
    const double speedup = base_qps > 0 ? r.qps / base_qps : 0;
    if (n == 8) speedup_at_8 = speedup;
    table.AddRow(n, r.queries, r.wall_ms, r.qps, speedup, r.p50_ms,
                 r.p95_ms, r.exact_hits, r.remote_queries);
  }
  table.Print();
  table.WriteJson(braid::benchutil::JsonPathFromArgs(argc, argv,
                                                     "BENCH_sessions.json"));
  std::printf("\n-- obs registry after final run --\n%s\n",
              braid::obs::MetricsRegistry::Global().ToJson().c_str());
  if (speedup_at_8 < 3.0) {
    std::fprintf(stderr,
                 "WARN: 8-session speedup %.2fx below the 3x target\n",
                 speedup_at_8);
  }
  return 0;
}
