// braid_loadgen — open-loop load generator for the concurrent CMS
// (ROADMAP item 4; ISSUE 10 tentpole).
//
// Replays seeded sessions (src/testing workload generation — the same
// generator the differential harness uses) against one shared CMS at a
// configured Poisson or fixed arrival rate, WITHOUT waiting for
// completions: arrivals keep coming however far behind the system falls,
// so queueing delay shows up in the latency numbers instead of silently
// throttling the offered load the way a closed-loop driver does. Latency
// of each query is measured from its *scheduled arrival* to completion.
//
// Sweeps pool threads × cache budget × sessions × rate × admission
// {on, off} and emits BENCH_load.json (arrivals, completions, kOverloaded
// rejections, throughput, p50/p95/p99/p99.9 per measured phase, max queue
// depth, shed counters) as a CI artifact. Each cell runs a warmup phase at
// the same rate first (excluded from the quantiles), then the measured
// phase.
//
// The claim this tool defends (EXPERIMENTS.md L1): with the LoadController
// ON, foreground p99 stays within 3x of the low-rate p99 up to the
// saturation knee — speculation is shed first, then admission refuses
// cleanly — while OFF the queue grows without bound and p99 with it.
//
// Flags:
//   --rates R1,R2,...    arrival rates to sweep (qps; default sweep)
//   --threads T1,...     pool worker counts to sweep (default 8)
//   --budgets B1,...     cache budgets in bytes to sweep (default 256KiB)
//   --sessions S1,...    concurrent session counts to sweep (default 1000)
//   --arrivals N         measured arrivals per cell (default 2000)
//   --process poisson|fixed (default poisson)
//   --admission on|off|both (default both)
//   --seed S             workload + schedule seed (default 0)
//   --smoke              small per-PR CI preset (few hundred arrivals)
//   --json PATH          output path (default BENCH_load.json)

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "caql/caql_query.h"
#include "cms/cms.h"
#include "common/strings.h"
#include "dbms/remote_dbms.h"
#include "obs/metrics.h"
#include "testing/load_harness.h"
#include "testing/workload_gen.h"

namespace braid {
namespace {

struct Args {
  /// The lowest rate must sit below service capacity (~1.9k qps over the
  /// 2KiB-budget cell on 4 workers, at 32 or 1000 sessions alike) so the
  /// base p99 the knee is measured against reflects service time, not
  /// queueing.
  std::vector<double> rates = {100, 250, 500, 1000, 2000, 4000};
  std::vector<size_t> threads = {4};
  /// 2KiB keeps the cache under constant eviction pressure, so a steady
  /// share of queries pays the (real-sleeping) link — that sustained
  /// service cost is what makes the high end of the rate sweep saturate.
  /// The second budget holds the whole working set: the no-pressure
  /// control, where even the top rate stays far from the knee.
  std::vector<size_t> budgets = {2048, 256 * 1024};
  /// Open sessions per cell. Replacement advice costs the same at any
  /// count, so goodput must not fall as sessions are added (ROADMAP item
  /// 1); the smoke preset sweeps 32 and 1000 to show it.
  std::vector<size_t> sessions = {1000};
  size_t arrivals = 2000;
  testing::ArrivalProcess process = testing::ArrivalProcess::kPoisson;
  bool admission_on = true;
  bool admission_off = true;
  uint64_t seed = 0;
  std::string json = "BENCH_load.json";
};

std::vector<double> ParseDoubles(const char* text) {
  std::vector<double> out;
  std::string s(text);
  size_t pos = 0;
  while (pos < s.size()) {
    size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    out.push_back(std::strtod(s.substr(pos, comma - pos).c_str(), nullptr));
    pos = comma + 1;
  }
  return out;
}

std::vector<size_t> ParseSizes(const char* text) {
  std::vector<size_t> out;
  for (double v : ParseDoubles(text)) out.push_back(static_cast<size_t>(v));
  return out;
}

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--rates R,..] [--threads T,..] [--budgets B,..]\n"
               "          [--sessions S,..] [--arrivals N] [--process "
               "poisson|fixed]\n"
               "          [--admission on|off|both] [--seed S] [--smoke]\n"
               "          [--json PATH]\n",
               argv0);
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) Usage(argv[0]);
      return argv[++i];
    };
    if (flag == "--rates") {
      args.rates = ParseDoubles(next());
    } else if (flag == "--threads") {
      args.threads = ParseSizes(next());
    } else if (flag == "--budgets") {
      args.budgets = ParseSizes(next());
    } else if (flag == "--sessions") {
      args.sessions = ParseSizes(next());
    } else if (flag == "--arrivals") {
      args.arrivals = static_cast<size_t>(std::strtoull(next(), nullptr, 10));
    } else if (flag == "--process") {
      const std::string p = next();
      if (p == "poisson") {
        args.process = testing::ArrivalProcess::kPoisson;
      } else if (p == "fixed") {
        args.process = testing::ArrivalProcess::kFixed;
      } else {
        Usage(argv[0]);
      }
    } else if (flag == "--admission") {
      const std::string a = next();
      args.admission_on = (a == "on" || a == "both");
      args.admission_off = (a == "off" || a == "both");
      if (!args.admission_on && !args.admission_off) Usage(argv[0]);
    } else if (flag == "--seed") {
      args.seed = std::strtoull(next(), nullptr, 10);
    } else if (flag == "--smoke") {
      // Per-PR CI preset: seconds, not minutes, and still past the knee.
      args.rates = {500, 4000};
      args.threads = {4};
      args.budgets = {2048};
      args.sessions = {32, 1000};
      args.arrivals = 300;
    } else if (flag == "--json") {
      args.json = next();
    } else {
      Usage(argv[0]);
    }
  }
  return args;
}

struct CellResult {
  testing::ReplayStats measured;
  double p50 = 0, p95 = 0, p99 = 0, p999 = 0;
  double qps = 0;
  uint64_t shed_prefetch = 0;
  uint64_t shed_generalize = 0;
  uint64_t shed_intermediate = 0;
  uint64_t rejected_counter = 0;
};

/// One sweep cell: fresh CMS + sessions, warmup replay, measured replay.
CellResult RunCell(const Args& args, const testing::GeneratedWorkload& wl,
                   double rate, size_t threads, size_t budget,
                   size_t num_sessions, bool admission) {
  dbms::NetworkModel net;
  net.msg_latency_ms = 5;
  net.wall_clock_scale = 0.2;  // remote fetches consume real worker time
  dbms::RemoteDbms remote(wl.database, net, dbms::DbmsCostModel{});

  cms::CmsConfig config;
  config.cache_budget_bytes = budget;
  config.num_threads = threads;
  config.enable_load_control = admission;
  // Production-shaped thresholds relative to the pool, not the offered
  // load: shed speculation once a pool's worth of queries is waiting;
  // refuse admission once the backlog reaches 8 queries per worker —
  // past that point added queue depth adds only latency, never goodput,
  // so bounding it is what keeps the admitted p99 near the knee value.
  config.shed_queue_depth = threads;
  config.admission_queue_bound = 8 * threads;
  cms::Cms cms(&remote, config);

  std::vector<testing::ReplaySession> sessions(num_sessions);
  for (size_t s = 0; s < num_sessions; ++s) {
    sessions[s].session = cms.OpenSession(wl.advice);
    // Rotate the shared stream so concurrent sessions hit overlapping but
    // differently-ordered queries (same scheme as the difftest's
    // session mode).
    sessions[s].queries.reserve(wl.queries.size());
    for (size_t q = 0; q < wl.queries.size(); ++q) {
      sessions[s].queries.push_back(
          wl.queries[(q + s) % wl.queries.size()]);
    }
  }

  // Warmup phase: same rate, a quarter of the measured arrivals; fills
  // the cache and primes the latency EWMA. Excluded from the quantiles.
  testing::ArrivalParams warm_params;
  warm_params.process = args.process;
  warm_params.rate_qps = rate;
  warm_params.count = args.arrivals / 4;
  warm_params.seed = args.seed ^ 0x9e3779b97f4a7c15ull;
  testing::OpenLoopOptions warm_opts;
  warm_opts.arrivals_ms = testing::GenerateArrivals(warm_params);
  (void)testing::ReplayOpenLoop(cms, sessions, warm_opts);

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  const uint64_t shed_p0 = reg.CounterValue("load.shed_prefetch");
  const uint64_t shed_g0 = reg.CounterValue("load.shed_generalize");
  const uint64_t shed_i0 = reg.CounterValue("load.shed_intermediate");
  const uint64_t rej0 = reg.CounterValue("load.rejected_sessions");

  testing::ArrivalParams params;
  params.process = args.process;
  params.rate_qps = rate;
  params.count = args.arrivals;
  params.seed = args.seed;
  testing::OpenLoopOptions opts;
  opts.arrivals_ms = testing::GenerateArrivals(params);

  CellResult cell;
  cell.measured = testing::ReplayOpenLoop(cms, sessions, opts);
  cell.p50 = benchutil::P50(cell.measured.latencies_ms);
  cell.p95 = benchutil::P95(cell.measured.latencies_ms);
  cell.p99 = benchutil::P99(cell.measured.latencies_ms);
  cell.p999 = benchutil::P999(cell.measured.latencies_ms);
  cell.qps = cell.measured.wall_ms > 0
                 ? static_cast<double>(cell.measured.completed) /
                       (cell.measured.wall_ms / 1000.0)
                 : 0;
  cell.shed_prefetch = reg.CounterValue("load.shed_prefetch") - shed_p0;
  cell.shed_generalize = reg.CounterValue("load.shed_generalize") - shed_g0;
  cell.shed_intermediate =
      reg.CounterValue("load.shed_intermediate") - shed_i0;
  cell.rejected_counter = reg.CounterValue("load.rejected_sessions") - rej0;

  if (cell.measured.failed > 0) {
    std::fprintf(stderr, "braid_loadgen: %zu queries FAILED (rate=%g)\n",
                 cell.measured.failed, rate);
    std::exit(1);
  }
  if (cell.rejected_counter != cell.measured.rejected) {
    std::fprintf(stderr,
                 "braid_loadgen: rejection counter %llu != observed "
                 "kOverloaded futures %zu\n",
                 static_cast<unsigned long long>(cell.rejected_counter),
                 cell.measured.rejected);
    std::exit(1);
  }
  for (testing::ReplaySession& s : sessions) cms.CloseSession(s.session);
  return cell;
}

}  // namespace
}  // namespace braid

int main(int argc, char** argv) {
  using braid::testing::ArrivalProcess;
  braid::Args args = braid::Parse(argc, argv);

  braid::testing::WorkloadParams wp;
  wp.seed = args.seed;
  wp.num_queries = 24;
  const braid::testing::GeneratedWorkload wl =
      braid::testing::GenerateWorkload(wp);

  braid::benchutil::Table table(
      braid::StrCat(
          "Open-loop load sweep — ", args.arrivals, " arrivals/cell, ",
          args.process == ArrivalProcess::kPoisson ? "poisson" : "fixed",
          " arrivals, 5ms link at 0.2 wall-clock scale; latency is "
          "scheduled-arrival to completion (ms)"),
      {"rate_qps", "threads", "budget", "sessions", "admission", "arrivals",
       "completed", "rejected", "qps", "p50_ms", "p95_ms", "p99_ms",
       "p999_ms", "max_queue", "shed_prefetch", "shed_generalize",
       "shed_intermediate"});

  // Knee detection over the admission-ON rows of the first threads ×
  // budget × sessions combination: the knee is the last swept rate whose
  // p99 is still within 3x of the lowest rate's p99 (EXPERIMENTS.md L1).
  double base_p99_on = -1;
  double knee_rate = -1;
  bool past_knee = false;

  for (size_t threads : args.threads) {
    for (size_t budget : args.budgets) {
      for (size_t sessions : args.sessions) {
        const bool knee_row = threads == args.threads.front() &&
                              budget == args.budgets.front() &&
                              sessions == args.sessions.front();
        for (double rate : args.rates) {
          for (int admission = 1; admission >= 0; --admission) {
            if (admission == 1 && !args.admission_on) continue;
            if (admission == 0 && !args.admission_off) continue;
            const braid::CellResult cell = braid::RunCell(
                args, wl, rate, threads, budget, sessions, admission == 1);
            table.AddRow(rate, threads, budget, sessions,
                         admission ? "on" : "off", cell.measured.issued,
                         cell.measured.completed, cell.measured.rejected,
                         cell.qps, cell.p50, cell.p95, cell.p99, cell.p999,
                         cell.measured.max_queue_depth, cell.shed_prefetch,
                         cell.shed_generalize, cell.shed_intermediate);
            if (admission == 1 && knee_row) {
              if (base_p99_on < 0) base_p99_on = cell.p99;
              if (!past_knee && base_p99_on > 0 &&
                  cell.p99 <= 3.0 * base_p99_on) {
                knee_rate = rate;
              } else {
                past_knee = true;
              }
            }
          }
        }
      }
    }
  }

  table.Print();
  if (base_p99_on >= 0) {
    std::printf(
        "\nadmission-ON saturation knee: p99 within 3x of the low-rate p99 "
        "(%.2f ms) up to %.0f qps\n",
        base_p99_on, knee_rate);
  }
  table.WriteJson(
      braid::benchutil::JsonPathFromArgs(argc, argv, args.json));
  std::printf("\n-- obs registry after final cell --\n%s\n",
              braid::obs::MetricsRegistry::Global().ToJson().c_str());
  return 0;
}
