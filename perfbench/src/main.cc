// braid_perfbench — the repository's benchmark. One closed loop: a single
// client thread calls the public API synchronously (InferenceEngine::Ask or
// Cms::Query on an opened session) against a CMS with a 3-worker pool and a
// modeled remote link (no op sleeps). See perfbench/README.md.
//
//   braid_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--trace-out <file>]
//
// Untraced runs report the end-to-end metrics; traced runs fold the CMS span
// tree after every op and report the per-layer metrics. The last line of
// stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/strings.h"
#include "layers.h"
#include "obs/metrics.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;

/// The timed phase is cut into blocks of a kBlocks-th of its op time, and
/// throughput, CPU per op and the median op latency are taken over the ops
/// of the third of the blocks with the lowest throughput; a run that needs
/// more op time to reach its count window has more blocks. On a shared host
/// other tenants slow this process by up to half, in spells of seconds to
/// minutes; how much of a run they leave fast changes from run to run, while
/// the speed of the slowed spells repeats (see perfbench/README.md). The p99
/// is taken over every timed op: it rests on the rarest, heaviest ops, and
/// the slowest blocks are partly the ones that drew more of them.
constexpr int kBlocks = 30;

/// Ops [begin, end) of the timed stream and the op and system CPU time they
/// took.
struct Block {
  uint64_t begin = 0;
  uint64_t end = 0;
  double op_ms = 0;
  double cpu_ms = 0;

  double ops_per_s() const {
    return static_cast<double>(end - begin) / (op_ms / 1e3);
  }
};

/// Times the client thread moves per timed phase (see CpuRotation).
constexpr int kCpuMoves = 10;

/// Runs each tenth of the timed phase on the next CPU the process may use,
/// round robin. On a VM each vCPU shares a host core with other tenants,
/// and how much they slow it differs from vCPU to vCPU and changes over
/// seconds to minutes (two `ie_genealogy` runs at once on two vCPUs had
/// uncorrelated per-second throughput), so a run kept on one vCPU measures
/// that vCPU's neighbours. Moving every few seconds, not more often, keeps
/// the cost of a move (caches refilled on the new core, an idle vCPU woken)
/// out of the measurement: moving every 200 ops made `ie_genealogy` 10-30%
/// slower. Pool threads are created during set-up, before the first move,
/// and keep the whole CPU set.
class CpuRotation {
 public:
  explicit CpuRotation(double period_ms) : period_ms_(period_ms) {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus_.push_back(c);
    }
  }

  /// Called between ops with the op time so far; moves the calling thread
  /// whenever that enters a new period.
  void Tick(double op_ms) {
    if (cpus_.size() < 2 || op_ms < next_ms_) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
    next_ms_ = (std::floor(op_ms / period_ms_) + 1) * period_ms_;
  }

 private:
  const double period_ms_;
  std::vector<int> cpus_;
  size_t next_ = 0;
  double next_ms_ = 0;
};

double CpuMs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Nearest-rank quantile of a sorted sample.
double Quantile(const std::vector<double>& sorted, double q) {
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size() - 1, rank == 0 ? 0 : rank - 1)];
}

/// Every count the benchmark reads, at one instant between ops.
struct Counts {
  std::map<std::string, uint64_t> registry;
  braid::cms::CmsMetrics cms;
  braid::dbms::RemoteStats remote;
  uint64_t link_calls = 0;
  int64_t link_ns = 0;
  uint64_t caql_queries = 0;
  uint64_t spans = 0;  // CMS spans recorded (traced runs)
};

const char* const kRegistryCounters[] = {
    "cache.insertions",        "cache.evictions",
    "cache.advisor_calls",     "subsumption.searches",
    "subsumption.matches",     "intermediate.admitted",
    "intermediate.hits",       "prefetch.issued",
    "prefetch.wasted",         "advice.tracker.advances",
    "advice.tracker.mispredictions", "remote.queries",
    "exec.pool.tasks_submitted",     "exec.pool.morsels_executed",
};

Counts Read(Workload& w, uint64_t spans) {
  Counts c;
  const braid::obs::MetricsRegistry& reg =
      braid::obs::MetricsRegistry::Global();
  for (const char* name : kRegistryCounters) {
    c.registry[name] = reg.CounterValue(name);
  }
  c.cms = w.SessionTotals();
  c.remote = w.remote().stats();
  c.link_calls = w.remote().calls();
  c.link_ns = w.remote().execute_ns();
  c.caql_queries = w.caql_queries();
  c.spans = spans;
  return c;
}

/// Per-op deltas of a count window [a, b] of `ops` ops.
struct Window {
  const Counts& a;
  const Counts& b;
  double ops;

  double Reg(const char* name) const {
    return static_cast<double>(b.registry.at(name) - a.registry.at(name));
  }
  double PerOp(double delta) const { return delta / ops; }
  double RegPerOp(const char* name) const { return Reg(name) / ops; }
  double Session(size_t braid::cms::CmsMetrics::*field) const {
    return static_cast<double>(b.cms.*field - a.cms.*field);
  }
  double ModeledMsPerOp() const {
    return (b.cms.response_ms - a.cms.response_ms) / ops;
  }
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// CMS span names reported as layers; the root's self time is `install`.
constexpr const char* kPhases[] = {"advice",   "exact_probe", "generalize",
                                   "plan",     "subsumption", "prep",
                                   "fetch",    "assembly",    "admission",
                                   "query"};
constexpr size_t kNumPhases = std::size(kPhases);
using PhaseMs = std::array<double, kNumPhases>;

const char* LayerName(size_t phase) {
  return std::string_view(kPhases[phase]) == "query" ? "install"
                                                     : kPhases[phase];
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1" ? 1 : value == "0" ? 0 : -1;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0 &&
         args->trace >= 0;
}

void PrintMetric(bool* first, const char* name, double value,
                 const char* unit) {
  std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
              *first ? "" : ", ", name, value, unit);
  *first = false;
}

int Run(const Args& args) {
  std::unique_ptr<Workload> w = MakeWorkload(args.workload, args.seed);
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const bool traced = args.trace == 1;
  w->Prepare();

  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    if (i > 0) w->Teardown();
    const int64_t start = NowNs();
    w->Setup();
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }
  std::string why;
  bool correct = w->CheckSetup(&why);
  if (!correct) std::printf("setup check failed: %s\n", why.c_str());

  braid::cms::Cms& cms = w->cms();
  SpanLog span_log;
  std::atomic<uint64_t> current_op{0};
  if (traced) {
    w->remote().AttachSpanLog(&span_log, &current_op);
    cms.tracer().Clear();  // warm-up spans; per-op folding starts empty
  }
  // Outside timing: cache size walks never run inside the timed loop.
  const size_t elements_start = cms.cache().model().size();
  const size_t bytes_start = cms.cache().model().TotalBytes();

  const uint64_t window = w->count_window();
  std::vector<Counts> marks;  // at 0, K/4, K/2, 3K/4, K ops
  marks.push_back(Read(*w, 0));
  const Counts phase_start = marks.front();

  std::vector<double> lat_ms;
  std::vector<PhaseMs> phase_ms;        // per traced op
  std::map<std::string, double> self_ms;  // by span name, all traced ops
  double post_root_ms = 0;
  uint64_t spans = 0;
  uint64_t ok = 0;
  double peak_rss_mb = 0;
  double op_cpu_ms = 0;
  double timed_ms = 0;
  const double budget_ms = args.seconds * 1e3;
  const double proc_cpu0 = CpuMs(CLOCK_PROCESS_CPUTIME_ID);
  const double client_cpu0 = CpuMs(CLOCK_THREAD_CPUTIME_ID);
  // CPU of the system during the ops so far: the client thread's own CPU
  // inside the op brackets plus every other thread's. Its CPU outside the
  // brackets (answer checks, folding) is the benchmark's.
  auto system_cpu_ms = [&] {
    return op_cpu_ms + (CpuMs(CLOCK_PROCESS_CPUTIME_ID) - proc_cpu0) -
           (CpuMs(CLOCK_THREAD_CPUTIME_ID) - client_cpu0);
  };
  const double block_ms = budget_ms / kBlocks;
  std::vector<Block> blocks;
  Block open;  // the open block's first op and the running times at its start
  auto close_block = [&](uint64_t ops_done) {
    const double cpu = system_cpu_ms();
    blocks.push_back(Block{open.begin, ops_done, timed_ms - open.op_ms,
                           cpu - open.cpu_ms});
    open = Block{ops_done, ops_done, timed_ms, cpu};
  };
  CpuRotation rotation(budget_ms / kCpuMoves);
  uint64_t i = 0;
  for (; timed_ms < budget_ms || i < window; ++i) {
    rotation.Tick(timed_ms);
    const uint64_t op_span = traced ? span_log.Open("op") : 0;
    current_op.store(op_span, std::memory_order_relaxed);
    OpClock clock;
    const double cpu0 = CpuMs(CLOCK_THREAD_CPUTIME_ID);
    if (w->RunOp(i, &clock)) ++ok;
    const double cpu1 = CpuMs(CLOCK_THREAD_CPUTIME_ID);
    const double op_ms = static_cast<double>(clock.end_ns - clock.begin_ns) / 1e6;
    lat_ms.push_back(op_ms);
    timed_ms += op_ms;
    op_cpu_ms += cpu1 - cpu0;
    if (traced) {
      span_log.Close(op_span, clock.begin_ns, clock.end_ns);
      // Background prefetches record spans from pool threads; let them
      // finish so no span is open when the tracer is cleared.
      while (cms.prefetches_in_flight() > 0) std::this_thread::yield();
      const std::vector<braid::obs::Span> snapshot = cms.tracer().Snapshot();
      cms.tracer().Clear();
      spans += snapshot.size();
      CmsFold op_fold;
      FoldQueryTrees(snapshot, &op_fold);
      PhaseMs op_phases{};
      for (size_t p = 0; p < kNumPhases; ++p) {
        auto it = op_fold.self_ms.find(kPhases[p]);
        if (it != op_fold.self_ms.end()) op_phases[p] = it->second;
      }
      phase_ms.push_back(op_phases);
      for (const auto& [name, ms] : op_fold.self_ms) self_ms[name] += ms;
      if (w->single_query_ops()) post_root_ms += op_ms - op_fold.root_ms;
    }
    const uint64_t done = i + 1;
    if (done <= window && done % (window / 4) == 0) {
      marks.push_back(Read(*w, spans));
    }
    // The tracer keeps every span, so memory grows with the ops run; read
    // at a fixed op count it does not depend on how fast the machine ran.
    if (done == window) peak_rss_mb = PeakRssMb();
    if (timed_ms - open.op_ms >= block_ms) close_block(done);
  }
  const uint64_t n = i;
  if (timed_ms - open.op_ms >= block_ms / 2) close_block(n);

  // The slowest third of the blocks, and the latencies of their ops.
  std::vector<Block> slow = blocks;
  std::sort(slow.begin(), slow.end(), [](const Block& a, const Block& b) {
    return a.ops_per_s() < b.ops_per_s();
  });
  slow.resize(std::max<size_t>(1, slow.size() / 3));
  double slow_op_ms = 0;
  double slow_cpu_ms = 0;
  std::vector<double> slow_lat_ms;
  for (const Block& b : slow) {
    slow_op_ms += b.op_ms;
    slow_cpu_ms += b.cpu_ms;
    slow_lat_ms.insert(slow_lat_ms.end(), lat_ms.begin() + b.begin,
                       lat_ms.begin() + b.end);
  }
  std::sort(slow_lat_ms.begin(), slow_lat_ms.end());
  const double slow_ops = static_cast<double>(slow_lat_ms.size());
  const Counts phase_end = Read(*w, spans);
  const size_t elements_end = cms.cache().model().size();
  const size_t bytes_end = cms.cache().model().TotalBytes();

  // The link decorator, the remote's own statistics and the registry must
  // agree on the number of remote calls.
  const uint64_t link_calls = phase_end.link_calls - phase_start.link_calls;
  const uint64_t stats_calls =
      phase_end.remote.queries - phase_start.remote.queries;
  const uint64_t reg_calls = phase_end.registry.at("remote.queries") -
                             phase_start.registry.at("remote.queries");
  if (link_calls != stats_calls || link_calls != reg_calls) {
    correct = false;
    std::printf("link cross-check failed: decorator=%llu stats=%llu "
                "registry=%llu\n",
                static_cast<unsigned long long>(link_calls),
                static_cast<unsigned long long>(stats_calls),
                static_cast<unsigned long long>(reg_calls));
  }
  const uint64_t failed = n - ok;
  if (failed > 0) correct = false;

  // Stationarity report: op time by quarter of the timed phase, modeled
  // cost by quarter of the count window, cache size at both ends.
  auto quarter_mean = [&lat_ms](size_t q) {
    const size_t lo = lat_ms.size() * q / 4;
    const size_t hi = lat_ms.size() * (q + 1) / 4;
    double sum = 0;
    for (size_t k = lo; k < hi; ++k) sum += lat_ms[k];
    return hi > lo ? sum / static_cast<double>(hi - lo) : 0;
  };
  std::printf("stationarity %s seed=%llu: op_mean_ms q1=%.4f q4=%.4f | "
              "modeled_ms_per_op by quarter:",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), quarter_mean(0),
              quarter_mean(3));
  for (size_t q = 1; q < marks.size(); ++q) {
    std::printf(" %.6f",
                Window{marks[q - 1], marks[q],
                       static_cast<double>(window) / 4}.ModeledMsPerOp());
  }
  std::printf(" | cache elements %zu -> %zu, bytes %zu -> %zu | ops=%llu\n",
              elements_start, elements_end, bytes_start, bytes_end,
              static_cast<unsigned long long>(n));
  std::printf("stationarity %s ops_per_s by block:", args.workload.c_str());
  for (const Block& b : blocks) std::printf(" %.1f", b.ops_per_s());
  std::printf(" | slowest %zu blocks: %.0f ops\n", slow.size(), slow_ops);

  const Window win{marks.front(), marks.back(), static_cast<double>(window)};
  std::vector<double> sorted = lat_ms;
  std::sort(sorted.begin(), sorted.end());
  const double mean_ms = timed_ms / static_cast<double>(n);

  if (traced) {
    // Untraced continuation of the same stream: the tracing overhead.
    w->remote().AttachSpanLog(nullptr, nullptr);
    double plain_ms = 0;
    uint64_t plain_n = 0;
    for (; plain_n < n && plain_ms < budget_ms / 4; ++plain_n) {
      rotation.Tick(timed_ms + plain_ms);
      OpClock clock;
      w->RunOp(n + plain_n, &clock);
      plain_ms += static_cast<double>(clock.end_ns - clock.begin_ns) / 1e6;
    }
    const double overhead_pct =
        (mean_ms / (plain_ms / static_cast<double>(plain_n)) - 1) * 100;
    if (!args.trace_out.empty() && !span_log.WriteJson(args.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.trace_out.c_str());
    }

    // Where a drift between the first and last quarter sits, by layer.
    std::printf("stationarity %s layers ms/op q1 -> q4:", args.workload.c_str());
    for (size_t p = 0; p < kNumPhases; ++p) {
      double first = 0;
      double last = 0;
      const size_t quarter = phase_ms.size() / 4;
      for (size_t k = 0; k < quarter; ++k) {
        first += phase_ms[k][p];
        last += phase_ms[phase_ms.size() - 1 - k][p];
      }
      std::printf(" %s %.4f -> %.4f", LayerName(p), first / quarter,
                  last / quarter);
    }
    std::printf("\n");

    const double ops = static_cast<double>(n);
    double named_ms = 0;
    for (const auto& [name, ms] : self_ms) named_ms += ms;
    auto self = [&self_ms, ops](const char* name) {
      auto it = self_ms.find(name);
      return it == self_ms.end() ? 0.0 : it->second / ops;
    };
    const double queries = win.Session(&braid::cms::CmsMetrics::ie_queries);
    const double admitted = win.Reg("intermediate.admitted");
    const double issued = win.Reg("prefetch.issued");
    const double advances = win.Reg("advice.tracker.advances");
    const double searches = win.Reg("subsumption.searches");
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false", static_cast<unsigned long long>(n),
                static_cast<unsigned long long>(failed));
    bool first = true;
    PrintMetric(&first, "ie.caql_queries_per_op",
                win.PerOp(static_cast<double>(marks.back().caql_queries -
                                              marks.front().caql_queries)),
                "count");
    PrintMetric(&first, "unattributed_ms_per_op",
                (timed_ms - named_ms - post_root_ms) / ops, "ms");
    for (size_t p = 0; p < kNumPhases; ++p) {
      PrintMetric(&first,
                  braid::StrCat("cms.", LayerName(p), "_ms_per_op").c_str(),
                  self(kPhases[p]), "ms");
    }
    PrintMetric(&first, "cms.post_root_ms_per_op", post_root_ms / ops, "ms");
    PrintMetric(&first, "cms.exact_hit_ratio",
                Ratio(win.Session(&braid::cms::CmsMetrics::exact_hits), queries),
                "ratio");
    PrintMetric(&first, "cms.local_hit_ratio",
                Ratio(win.Session(&braid::cms::CmsMetrics::full_local_hits) +
                          win.Session(&braid::cms::CmsMetrics::lazy_answers),
                      queries),
                "ratio");
    PrintMetric(&first, "cms.remote_ratio",
                Ratio(win.Session(&braid::cms::CmsMetrics::partial_hits) +
                          win.Session(&braid::cms::CmsMetrics::remote_only),
                      queries),
                "ratio");
    PrintMetric(&first, "cms.generalizations_per_op",
                win.PerOp(win.Session(&braid::cms::CmsMetrics::generalizations)),
                "count");
    PrintMetric(&first, "cache.insertions_per_op",
                win.RegPerOp("cache.insertions"), "count");
    PrintMetric(&first, "cache.evictions_per_op",
                win.RegPerOp("cache.evictions"), "count");
    PrintMetric(&first, "cache.advisor_calls_per_op",
                win.RegPerOp("cache.advisor_calls"), "count");
    PrintMetric(&first, "cache.elements_end",
                static_cast<double>(elements_end), "count");
    PrintMetric(&first, "cache.bytes_end", static_cast<double>(bytes_end),
                "bytes");
    PrintMetric(&first, "subsumption.searches_per_op", win.PerOp(searches),
                "count");
    PrintMetric(&first, "subsumption.match_ratio",
                Ratio(win.Reg("subsumption.matches"), searches), "ratio");
    PrintMetric(&first, "intermediate.admitted_per_op", win.PerOp(admitted),
                "count");
    PrintMetric(&first, "intermediate.reuse_ratio",
                Ratio(win.Reg("intermediate.hits"), admitted), "ratio");
    PrintMetric(&first, "prefetch.issued_per_op", win.PerOp(issued), "count");
    PrintMetric(&first, "prefetch.wasted_ratio",
                Ratio(win.Reg("prefetch.wasted"), issued), "ratio");
    PrintMetric(&first, "advice.advances_per_op", win.PerOp(advances),
                "count");
    PrintMetric(&first, "advice.misprediction_ratio",
                Ratio(win.Reg("advice.tracker.mispredictions"), advances),
                "ratio");
    PrintMetric(&first, "dbms.calls_per_op",
                win.PerOp(static_cast<double>(marks.back().link_calls -
                                              marks.front().link_calls)),
                "count");
    PrintMetric(&first, "dbms.tuples_per_op",
                win.PerOp(static_cast<double>(
                    marks.back().remote.tuples_shipped -
                    marks.front().remote.tuples_shipped)),
                "count");
    PrintMetric(&first, "dbms.modeled_ms_per_op",
                win.PerOp(marks.back().remote.total_ms -
                          marks.front().remote.total_ms),
                "ms");
    PrintMetric(&first, "dbms.execute_ms_per_op",
                static_cast<double>(phase_end.link_ns - phase_start.link_ns) /
                    1e6 / ops,
                "ms");
    PrintMetric(&first, "exec.pool_tasks_per_op",
                win.RegPerOp("exec.pool.tasks_submitted"), "count");
    PrintMetric(&first, "exec.morsels_per_op",
                win.RegPerOp("exec.pool.morsels_executed"), "count");
    PrintMetric(&first, "obs.spans_per_op",
                win.PerOp(static_cast<double>(marks.back().spans -
                                              marks.front().spans)),
                "count");
    PrintMetric(&first, "trace.overhead_pct", overhead_pct, "%");
    std::printf("}}\n");
    return 0;
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(n),
              static_cast<unsigned long long>(failed));
  bool first = true;
  PrintMetric(&first, "ops_per_s", slow_ops / (slow_op_ms / 1e3), "1/s");
  PrintMetric(&first, "op_p50_ms", Quantile(slow_lat_ms, 0.50), "ms");
  PrintMetric(&first, "op_p99_ms", Quantile(sorted, 0.99), "ms");
  PrintMetric(&first, "cpu_ms_per_op", slow_cpu_ms / slow_ops, "ms");
  PrintMetric(&first, "modeled_ms_per_op", win.ModeledMsPerOp(), "ms");
  PrintMetric(&first, "ok_ratio",
              static_cast<double>(ok) / static_cast<double>(n), "ratio");
  PrintMetric(&first, "setup_s", Median(setup_s), "s");
  PrintMetric(&first, "peak_rss_mb", peak_rss_mb, "MB");
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: braid_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-out <file>]\n");
    return 2;
  }
  return perfbench::Run(args);
}
