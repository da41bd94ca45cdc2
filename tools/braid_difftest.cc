// braid_difftest — differential oracle harness for the BrAID CMS.
//
// Runs seeded random CAQL workloads through the full optimized system and
// through a cache-bypass reference evaluator, asserting bag-equality per
// query plus the metamorphic invariants documented in DESIGN.md. On
// failure it prints the failing seed, a minimized query-index set, and
// the exact command to reproduce.
//
// Usage:
//   braid_difftest --seeds 0:200            # seed range, full config matrix
//   braid_difftest --seed 17 --threads 8    # one seed, one configuration
//   braid_difftest --seed 17 --keep 3,9     # replay a minimized stream
//   braid_difftest --seeds 0:400 --shard 2/8
//   braid_difftest --budget 2048 --seeds 0:40   # matrix at a budget that evicts

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "testing/diff_runner.h"
#include "testing/workload_gen.h"

namespace {

using braid::testing::DiffOptions;
using braid::testing::DiffReport;
using braid::testing::MinimizeFailure;
using braid::testing::ReproCommand;
using braid::testing::RunDifferential;
using braid::testing::RunSeedMatrix;

struct CliArgs {
  uint64_t seed_lo = 0;
  uint64_t seed_hi = 0;      // inclusive; run [lo, hi]
  bool single_config = false;  // --seed given: run one explicit config
  size_t num_queries = 24;
  size_t num_threads = 1;
  size_t sessions = 1;
  size_t budget = braid::testing::DiffOptions{}.cache_budget_bytes;
  size_t parallel_threshold = braid::testing::DiffOptions{}.parallel_threshold;
  std::string prefetch = "async";  // off | sync | async
  bool faults = false;
  bool open_loop = false;
  double rate = 500;
  bool caching = true;
  bool catalog = true;
  bool intermediates = true;
  bool minimize = true;
  bool dump = false;
  size_t shard_index = 0;
  size_t shard_count = 1;
  std::vector<size_t> keep;
};

void Usage() {
  std::fprintf(
      stderr,
      "usage: braid_difftest [--seeds LO:HI | --seed S]\n"
      "  --seeds LO:HI       run the full config matrix for each seed in\n"
      "                      [LO, HI) (default 0:50)\n"
      "  --seed S            run one seed with the explicit config below\n"
      "  --queries N         stream length (default 24)\n"
      "  --threads N         pool workers (default 1; matrix uses 1 and 8)\n"
      "  --sessions N        N concurrent sessions share the CMS, each\n"
      "                      replaying the stream rotated by its index\n"
      "                      through the session scheduler (default 1)\n"
      "  --budget BYTES      cache budget of the system side, for the\n"
      "                      explicit config and every matrix cell\n"
      "                      (default 262144; 2048 evicts on every seed)\n"
      "  --parallel-threshold N  inputs of at least N tuples run\n"
      "                      morsel-parallel (default 2; the CMS default,\n"
      "                      4096, runs the serial kernels)\n"
      "  --prefetch MODE     off | sync | async (default async)\n"
      "  --faults on|off     fault-injected remote link (default off)\n"
      "  --open-loop         replay as open-loop Poisson arrivals under a\n"
      "                      deliberately tight overload policy; refused\n"
      "                      queries retry after the drain and every answer\n"
      "                      is still bag-checked (shedding never changes\n"
      "                      answers)\n"
      "  --rate QPS          open-loop arrival rate (default 500)\n"
      "  --no-cache          disable caching on the system side\n"
      "  --no-catalog        linear subsumption candidate scan instead of\n"
      "                      the semantic catalog (answers must not change)\n"
      "  --no-intermediates  disable intermediate-result caching (answers\n"
      "                      must not change; costs may)\n"
      "  --keep I,J,...      only run these stream indices (repro)\n"
      "  --no-minimize       skip failure minimization\n"
      "  --shard I/M         run only seeds with seed %% M == I\n");
}

bool ParseSizeList(const char* s, std::vector<size_t>* out) {
  std::string token;
  for (const char* p = s;; ++p) {
    if (*p == ',' || *p == '\0') {
      if (token.empty()) return false;
      out->push_back(static_cast<size_t>(std::strtoull(token.c_str(),
                                                       nullptr, 10)));
      token.clear();
      if (*p == '\0') return true;
    } else {
      token += *p;
    }
  }
}

bool ParseArgs(int argc, char** argv, CliArgs* args) {
  args->seed_lo = 0;
  args->seed_hi = 49;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--seeds") {
      const char* v = next();
      uint64_t lo = 0, hi = 0;
      if (v == nullptr || std::sscanf(v, "%lu:%lu", &lo, &hi) != 2 ||
          hi <= lo) {
        return false;
      }
      args->seed_lo = lo;
      args->seed_hi = hi - 1;  // LO:HI is half-open on the command line
    } else if (arg == "--seed") {
      const char* v = next();
      if (v == nullptr) return false;
      args->seed_lo = args->seed_hi = std::strtoull(v, nullptr, 10);
      args->single_config = true;
    } else if (arg == "--queries") {
      const char* v = next();
      if (v == nullptr) return false;
      args->num_queries = static_cast<size_t>(std::strtoull(v, nullptr, 10));
    } else if (arg == "--threads") {
      const char* v = next();
      if (v == nullptr) return false;
      args->num_threads = static_cast<size_t>(std::strtoull(v, nullptr, 10));
      args->single_config = true;
    } else if (arg == "--sessions") {
      const char* v = next();
      if (v == nullptr) return false;
      args->sessions = static_cast<size_t>(std::strtoull(v, nullptr, 10));
      if (args->sessions == 0) return false;
      args->single_config = true;
    } else if (arg == "--budget") {
      const char* v = next();
      if (v == nullptr) return false;
      args->budget = static_cast<size_t>(std::strtoull(v, nullptr, 10));
      if (args->budget == 0) return false;
    } else if (arg == "--parallel-threshold") {
      const char* v = next();
      if (v == nullptr) return false;
      args->parallel_threshold =
          static_cast<size_t>(std::strtoull(v, nullptr, 10));
      args->single_config = true;
    } else if (arg == "--prefetch") {
      const char* v = next();
      if (v == nullptr) return false;
      args->prefetch = v;
      if (args->prefetch != "off" && args->prefetch != "sync" &&
          args->prefetch != "async") {
        return false;
      }
      args->single_config = true;
    } else if (arg == "--faults") {
      const char* v = next();
      if (v == nullptr) return false;
      args->faults = std::strcmp(v, "on") == 0;
      args->single_config = true;
    } else if (arg == "--open-loop") {
      args->open_loop = true;
      args->single_config = true;
    } else if (arg == "--rate") {
      const char* v = next();
      if (v == nullptr) return false;
      args->rate = std::strtod(v, nullptr);
      if (args->rate <= 0) return false;
      args->single_config = true;
    } else if (arg == "--no-cache") {
      args->caching = false;
      args->single_config = true;
    } else if (arg == "--no-catalog") {
      args->catalog = false;
      args->single_config = true;
    } else if (arg == "--no-intermediates") {
      args->intermediates = false;
      args->single_config = true;
    } else if (arg == "--keep") {
      const char* v = next();
      if (v == nullptr || !ParseSizeList(v, &args->keep)) return false;
      args->single_config = true;
    } else if (arg == "--no-minimize") {
      args->minimize = false;
    } else if (arg == "--dump") {
      args->dump = true;
    } else if (arg == "--shard") {
      const char* v = next();
      unsigned long idx = 0, count = 0;  // NOLINT(runtime/int)
      if (v == nullptr || std::sscanf(v, "%lu/%lu", &idx, &count) != 2 ||
          count == 0 || idx >= count) {
        return false;
      }
      args->shard_index = idx;
      args->shard_count = count;
    } else {
      return false;
    }
  }
  return true;
}

DiffOptions OptionsFor(const CliArgs& args, uint64_t seed) {
  DiffOptions opts;
  opts.seed = seed;
  opts.num_queries = args.num_queries;
  opts.num_threads = args.num_threads;
  opts.sessions = args.sessions;
  opts.cache_budget_bytes = args.budget;
  opts.parallel_threshold = args.parallel_threshold;
  opts.prefetch = args.prefetch != "off";
  opts.prefetch_async = args.prefetch == "async";
  opts.caching = args.caching;
  opts.catalog = args.catalog;
  opts.intermediates = args.intermediates;
  opts.faults = args.faults;
  opts.open_loop = args.open_loop;
  opts.open_loop_rate = args.rate;
  if (args.faults) {
    opts.fault_plan.error_rate = 0.15;
    opts.fault_plan.delay_rate = 0.2;
    opts.fault_plan.delay_ms = 1.0;
    opts.fault_plan.warmup_calls = 2;
  }
  opts.keep = args.keep;
  return opts;
}

int HandleFailure(const CliArgs& args, const DiffReport& report,
                  const DiffOptions& opts) {
  std::printf("FAIL %s\n", report.Summary().c_str());
  DiffOptions repro = opts;
  // Open-loop timing is wall-clock dependent; a minimized stream would
  // not reproduce the same queue dynamics, so don't pretend it does.
  if (args.minimize && opts.keep.empty() && !opts.faults && !opts.open_loop) {
    std::printf("minimizing...\n");
    repro.keep = MinimizeFailure(opts);
    std::printf("minimized to %zu quer%s\n", repro.keep.size(),
                repro.keep.size() == 1 ? "y" : "ies");
  }
  std::printf("repro: %s\n", ReproCommand(repro).c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage();
    return 2;
  }

  if (args.dump) {
    braid::testing::WorkloadParams params;
    params.seed = args.seed_lo;
    params.num_queries = args.num_queries;
    braid::testing::GeneratedWorkload w =
        braid::testing::GenerateWorkload(params);
    std::printf("%s\n", w.advice.ToString().c_str());
    for (size_t i = 0; i < w.queries.size(); ++i) {
      std::printf("#%zu: %s%s\n", i, w.queries[i].distinct ? "SETOF " : "",
                  w.queries[i].ToString().c_str());
    }
    return 0;
  }

  size_t seeds_run = 0;
  for (uint64_t seed = args.seed_lo; seed <= args.seed_hi; ++seed) {
    if (seed % args.shard_count != args.shard_index) continue;
    ++seeds_run;
    if (args.single_config) {
      DiffOptions opts = OptionsFor(args, seed);
      DiffReport report = RunDifferential(opts);
      std::printf("%s\n", report.Summary().c_str());
      if (!report.ok) return HandleFailure(args, report, opts);
    } else {
      DiffOptions failing;
      DiffReport report =
          RunSeedMatrix(seed, args.num_queries, /*with_faults=*/true,
                        &failing, args.budget);
      if (!report.ok) return HandleFailure(args, report, failing);
      if (seed == args.seed_lo || (seed - args.seed_lo) % 10 == 0) {
        std::printf("%s\n", report.Summary().c_str());
      }
    }
  }
  std::printf("OK: %zu seed%s passed\n", seeds_run, seeds_run == 1 ? "" : "s");
  return 0;
}
