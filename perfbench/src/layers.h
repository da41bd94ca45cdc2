#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

// Instruments the benchmark wraps around the system from the outside: its
// own span log, a decorator on the remote link, and the fold of the CMS's
// span tree into per-layer self times. Nothing here changes the system.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "dbms/remote_dbms.h"
#include "obs/trace.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One span the benchmark recorded itself (the op around a public API
/// call, or a remote `Execute`). Times are steady-clock nanoseconds.
struct BenchSpan {
  uint64_t id = 0;
  uint64_t parent = 0;
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t thread = 0;
};

/// The benchmark's own spans, kept in memory (pool threads record too) and
/// written out once the run ends. Only traced runs record into it.
class SpanLog {
 public:
  /// Records a finished span; returns its id.
  uint64_t Record(const char* name, uint64_t parent, int64_t start_ns,
                  int64_t end_ns);
  /// Reserves the id of a span whose times are set later by Close, so
  /// spans started inside it can name it as their parent.
  uint64_t Open(const char* name);
  void Close(uint64_t id, int64_t start_ns, int64_t end_ns);
  /// {"spans": [{"id", "parent", "name", "start_us", "dur_us", "thread"}]},
  /// times relative to the first span. Returns false when the file cannot
  /// be written.
  bool WriteJson(const std::string& path) const;

 private:
  mutable braid::Mutex mu_;
  std::vector<BenchSpan> spans_ BRAID_GUARDED_BY(mu_);
};

/// Remote link decorator: counts and times every `Execute` (pool threads
/// included) and, when a span log is attached, records a `dbms.execute`
/// span under the op that was running when the call started.
class TimedRemoteDbms : public braid::dbms::RemoteDbms {
 public:
  using RemoteDbms::RemoteDbms;

  braid::Result<braid::dbms::RemoteResult> Execute(
      const braid::dbms::SqlQuery& query) override;

  /// Attach before the first op; `current_op` names the parent span.
  void AttachSpanLog(SpanLog* log, const std::atomic<uint64_t>* current_op) {
    log_ = log;
    current_op_ = current_op;
  }

  uint64_t calls() const { return calls_.load(std::memory_order_relaxed); }
  int64_t execute_ns() const {
    return execute_ns_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> calls_{0};
  std::atomic<int64_t> execute_ns_{0};
  SpanLog* log_ = nullptr;
  const std::atomic<uint64_t>* current_op_ = nullptr;
};

/// Per-layer self times folded from CMS span trees.
struct CmsFold {
  /// Self time by span name, summed over every span of every `query` tree.
  std::map<std::string, double> self_ms;
  /// Summed duration of the `query` roots.
  double root_ms = 0;
};

/// Adds the `query`-rooted trees of `spans` (one Tracer snapshot) to
/// `fold`. Spans of other roots (background prefetch) and spans still open
/// are skipped.
void FoldQueryTrees(const std::vector<braid::obs::Span>& spans,
                    CmsFold* fold);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
