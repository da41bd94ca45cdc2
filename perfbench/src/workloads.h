#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cms/cms.h"
#include "layers.h"

namespace perfbench {

/// Brackets the public API call of one op: the workload calls Begin()
/// right before the call and End() right after it, so answer checks and
/// bookkeeping stay out of the op's time.
struct OpClock {
  int64_t begin_ns = 0;
  int64_t end_ns = 0;
  void Begin() { begin_ns = NowNs(); }
  void End() { end_ns = NowNs(); }
};

/// One benchmark workload. Its inputs come from the seed alone.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Untimed: precomputes the reference answers of every op from freshly
  /// generated inputs, before any set-up is timed.
  virtual void Prepare() = 0;
  /// Generates and loads the data, builds the CMS, opens the sessions and
  /// warms the cache to its steady state. The harness times this call.
  virtual void Setup() = 0;
  /// Untimed: destroys the set-up, before the next Setup.
  virtual void Teardown() = 0;
  /// Untimed: checks the answers set-up produced; false (with `why`) on a
  /// mismatch.
  virtual bool CheckSetup(std::string* why) = 0;
  /// Runs op `i` of the timed stream and checks its answer. Returns true
  /// iff the call returned OK and the answer matched the reference.
  virtual bool RunOp(uint64_t i, OpClock* clock) = 0;

  /// Ops over which count metrics are taken: the first `count_window()`
  /// timed ops, so they repeat exactly for a seed however fast the machine is.
  /// A multiple of 4: the stationarity report splits it into quarters.
  virtual uint64_t count_window() const = 0;
  /// True when one op is one Cms::Query (the op span minus the query root
  /// is then the CMS's post-root pass).
  virtual bool single_query_ops() const = 0;

  virtual braid::cms::Cms& cms() = 0;
  virtual TimedRemoteDbms& remote() = 0;
  /// CmsMetrics summed over every session the workload drives; read only
  /// between ops.
  virtual braid::cms::CmsMetrics SessionTotals() = 0;
  /// CAQL queries the IE sent for the ops so far (0 without an IE).
  virtual uint64_t caql_queries() const { return 0; }
};

/// Null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
