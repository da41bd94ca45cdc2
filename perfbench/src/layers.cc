#include "layers.h"

#include <algorithm>
#include <fstream>
#include <functional>
#include <thread>
#include <unordered_map>
#include <utility>

namespace perfbench {

uint64_t SpanLog::Record(const char* name, uint64_t parent, int64_t start_ns,
                         int64_t end_ns) {
  const uint64_t thread =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  braid::MutexLock lock(&mu_);
  const uint64_t id = spans_.size() + 1;
  spans_.push_back(BenchSpan{id, parent, name, start_ns, end_ns, thread});
  return id;
}

uint64_t SpanLog::Open(const char* name) { return Record(name, 0, 0, 0); }

void SpanLog::Close(uint64_t id, int64_t start_ns, int64_t end_ns) {
  braid::MutexLock lock(&mu_);
  if (id == 0 || id > spans_.size()) return;
  spans_[id - 1].start_ns = start_ns;
  spans_[id - 1].end_ns = end_ns;
}

bool SpanLog::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  braid::MutexLock lock(&mu_);
  const int64_t epoch = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"spans\": [";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const BenchSpan& s = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"id\": " << s.id
        << ", \"parent\": " << s.parent << ", \"name\": \"" << s.name
        << "\", \"start_us\": " << (s.start_ns - epoch) / 1000.0
        << ", \"dur_us\": " << (s.end_ns - s.start_ns) / 1000.0
        << ", \"thread\": " << s.thread << "}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

braid::Result<braid::dbms::RemoteResult> TimedRemoteDbms::Execute(
    const braid::dbms::SqlQuery& query) {
  const int64_t start = NowNs();
  braid::Result<braid::dbms::RemoteResult> result = RemoteDbms::Execute(query);
  const int64_t end = NowNs();
  calls_.fetch_add(1, std::memory_order_relaxed);
  execute_ns_.fetch_add(end - start, std::memory_order_relaxed);
  if (log_ != nullptr) {
    log_->Record("dbms.execute", current_op_->load(std::memory_order_relaxed),
                 start, end);
  }
  return result;
}

namespace {

/// Length of the union of `intervals` clipped to [lo, hi].
double CoveredMs(std::vector<std::pair<double, double>> intervals, double lo,
                 double hi) {
  for (auto& [a, b] : intervals) {
    a = std::max(a, lo);
    b = std::min(b, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  double covered = 0;
  double run_lo = 0;
  double run_hi = -1;
  for (const auto& [a, b] : intervals) {
    if (b <= a) continue;
    if (a > run_hi) {
      if (run_hi > run_lo) covered += run_hi - run_lo;
      run_lo = a;
      run_hi = b;
    } else {
      run_hi = std::max(run_hi, b);
    }
  }
  if (run_hi > run_lo) covered += run_hi - run_lo;
  return covered;
}

}  // namespace

void FoldQueryTrees(const std::vector<braid::obs::Span>& spans,
                    CmsFold* fold) {
  std::unordered_map<braid::obs::SpanId, std::vector<size_t>> children;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != 0) children[spans[i].parent].push_back(i);
  }
  std::vector<size_t> tree;
  for (size_t r = 0; r < spans.size(); ++r) {
    const braid::obs::Span& root = spans[r];
    if (root.parent != 0 || root.name != "query" || root.open()) continue;
    fold->root_ms += root.measured_ms;
    tree.assign(1, r);
    for (size_t k = 0; k < tree.size(); ++k) {
      auto it = children.find(spans[tree[k]].id);
      if (it == children.end()) continue;
      for (size_t c : it->second) {
        if (!spans[c].open()) tree.push_back(c);
      }
    }
    // A span's time is covered by its children (on any thread: the parent
    // waits for pool fetches) and by any later span of the tree that runs
    // inside it on its own thread, e.g. stage admission nested in
    // assembly although it is parented to the root.
    for (size_t s : tree) {
      const braid::obs::Span& span = spans[s];
      const double lo = span.start_ms;
      const double hi = span.start_ms + span.measured_ms;
      std::vector<std::pair<double, double>> covered;
      for (size_t t : tree) {
        const braid::obs::Span& other = spans[t];
        const bool nested = other.thread_id == span.thread_id &&
                            other.id > span.id && other.start_ms < hi;
        if (other.parent == span.id || nested) {
          covered.emplace_back(other.start_ms,
                               other.start_ms + other.measured_ms);
        }
      }
      fold->self_ms[span.name] +=
          span.measured_ms - CoveredMs(std::move(covered), lo, hi);
    }
  }
}

}  // namespace perfbench
