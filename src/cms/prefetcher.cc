#include "cms/prefetcher.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <utility>

#include "cms/query_processor.h"
#include "common/strings.h"

namespace braid::cms {

Prefetcher::Prefetcher(exec::ThreadPool* pool, RemoteDbmsInterface* rdi,
                       double local_per_tuple_ms, size_t max_inflight,
                       obs::Tracer* tracer)
    : pool_(pool),
      rdi_(rdi),
      local_per_tuple_ms_(local_per_tuple_ms),
      max_inflight_(max_inflight),
      tracer_(tracer),
      issued_(&obs::MetricsRegistry::Global().counter("prefetch.issued")),
      joined_(&obs::MetricsRegistry::Global().counter("prefetch.joined")),
      join_wait_ms_(
          &obs::MetricsRegistry::Global().histogram("prefetch.join_wait_ms")) {}

Prefetcher::~Prefetcher() {
  CancelAll();
  Drain();  // discard: the owner is gone, there is nowhere to install
}

bool Prefetcher::Launch(PrefetchJob job) {
  std::shared_ptr<Entry> entry;
  {
    MutexLock lock(&mu_);
    if (inflight_.size() >= max_inflight_) return false;
    if (inflight_.count(job.key.text) > 0) return false;
    entry = std::make_shared<Entry>();
    entry->job = std::move(job);
    inflight_[entry->job.key.text] = entry;
  }
  issued_->Increment();
  // The registry lock must NOT be held across Submit: with zero workers
  // the pool runs the task inline, and RunJob re-acquires the lock to
  // deliver its result.
  if (pool_ != nullptr) {
    std::future<void> done = pool_->Submit([this, entry] { RunJob(entry); });
    MutexLock lock(&mu_);
    // Park the future so Drain can join task epilogues; prune the ones
    // already settled so the vector stays bounded by the in-flight cap.
    futures_.erase(
        std::remove_if(futures_.begin(), futures_.end(),
                       [](std::future<void>& f) {
                         return !f.valid() ||
                                f.wait_for(std::chrono::seconds(0)) ==
                                    std::future_status::ready;
                       }),
        futures_.end());
    futures_.push_back(std::move(done));
  } else {
    RunJob(entry);
  }
  return true;
}

bool Prefetcher::InFlight(const std::string& canonical_key) const {
  MutexLock lock(&mu_);
  return inflight_.count(canonical_key) > 0;
}

bool Prefetcher::PendingForViewLocked(const std::string& view_id) const {
  for (const auto& [key, entry] : inflight_) {
    if (entry->job.view_id == view_id) return true;
  }
  return false;
}

bool Prefetcher::PendingForSessionLocked(uint64_t session_id) const {
  for (const auto& [key, entry] : inflight_) {
    if (entry->job.session_id == session_id) return true;
  }
  return false;
}

void Prefetcher::WaitStep() {
  if (pool_ != nullptr && pool_->HelpOne()) return;
  MutexLock lock(&mu_);
  // Bounded wait instead of a bare Wait: a job may finish (and notify)
  // between the caller's predicate check and this acquisition, and new
  // inner work may appear on the pool queue that only this thread can
  // run when every worker is parked in a session task.
  cv_.WaitFor(mu_, std::chrono::milliseconds(1));
}

bool Prefetcher::InFlightForView(const std::string& view_id) const {
  MutexLock lock(&mu_);
  return PendingForViewLocked(view_id);
}

size_t Prefetcher::NumInFlight() const {
  MutexLock lock(&mu_);
  return inflight_.size();
}

bool Prefetcher::Join(const std::string& canonical_key) {
  const auto start = std::chrono::steady_clock::now();
  {
    MutexLock lock(&mu_);
    if (inflight_.count(canonical_key) == 0) return false;
  }
  obs::SpanScope span(tracer_, "prefetch.join");
  span.Annotate("key", canonical_key);
  for (;;) {
    {
      MutexLock lock(&mu_);
      if (inflight_.count(canonical_key) == 0) break;
    }
    WaitStep();
  }
  joined_->Increment();
  join_wait_ms_->Observe(std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count());
  return true;
}

bool Prefetcher::JoinView(const std::string& view_id) {
  const auto start = std::chrono::steady_clock::now();
  {
    MutexLock lock(&mu_);
    if (!PendingForViewLocked(view_id)) return false;
  }
  obs::SpanScope span(tracer_, "prefetch.join");
  span.Annotate("view", view_id);
  for (;;) {
    {
      MutexLock lock(&mu_);
      if (!PendingForViewLocked(view_id)) break;
    }
    WaitStep();
  }
  joined_->Increment();
  join_wait_ms_->Observe(std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count());
  return true;
}

std::vector<Prefetcher::Completed> Prefetcher::Harvest() {
  MutexLock lock(&mu_);
  return std::exchange(completed_, {});
}

void Prefetcher::SettleFutures() {
  // Join outside the lock: a future is ready only once its task lambda
  // has fully returned, so afterwards no task is still inside RunJob's
  // epilogue touching the registry.
  std::vector<std::future<void>> waits;
  {
    MutexLock lock(&mu_);
    waits = std::exchange(futures_, {});
  }
  for (std::future<void>& f : waits) {
    if (f.valid()) f.wait();
  }
}

std::vector<Prefetcher::Completed> Prefetcher::Drain() {
  // Entries join the registry before their task is submitted, so this
  // predicate cannot miss a launched job. Help-drain while waiting: a
  // queued job may only ever run on this thread when the workers are all
  // occupied by session tasks.
  for (;;) {
    {
      MutexLock lock(&mu_);
      if (inflight_.empty()) break;
    }
    WaitStep();
  }
  SettleFutures();
  MutexLock lock(&mu_);
  return std::exchange(completed_, {});
}

std::vector<Prefetcher::Completed> Prefetcher::DrainSession(
    uint64_t session_id) {
  for (;;) {
    {
      MutexLock lock(&mu_);
      if (!PendingForSessionLocked(session_id)) break;
    }
    WaitStep();
  }
  MutexLock lock(&mu_);
  return std::exchange(completed_, {});
}

void Prefetcher::CancelAll() {
  MutexLock lock(&mu_);
  for (auto& [key, entry] : inflight_) {
    entry->cancelled.store(true, std::memory_order_relaxed);
  }
}

void Prefetcher::CancelSession(uint64_t session_id) {
  MutexLock lock(&mu_);
  for (auto& [key, entry] : inflight_) {
    if (entry->job.session_id == session_id) {
      entry->cancelled.store(true, std::memory_order_relaxed);
    }
  }
}

void Prefetcher::RunJob(const std::shared_ptr<Entry>& entry) {
  PrefetchOutcome outcome = Execute(entry->job, entry->cancelled);
  MutexLock lock(&mu_);
  Completed done;
  done.cancelled = entry->cancelled.load(std::memory_order_relaxed);
  // Copy the key before the job moves into the completion record.
  const std::string key = entry->job.key.text;
  done.job = std::move(entry->job);
  done.outcome = std::move(outcome);
  completed_.push_back(std::move(done));
  inflight_.erase(key);
  cv_.NotifyAll();
}

PrefetchOutcome Prefetcher::Execute(const PrefetchJob& job,
                                    const std::atomic<bool>& cancelled) {
  PrefetchOutcome outcome;
  obs::SpanScope root(tracer_, "prefetch");
  root.Annotate("view", job.view_id);
  root.Annotate("query", job.query.ToString());

  const Plan& plan = job.plan;
  const size_t num_positive = plan.sources.size();
  const size_t num_total = num_positive + plan.anti_sources.size();
  auto source_at = [&plan, num_positive](size_t i) -> const PlanSource& {
    return i < num_positive ? plan.sources[i]
                            : plan.anti_sources[i - num_positive];
  };

  // Fetch serially on this pool thread — a prefetch task never submits
  // sub-tasks to the pool (a task blocking on sibling tasks can deadlock
  // a saturated pool) and never touches the cache, so admission only
  // hands it all-remote plans.
  double remote_ms = 0;
  std::vector<rel::Relation> materialized(num_total);
  for (size_t i = 0; i < num_total; ++i) {
    const PlanSource& source = source_at(i);
    if (source.kind != PlanSource::Kind::kRemote) {
      outcome.status = Status::FailedPrecondition(
          "prefetch job contains a cache-element source");
      return outcome;
    }
    if (cancelled.load(std::memory_order_relaxed)) {
      outcome.status = Status::FailedPrecondition("prefetch cancelled");
      return outcome;
    }
    obs::SpanScope span(tracer_, "prefetch.fetch", root.id());
    span.Annotate("subquery", source.remote_query.name);
    Result<RemoteFetch> fetch =
        rdi_->Fetch(source.remote_query, source.remote_vars);
    if (!fetch.ok()) {
      outcome.status = fetch.status();
      return outcome;
    }
    span.SetModeledMs(fetch->cost.total_ms);
    remote_ms += fetch->cost.total_ms;
    materialized[i] = std::move(fetch->bindings);
  }

  std::vector<rel::Relation> bindings(
      std::make_move_iterator(materialized.begin()),
      std::make_move_iterator(materialized.begin() + num_positive));
  std::vector<rel::Relation> anti_bindings(
      std::make_move_iterator(materialized.begin() + num_positive),
      std::make_move_iterator(materialized.end()));

  LocalWork work;
  Result<rel::Relation> assembled = QueryProcessor::Assemble(
      plan.query, std::move(bindings), plan.residual_comparisons,
      plan.evaluables, &work, std::move(anti_bindings), /*ctx=*/nullptr);
  if (!assembled.ok()) {
    outcome.status = assembled.status();
    return outcome;
  }
  outcome.result = std::move(*assembled);
  outcome.modeled_ms =
      remote_ms + work.tuples_processed * local_per_tuple_ms_;
  root.SetModeledMs(outcome.modeled_ms);
  return outcome;
}

}  // namespace braid::cms
