#include "cms/cms.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <thread>
#include <utility>

#include "common/strings.h"
#include "exec/parallel_ops.h"
#include "obs/metrics.h"

namespace braid::cms {

namespace {

using caql::CaqlQuery;
using logic::Term;

/// Worker-thread count for the execution engine's pool, or nullptr for a
/// serial CMS. The calling thread always joins morsel loops, so the
/// default saturates the machine at hardware_concurrency total lanes.
std::unique_ptr<exec::ThreadPool> MakePool(const CmsConfig& config) {
  if (!config.enable_parallel) return nullptr;
  size_t workers = config.num_threads;
  if (workers == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    workers = hw > 1 ? hw - 1 : 1;
  }
  return std::make_unique<exec::ThreadPool>(workers);
}

/// Order-insensitive canonical form for the whole-query duplicate check:
/// name, SETOF flag, head order, and body order are normalized away, so a
/// stage whose content is the query's own pre-projection result compares
/// equal however the plan ordered its atoms. Stage views reuse the query's
/// variable names, so sorting on the printed form aligns both sides.
std::string NormalizedStageKey(CaqlQuery q) {
  q.name = "$i";
  q.distinct = false;
  std::sort(q.head_args.begin(), q.head_args.end(),
            [](const Term& a, const Term& b) {
              return a.var_name() < b.var_name();
            });
  std::sort(q.body.begin(), q.body.end(),
            [](const logic::Atom& a, const logic::Atom& b) {
              return a.ToString() < b.ToString();
            });
  return q.CanonicalKey();
}

/// Runs the execution monitor's DAG-stage offers through the cache
/// manager's cost-based admission gate (DESIGN.md §12). One collector per
/// eager query; offers arrive on the query's calling thread, so the only
/// concurrency is with other sessions' queries — which the striped cache
/// and the gate's atomics already handle.
class IntermediateCollector : public IntermediateSink {
 public:
  IntermediateCollector(CacheManager* cache, CmsSession* session,
                        obs::Tracer* tracer, obs::SpanId parent,
                        std::string view_id, std::string whole_query_key,
                        double local_per_tuple_ms)
      : cache_(cache),
        session_(session),
        tracer_(tracer),
        parent_(parent),
        view_id_(std::move(view_id)),
        whole_query_key_(std::move(whole_query_key)),
        local_per_tuple_ms_(local_per_tuple_ms) {}

  void Offer(const StageOffer& offer,
             const rel::Relation& relation) override {
    // A stage that is just the whole query before head projection (every
    // head variable kept, full body covered) duplicates the result the
    // facade caches anyway; skip it.
    if (!whole_query_key_.empty() &&
        NormalizedStageKey(offer.view) == whole_query_key_) {
      return;
    }
    // A structurally identical intermediate may already be installed — by
    // an earlier stage of this plan, an earlier query, or a concurrent
    // session (stage views share the reserved name, so equal structure
    // means equal canonical key). Re-admitting would only churn the slice.
    caql::QueryKey key = offer.view.Key();
    if (cache_->model().ByCanonicalKey(key) != nullptr) return;

    // Reuse prediction: the advisor models the producing view's own
    // recurrence; a stage of a soon-recurring view is at least as likely
    // to be wanted again. Cross-query sharing it cannot see defaults to
    // the gate's coin flip.
    std::optional<size_t> predicted;
    if (session_ != nullptr && !view_id_.empty()) {
      predicted = session_->PredictedDistance(view_id_);
    }
    const size_t bytes = relation.ByteSize() + 128;  // element overhead
    const IntermediateVerdict verdict = cache_->JudgeIntermediate(
        bytes, relation.NumTuples(), offer.recompute_ms, predicted,
        local_per_tuple_ms_);

    obs::SpanScope span(tracer_, "admission", parent_);
    span.Annotate("stage", offer.label);
    span.Annotate("benefit_ms", StrCat(verdict.benefit_ms));
    span.Annotate("cost_ms", StrCat(verdict.cost_ms));
    span.Annotate("verdict", verdict.reason);
    if (!verdict.admit) return;

    auto element = std::make_shared<CacheElement>(
        cache_->model().NextId(), offer.view,
        std::make_shared<rel::Relation>(relation), std::move(key));
    element->set_origin_view(view_id_);
    element->set_derived(true);
    element->stats().cost_to_recompute_ms.store(offer.recompute_ms,
                                                std::memory_order_relaxed);
    span.Annotate("element", element->id());
    cache_->InsertIntermediate(std::move(element));
  }

 private:
  CacheManager* cache_;
  CmsSession* session_;
  obs::Tracer* tracer_;
  obs::SpanId parent_;
  std::string view_id_;
  std::string whole_query_key_;
  double local_per_tuple_ms_;
};

}  // namespace

const char* CacheOutcomeName(CacheOutcome outcome) {
  switch (outcome) {
    case CacheOutcome::kExact:
      return "exact";
    case CacheOutcome::kFullLocal:
      return "full-local";
    case CacheOutcome::kLazy:
      return "lazy";
    case CacheOutcome::kPartial:
      return "partial";
    case CacheOutcome::kRemote:
      return "remote";
  }
  return "?";
}

Cms::Cms(dbms::RemoteDbms* remote, CmsConfig config)
    : remote_(remote),
      config_(config),
      cache_(config.cache_budget_bytes, config.replacement_horizon,
             config.intermediate_budget_fraction),
      rdi_(remote),
      planner_(&cache_.model(), remote,
               PlannerConfig{config.enable_subsumption &&
                                 config.enable_caching,
                             config.enable_catalog,
                             config.max_subsumption_mappings}),
      pool_(MakePool(config)),
      monitor_(&cache_, &rdi_, config.local_per_tuple_ms,
               config.enable_parallel,
               exec::ExecContext{pool_.get(), config.parallel_threshold}),
      prefetch_memo_hits_(
          &obs::MetricsRegistry::Global().counter("prefetch.memo_hits")),
      prefetch_rejected_(
          &obs::MetricsRegistry::Global().counter("prefetch.rejected")),
      prefetch_cancelled_(
          &obs::MetricsRegistry::Global().counter("prefetch.cancelled")),
      prefetch_errors_(
          &obs::MetricsRegistry::Global().counter("prefetch.errors")),
      prefetch_wasted_(
          &obs::MetricsRegistry::Global().counter("prefetch.wasted")),
      intermediate_hits_(
          &obs::MetricsRegistry::Global().counter("intermediate.hits")),
      advice_index_(config.replacement_horizon),
      load_controller_(std::make_unique<LoadController>(
          LoadControlPolicy{config.enable_load_control,
                            config.admission_queue_bound,
                            config.shed_queue_depth,
                            config.foreground_slo_ms},
          // Invoked only from query paths, which run strictly between
          // scheduler construction and scheduler teardown. Counts both
          // halves of the foreground backlog: tasks still queued behind a
          // running query in their session, and tasks the scheduler has
          // already dispatched into the pool's session queue (where the
          // backlog sits when many sessions each have one query waiting).
          [this] { return QueuedQueries(); })),
      prefetcher_(std::make_unique<Prefetcher>(
          pool_.get(), &rdi_, config.local_per_tuple_ms,
          config.prefetch_max_inflight, &tracer_)),
      scheduler_(std::make_unique<SessionScheduler>(pool_.get())) {
  cache_.set_load_controller(load_controller_.get());
  {
    MutexLock lock(&sessions_mu_);
    sessions_.push_back(std::make_unique<CmsSession>(/*id=*/0, advice_index_));
    default_session_ = sessions_.back().get();
  }
  // Replacement advice: the minimum predicted distance any open session's
  // tracker gives the element's origin view; when no tracker predicts,
  // the simplest advice form (the relevant-base-relation list) still
  // protects session-relevant elements at the horizon boundary. The index
  // holds that minimum ready; called by the cache manager with no cache
  // lock held, from whichever session thread triggers an eviction.
  cache_.set_replacement_advisor(
      [this](const CacheElement& e) -> std::optional<size_t> {
        if (!config_.enable_advice) return std::nullopt;
        return advice_index_.Lookup(e);
      });
}

CmsSession* Cms::OpenSession(advice::AdviceSet advice) {
  // The CMS functions without advice.
  advice::CompiledAdvicePtr compiled =
      config_.enable_advice ? advice::Compile(std::move(advice))
                            : advice::CompiledAdvice::Empty();
  MutexLock lock(&sessions_mu_);
  sessions_.push_back(
      std::make_unique<CmsSession>(next_session_id_++, advice_index_));
  CmsSession* session = sessions_.back().get();
  session->InstallAdvice(std::move(compiled));
  session->prefetch_rejects_version() = cache_.model().version();
  return session;
}

void Cms::CloseSession(CmsSession* session) {
  if (session == nullptr || session == default_session_) return;
  std::unique_ptr<CmsSession> owned;
  {
    // Unregister first, advice included: from here on the session
    // protects no element, even from evictions that the drain below
    // triggers when it installs the session's completed prefetches.
    MutexLock lock(&sessions_mu_);
    for (auto it = sessions_.begin(); it != sessions_.end(); ++it) {
      if (it->get() == session) {
        owned = std::move(*it);
        sessions_.erase(it);
        owned->WithdrawAdvice();
        break;
      }
    }
  }
  if (owned == nullptr) return;
  prefetcher_->CancelSession(owned->id());
  InstallCompletedPrefetches(*owned, prefetcher_->DrainSession(owned->id()));
}

void Cms::BeginSession(advice::AdviceSet advice) {
  BeginSession(advice::Compile(std::move(advice)));
}

void Cms::BeginSession(advice::CompiledAdvicePtr advice) {
  // A session change invalidates the predictions behind the session's
  // in-flight prefetches: cancel what has not started, wait out what has,
  // and keep the non-cancelled completions (the cache is cross-session).
  // The prefetch-rejection memo stays: its verdicts depend on the cache
  // and the query, not on the advice.
  prefetcher_->CancelSession(default_session_->id());
  InstallCompletedPrefetches(
      *default_session_, prefetcher_->DrainSession(default_session_->id()));
  // The CMS functions without advice.
  default_session_->InstallAdvice(config_.enable_advice
                                      ? std::move(advice)
                                      : advice::CompiledAdvice::Empty());
}

void Cms::DrainPrefetches() {
  InstallCompletedPrefetches(*default_session_, prefetcher_->Drain());
}

void Cms::DrainSessions() { scheduler_->Drain(); }

std::string Cms::CheckReplacementAdvice() const {
  auto show = [](std::optional<size_t> d) {
    return d.has_value() ? StrCat(*d) : std::string("none");
  };
  MutexLock lock(&sessions_mu_);
  for (const auto& [id, e] : cache_.model().elements()) {
    std::optional<size_t> want;
    for (const std::unique_ptr<CmsSession>& s : sessions_) {
      auto d = s->AdvisedDistance(*e, config_.replacement_horizon);
      if (d.has_value() && (!want.has_value() || *d < *want)) want = d;
    }
    const std::optional<size_t> got = advice_index_.Lookup(*e);
    if (got != want) {
      return StrCat("element ", id, " (origin view '", e->origin_view(),
                    "'): index says ", show(got), ", sessions say ",
                    show(want));
    }
  }
  return "";
}

void Cms::InstallCompletedPrefetches(
    CmsSession& session, std::vector<Prefetcher::Completed> done) {
  for (Prefetcher::Completed& c : done) {
    if (!c.outcome.status.ok()) {
      (c.cancelled ? prefetch_cancelled_ : prefetch_errors_)->Increment();
      continue;
    }
    // A foreground query may have cached the same definition while the
    // prefetch was in flight (it lost the race); the fetch was wasted
    // but harmless.
    if (cache_.model().ByCanonicalKey(c.job.key) != nullptr ||
        CacheResult(session, c.job.query, c.job.key,
                    std::make_shared<const rel::Relation>(
                        std::move(c.outcome.result)),
                    c.job.view_id)
            .empty()) {
      prefetch_wasted_->Increment();
      continue;
    }
    session.metrics().prefetch_ms += c.outcome.modeled_ms;
    ++session.metrics().prefetches;
  }
}

bool Cms::CachingPolicyAdmits(const CaqlQuery& definition) const {
  if (!config_.enable_caching) return false;
  if (!config_.single_relation_only) return true;
  // CERI86-style policy: only unrestricted single base-relation extensions.
  if (definition.body.size() != 1) return false;
  const logic::Atom& atom = definition.body[0];
  if (atom.IsComparison()) return false;
  std::vector<std::string> vars = atom.Variables();
  return vars.size() == atom.arity() &&
         definition.head_args.size() == atom.arity();
}

std::string Cms::CacheResult(CmsSession& session, const CaqlQuery& definition,
                             const caql::QueryKey& key,
                             std::shared_ptr<const rel::Relation> result,
                             const std::string& origin_view) {
  // Result caching is cross-session ("eliminates the cost of recomputing
  // repeated CAQL queries", §5.3): admission is unconditional within the
  // policy; a path expression predicting no recurrence lowers the
  // element's replacement priority instead of blocking admission.
  if (!CachingPolicyAdmits(definition)) return "";
  auto element = std::make_shared<CacheElement>(
      cache_.model().NextId(), definition, std::move(result), key);
  element->set_origin_view(origin_view);

  // Attribute indexing from consumer annotations (paper §4.2.1): index the
  // extension columns of consumer-annotated head variables. The hints come
  // from the installing session's advice (for a harvested cross-session
  // prefetch that may miss the owner's hints — indexes are then built
  // lazily on first advised use instead).
  if (config_.enable_indexing && config_.enable_advice &&
      !origin_view.empty()) {
    for (const std::string& var : session.IndexHints(origin_view)) {
      for (size_t i = 0; i < definition.head_args.size(); ++i) {
        const Term& t = definition.head_args[i];
        if (t.is_variable() && t.var_name() == var) {
          element->EnsureIndex(i);
        }
      }
    }
  }

  const std::string id = element->id();
  return cache_.Insert(std::move(element)) ? id : "";
}

Result<Cms::EagerExec> Cms::ExecuteEager(CmsSession& session,
                                         const CaqlQuery& query,
                                         obs::SpanId parent) {
  obs::Tracer* tracer = parent != 0 ? &tracer_ : nullptr;
  BRAID_ASSIGN_OR_RETURN(Plan plan,
                         planner_.PlanQuery(query, tracer, parent));
  BRAID_ASSIGN_OR_RETURN(ExecutionOutcome outcome,
                         monitor_.ExecutePlan(plan, tracer, parent));
  EagerExec exec;
  exec.result = std::move(outcome.result);
  exec.response_ms = outcome.response_ms;
  exec.fully_local = plan.fully_local;
  for (const PlanSource& s : plan.sources) {
    if (s.kind == PlanSource::Kind::kElement) {
      exec.any_element_source = true;
      break;
    }
  }
  session.metrics().local_ms += outcome.local_ms;
  return exec;
}

double Cms::EstimateResultBytes(const CaqlQuery& query) const {
  auto sql = rdi_.Translate(query, query.HeadVariables());
  if (!sql.ok()) return 0;
  // ~40 bytes per tuple is representative of the small tuples in play.
  return remote_->EstimateCardinality(*sql) * 40.0;
}

Result<bool> Cms::MaybeGeneralize(CmsSession& session, const CaqlQuery& query,
                                  const std::string& view_id,
                                  double* response_ms, obs::SpanId parent) {
  if (!config_.enable_generalization || !config_.enable_advice ||
      !config_.enable_caching || view_id.empty()) {
    return false;
  }
  const advice::CompiledView* view = session.FindView(view_id);
  if (view == nullptr) return false;
  // Only useful when the instance actually binds constants.
  bool has_constant = false;
  for (const Term& t : query.head_args) {
    if (t.is_constant()) has_constant = true;
  }
  if (!has_constant) return false;
  if (!session.ShouldGeneralize(view_id, query)) return false;

  const CaqlQuery& general = view->general;
  // A background prefetch may already be computing exactly this general
  // form: wait for it rather than duplicating its remote fetches, then
  // install its result so the admission probe below sees it cached.
  if (prefetcher_->Join(view->key.text)) {
    ++session.metrics().prefetch_joins;
    InstallCompletedPrefetches(session, prefetcher_->Harvest());
  }
  // Already cached? Too large to pay off? Overloaded? (Generalization
  // has no fully-local skip: deriving the general form from cached data
  // is still worth materializing for the exact-match fast path.)
  const SpeculativeAdmission verdict = JudgeSpeculative(
      cache_.model(), planner_, general, view->key,
      [this, &general] { return EstimateResultBytes(general); },
      config_.cache_budget_bytes,
      /*skip_if_fully_local=*/false, /*plan_out=*/nullptr,
      load_controller_.get());
  if (verdict == SpeculativeAdmission::kShedOverload) {
    RecordShed(ShedKind::kGeneralization, parent);
    return false;
  }
  if (verdict != SpeculativeAdmission::kAdmit) return false;
  BRAID_ASSIGN_OR_RETURN(EagerExec exec, ExecuteEager(session, general));
  *response_ms += exec.response_ms;
  CacheResult(session, general, view->key,
              std::make_shared<const rel::Relation>(std::move(exec.result)),
              view_id);
  ++session.metrics().generalizations;
  return true;
}

void Cms::MaybePrefetch(CmsSession& session, const std::string& current_view,
                        obs::SpanId parent) {
  if (!config_.enable_prefetch || !config_.enable_advice ||
      !config_.enable_caching) {
    return;
  }
  // Memoized rejections are judged against one cache-content version;
  // any insert or eviction since then can flip a verdict, so the memo is
  // dropped wholesale. (Advice changes keep it: a verdict depends on the
  // query and the cache only.)
  if (session.prefetch_rejects_version() != cache_.model().version()) {
    session.prefetch_rejects().clear();
    session.prefetch_rejects_version() = cache_.model().version();
  }

  // Soonest-predicted-first: with a bounded number of in-flight slots,
  // the views the tracker expects next deserve them.
  std::vector<std::pair<size_t, std::string>> ranked;
  for (const std::string& candidate : session.PrefetchCandidates()) {
    if (candidate == current_view) continue;
    ranked.emplace_back(
        session.PredictedDistance(candidate)
            .value_or(std::numeric_limits<size_t>::max()),
        candidate);
  }
  std::sort(ranked.begin(), ranked.end());

  for (const auto& [distance, candidate] : ranked) {
    // The view's general form and key were compiled with the advice, so an
    // already-cached candidate costs one probe of the precompiled key.
    const advice::CompiledView* view = session.FindView(candidate);
    if (view == nullptr) continue;
    const CaqlQuery& general = view->general;
    const caql::QueryKey& key = view->key;
    if (prefetcher_->InFlight(key.text)) continue;  // already being fetched
    if (session.prefetch_rejects().count(key) > 0) {
      prefetch_memo_hits_->Increment();
      continue;
    }

    Plan plan;
    const SpeculativeAdmission verdict = JudgeSpeculative(
        cache_.model(), planner_, general, key,
        [this, &general] { return EstimateResultBytes(general); },
        config_.cache_budget_bytes, /*skip_if_fully_local=*/true, &plan,
        load_controller_.get());
    if (verdict == SpeculativeAdmission::kShedOverload) {
      // Overload applies to the whole pass, not this candidate: count the
      // shed once and stop (not memoized — the verdict is transient and
      // flips back as soon as the queue drains).
      RecordShed(ShedKind::kPrefetch, parent);
      return;
    }
    if (verdict == SpeculativeAdmission::kAlreadyCached) continue;
    if (verdict != SpeculativeAdmission::kAdmit) {
      // Stable for the current cache contents + advice — memoize so the
      // next query's admission pass skips the size estimate and planning.
      session.prefetch_rejects().insert(key);
      prefetch_rejected_->Increment();
      continue;
    }

    // Background execution requires an all-remote plan: a plan that reads
    // cache elements would pin them from a task that nothing serializes
    // against the session's own query flow, for little gain (there is no
    // remote latency to hide in the cached part anyway).
    bool all_remote = true;
    for (const PlanSource& s : plan.sources) {
      if (s.kind != PlanSource::Kind::kRemote) all_remote = false;
    }
    for (const PlanSource& s : plan.anti_sources) {
      if (s.kind != PlanSource::Kind::kRemote) all_remote = false;
    }
    if (config_.prefetch_async && all_remote) {
      PrefetchJob job;
      job.query = general;
      job.view_id = candidate;
      job.key = key;
      job.session_id = session.id();
      job.plan = std::move(plan);
      prefetcher_->Launch(std::move(job));  // capacity refusal: retry later
      continue;
    }

    // Foreground fallback (async disabled, or the plan touches cache
    // elements). Cost is still charged to prefetch_ms, not any response.
    auto exec = ExecuteEager(session, general);
    if (!exec.ok()) continue;
    session.metrics().prefetch_ms += exec->response_ms;
    CacheResult(session, general, key,
                std::make_shared<const rel::Relation>(std::move(exec->result)),
                candidate);
    ++session.metrics().prefetches;
  }
}

bool Cms::TryAnswerExact(CmsSession& session, const caql::QueryKey& key,
                         obs::SpanId parent, CmsAnswer* answer) {
  obs::SpanScope probe(&tracer_, "exact_probe", parent);
  CacheElementPtr exact = cache_.model().ByCanonicalKey(key);
  if (exact == nullptr || !exact->is_materialized()) return false;
  cache_.Touch(*exact);
  ++session.metrics().exact_hits;
  answer->relation = exact->extension();
  answer->stream = std::make_unique<stream::ScanStream>(answer->relation);
  answer->outcome = CacheOutcome::kExact;
  answer->response_ms =
      exact->extension()->NumTuples() * config_.local_per_tuple_ms;
  probe.SetModeledMs(answer->response_ms);
  probe.Annotate("hit", exact->id());
  session.metrics().response_ms += answer->response_ms;
  return true;
}

Result<CmsAnswer> Cms::Query(const CaqlQuery& query) {
  return Query(*default_session_, query);
}

std::future<Result<CmsAnswer>> Cms::QueryAsync(CmsSession& session,
                                               const caql::CaqlQuery& query) {
  return QueryAsync(session, query, /*done=*/nullptr);
}

std::future<Result<CmsAnswer>> Cms::QueryAsync(CmsSession& session,
                                               const caql::CaqlQuery& query,
                                               QueryCallback done) {
  auto promise = std::make_shared<std::promise<Result<CmsAnswer>>>();
  std::future<Result<CmsAnswer>> future = promise->get_future();
  // Admission control (DESIGN.md §13): beyond the queue bound, added
  // queueing only adds latency, never goodput — refuse cleanly instead.
  // Checked before enqueueing, so a refused query consumes nothing.
  if (!load_controller_->AdmitQuery()) {
    Result<CmsAnswer> refused{Status::Overloaded(
        StrCat("session scheduler queue at ", load_controller_->QueueDepth(),
               " (bound ", load_controller_->policy().admission_queue_bound,
               "); retry after backing off"))};
    if (done) done(refused);
    promise->set_value(std::move(refused));
    return future;
  }
  const auto enqueued = std::chrono::steady_clock::now();
  scheduler_->Enqueue(
      session.id(),
      [this, &session, query, promise, done = std::move(done), enqueued] {
        Result<CmsAnswer> result = Query(session, query);
        // Foreground latency is enqueue-to-completion: queueing delay is
        // precisely the overload signal the controller watches.
        load_controller_->OnForegroundLatency(
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - enqueued)
                .count());
        if (done) done(result);
        promise->set_value(std::move(result));
      });
  return future;
}

void Cms::RecordShed(ShedKind kind, obs::SpanId parent) {
  load_controller_->CountShed(kind);
  obs::SpanScope span(&tracer_, "shed", parent);
  span.Annotate("kind", ShedKindName(kind));
  span.Annotate("queue_depth", StrCat(load_controller_->QueueDepth()));
}

Result<CmsAnswer> Cms::Query(CmsSession& session, const CaqlQuery& query) {
  BRAID_RETURN_IF_ERROR(query.Validate());
  CmsMetrics& metrics = session.metrics();
  // Background prefetches that finished since this session's last query
  // are installed here; the striped cache makes the install safe alongside
  // other sessions' concurrent lookups.
  InstallCompletedPrefetches(session, prefetcher_->Harvest());
  cache_.Tick();
  ++metrics.ie_queries;
  // Every query records a span tree rooted here; children are added by
  // the planner (plan/subsumption) and the execution monitor
  // (prep/fetch/assembly), the latter possibly from pool threads.
  obs::SpanScope root(&tracer_, "query");
  root.Annotate("name", query.name);
  const std::string view_id = config_.enable_advice ? query.name : "";
  {
    obs::SpanScope advice_span(&tracer_, "advice", root.id());
    session.OnQuery(view_id);
  }

  CmsAnswer answer;
  double response_ms = 0;
  // The query's one canonical key and hash: the exact probe, the prefetch
  // join and the result install all use it.
  const caql::QueryKey key =
      config_.enable_caching ? query.Key() : caql::QueryKey{};

  // Exact-match fast path (result caching).
  if (config_.enable_caching &&
      TryAnswerExact(session, key, root.id(), &answer)) {
    root.SetModeledMs(answer.response_ms);
    root.Annotate("outcome", CacheOutcomeName(answer.outcome));
    root.End();
    MaybePrefetch(session, view_id, root.id());
    return answer;
  }

  // A background prefetch may be computing this very answer right now:
  // join it instead of issuing a duplicate remote fetch. The exact
  // canonical key catches the general form asked for directly; the view
  // join catches a constant-bound instance whose view's generalization
  // is in flight (answered below via subsumption once installed).
  if (config_.enable_caching && config_.enable_prefetch &&
      (prefetcher_->Join(key.text) ||
       (!view_id.empty() && prefetcher_->JoinView(view_id)))) {
    ++metrics.prefetch_joins;
    InstallCompletedPrefetches(session, prefetcher_->Harvest());
    if (TryAnswerExact(session, key, root.id(), &answer)) {
      root.SetModeledMs(answer.response_ms);
      root.Annotate("outcome", CacheOutcomeName(answer.outcome));
      root.Annotate("joined_prefetch", "yes");
      root.End();
      MaybePrefetch(session, view_id, root.id());
      return answer;
    }
  }

  // Step 1: possibly evaluate a more general query first.
  bool generalized = false;
  {
    obs::SpanScope gen(&tracer_, "generalize", root.id());
    BRAID_ASSIGN_OR_RETURN(
        generalized,
        MaybeGeneralize(session, query, view_id, &response_ms, gen.id()));
    gen.Annotate("generalized", generalized ? "yes" : "no");
    if (generalized) gen.SetModeledMs(response_ms);
  }
  (void)generalized;

  // Steps 2-3: plan.
  BRAID_ASSIGN_OR_RETURN(Plan plan,
                         planner_.PlanQuery(query, &tracer_, root.id()));

  // Plan sources served by derived intermediates are subsumption hits on
  // cached stage results — the payoff the admission gate predicted.
  size_t derived_sources = 0;
  for (const PlanSource& s : plan.sources) {
    if (s.kind == PlanSource::Kind::kElement && s.element != nullptr &&
        s.element->is_derived()) {
      ++derived_sources;
    }
  }
  if (derived_sources > 0) {
    intermediate_hits_->Increment(derived_sources);
    root.Annotate("intermediate_sources", StrCat(derived_sources));
  }

  // Lazy evaluation: only when every needed datum is cached (§5.1) and
  // advice marks the view all-producer (§5.3.3 guideline).
  if (plan.fully_local && config_.enable_lazy && config_.enable_advice &&
      session.LazyHint(view_id)) {
    auto stream = monitor_.BuildLazyStream(plan);
    if (stream.ok()) {
      ++metrics.lazy_answers;
      answer.lazy = true;
      answer.stream = std::move(*stream);
      answer.outcome = CacheOutcome::kLazy;
      answer.response_ms = response_ms;  // setup only; tuples are on demand
      metrics.response_ms += answer.response_ms;
      root.SetModeledMs(response_ms);
      root.Annotate("outcome", CacheOutcomeName(answer.outcome));
      root.End();
      MaybePrefetch(session, view_id, root.id());
      return answer;
    }
  }

  // Eager execution; the collector offers every DAG stage to the
  // admission gate (only for the full query path — speculative work like
  // generalization and prefetch already caches whole views).
  std::unique_ptr<IntermediateCollector> collector;
  if (config_.enable_caching && config_.enable_intermediates &&
      !config_.single_relation_only) {
    // SETOF queries keep their bag-form stages (more informative than the
    // cached SETOF result); heads with constants or repeated variables
    // can never equal a stage's all-distinct-variable head.
    bool plain_head = !query.distinct;
    for (const Term& t : query.head_args) {
      plain_head = plain_head && t.is_variable();
    }
    collector = std::make_unique<IntermediateCollector>(
        &cache_, &session, &tracer_, root.id(), view_id,
        plain_head ? NormalizedStageKey(query) : std::string(),
        config_.local_per_tuple_ms);
  }
  BRAID_ASSIGN_OR_RETURN(ExecutionOutcome outcome,
                         monitor_.ExecutePlan(plan, &tracer_, root.id(),
                                              collector.get()));
  response_ms += outcome.response_ms;
  metrics.local_ms += outcome.local_ms;

  bool any_element = false;
  for (const PlanSource& s : plan.sources) {
    if (s.kind == PlanSource::Kind::kElement) any_element = true;
  }
  if (plan.fully_local) {
    ++metrics.full_local_hits;
    answer.outcome = CacheOutcome::kFullLocal;
  } else if (any_element) {
    ++metrics.partial_hits;
    answer.outcome = CacheOutcome::kPartial;
  } else {
    ++metrics.remote_only;
    answer.outcome = CacheOutcome::kRemote;
  }

  // Result caching (repeats then take the exact-match fast path). The
  // answer and the cache element share the one immutable relation.
  answer.relation =
      std::make_shared<const rel::Relation>(std::move(outcome.result));
  CacheResult(session, query, key, answer.relation, view_id);
  answer.stream = std::make_unique<stream::ScanStream>(answer.relation);
  answer.response_ms = response_ms;
  metrics.response_ms += response_ms;
  root.SetModeledMs(response_ms);
  root.Annotate("outcome", CacheOutcomeName(answer.outcome));
  root.End();
  MaybePrefetch(session, view_id, root.id());
  return answer;
}

Result<rel::Relation> Cms::Aggregate(const CaqlQuery& query,
                                     const std::vector<std::string>& group_by,
                                     rel::AggFn fn,
                                     const std::string& agg_var) {
  BRAID_ASSIGN_OR_RETURN(CmsAnswer answer, Query(query));
  rel::Relation input =
      answer.relation != nullptr
          ? *answer.relation
          : stream::Drain(*answer.stream, query.name);
  std::vector<size_t> group_cols;
  for (const std::string& g : group_by) {
    auto col = input.schema().ColumnIndex(g);
    if (!col.has_value()) {
      return Status::InvalidArgument(StrCat("group-by variable ", g,
                                            " not in query head"));
    }
    group_cols.push_back(*col);
  }
  size_t agg_col = 0;
  if (fn != rel::AggFn::kCount) {
    auto col = input.schema().ColumnIndex(agg_var);
    if (!col.has_value()) {
      return Status::InvalidArgument(StrCat("aggregate variable ", agg_var,
                                            " not in query head"));
    }
    agg_col = *col;
  }
  return rel::Aggregate(input, group_cols,
                        {rel::AggSpec{fn, agg_col, agg_var.empty()
                                                       ? std::string("agg")
                                                       : agg_var}});
}

Result<rel::Relation> Cms::QuerySorted(
    const CaqlQuery& query, const std::vector<std::string>& order_by) {
  // Column positions of the ordering variables within the head.
  std::vector<size_t> cols;
  for (const std::string& var : order_by) {
    bool found = false;
    for (size_t i = 0; i < query.head_args.size(); ++i) {
      const Term& t = query.head_args[i];
      if (t.is_variable() && t.var_name() == var) {
        cols.push_back(i);
        found = true;
        break;
      }
    }
    if (!found) {
      return Status::InvalidArgument(
          StrCat("order-by variable ", var, " is not a head variable"));
    }
  }

  BRAID_ASSIGN_OR_RETURN(CmsAnswer answer, Query(query));
  if (!answer.lazy) {
    // When the answer lives in the cache (exact hit, or just cached by
    // Query), keep the sorted copy as a co-existing alternative
    // representation of that element, budget permitting, and reuse it
    // next time.
    CacheElementPtr element = cache_.model().ByCanonicalKey(query.Key());
    if (element != nullptr && element->is_materialized()) {
      auto rep = element->sorted(cols);
      const bool reused = rep != nullptr;
      if (!reused) rep = cache_.EnsureSorted(element, cols);
      if (rep != nullptr) {
        if (!reused) {
          metrics().local_ms += rep->NumTuples() * config_.local_per_tuple_ms;
        }
        return *rep;
      }
    }
  }
  rel::Relation input = answer.relation != nullptr
                            ? *answer.relation
                            : stream::Drain(*answer.stream, query.name);
  metrics().local_ms += input.NumTuples() * config_.local_per_tuple_ms;
  return rel::Sort(input, cols);
}

Result<rel::Relation> Cms::QueryUnion(
    const std::vector<CaqlQuery>& branches, bool distinct) {
  if (branches.empty()) {
    return Status::InvalidArgument("union of zero branches");
  }
  rel::Relation result;
  bool first = true;
  for (const CaqlQuery& branch : branches) {
    BRAID_ASSIGN_OR_RETURN(CmsAnswer answer, Query(branch));
    rel::Relation part = answer.relation != nullptr
                             ? *answer.relation
                             : stream::Drain(*answer.stream, branch.name);
    if (first) {
      result = std::move(part);
      first = false;
      continue;
    }
    if (part.schema().size() != result.schema().size()) {
      return Status::InvalidArgument(
          StrCat("union branch ", branch.name, " has arity ",
                 part.schema().size(), ", expected ",
                 result.schema().size()));
    }
    for (rel::Tuple& t : part.mutable_tuples()) {
      result.AppendUnchecked(std::move(t));
    }
  }
  if (distinct) {
    rel::Relation deduped = exec::Distinct(exec_context(), result);
    deduped.set_name(result.name());
    return deduped;
  }
  return result;
}

Result<rel::Relation> Cms::TransitiveClosure(const std::string& edge_predicate) {
  const std::string closure_pred = StrCat("closure$", edge_predicate);
  CaqlQuery closure_def;
  closure_def.name = closure_pred;
  closure_def.head_args = {Term::Var("X"), Term::Var("Y")};
  closure_def.body = {logic::Atom(closure_pred, {Term::Var("X"),
                                                 Term::Var("Y")})};
  if (config_.enable_caching) {
    CacheElementPtr cached =
        cache_.model().ByCanonicalKey(closure_def.Key());
    if (cached != nullptr && cached->is_materialized()) {
      cache_.Touch(*cached);
      return *cached->extension();
    }
  }

  // Fetch the edge relation (through the normal query path so a cached
  // copy is reused) and run the fixed-point operator locally.
  CaqlQuery edges;
  edges.name = StrCat(edge_predicate, "_edges");
  edges.head_args = {Term::Var("X"), Term::Var("Y")};
  edges.body = {logic::Atom(edge_predicate, {Term::Var("X"), Term::Var("Y")})};
  BRAID_ASSIGN_OR_RETURN(CmsAnswer answer, Query(edges));
  rel::Relation edge_rel = answer.relation != nullptr
                               ? *answer.relation
                               : stream::Drain(*answer.stream, edges.name);
  LocalWork work;
  rel::Relation closure =
      QueryProcessor::TransitiveClosure(edge_rel, 0, 1, &work);
  metrics().local_ms += work.tuples_processed * config_.local_per_tuple_ms;
  metrics().response_ms += work.tuples_processed * config_.local_per_tuple_ms;

  if (config_.enable_caching && !config_.single_relation_only) {
    rel::Relation copy = closure;
    copy.set_name(closure_pred);
    auto element = std::make_shared<CacheElement>(
        cache_.model().NextId(), closure_def,
        std::make_shared<rel::Relation>(std::move(copy)));
    cache_.Insert(std::move(element));
  }
  return closure;
}

}  // namespace braid::cms
