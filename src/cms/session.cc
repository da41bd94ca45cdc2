#include "cms/session.h"

#include <sstream>
#include <utility>

namespace braid::cms {

std::string CmsMetrics::ToString() const {
  std::ostringstream os;
  os << "queries=" << ie_queries << " exact=" << exact_hits
     << " full_local=" << full_local_hits << " lazy=" << lazy_answers
     << " partial=" << partial_hits << " remote_only=" << remote_only
     << " prefetches=" << prefetches << " prefetch_joins=" << prefetch_joins
     << " generalizations=" << generalizations
     << " response_ms=" << response_ms << " local_ms=" << local_ms
     << " prefetch_ms=" << prefetch_ms;
  return os.str();
}

void CmsSession::InstallAdvice(advice::CompiledAdvicePtr advice) {
  MutexLock lock(&advice_mu_);
  advice_.BeginSession(std::move(advice));
  index_.Replace(&published_, advice_.advice().base_relations,
                 advice_.tracker());
}

void CmsSession::WithdrawAdvice() {
  MutexLock lock(&advice_mu_);
  index_.Withdraw(&published_);
}

void CmsSession::OnQuery(const std::string& view_id) {
  MutexLock lock(&advice_mu_);
  advice_.OnQuery(view_id);
  const advice::PathTracker* tracker = advice_.tracker();
  if (tracker != nullptr) index_.Update(&published_, tracker->distances());
}

std::set<std::string> CmsSession::PrefetchCandidates() const {
  MutexLock lock(&advice_mu_);
  return advice_.PrefetchCandidates();
}

std::vector<std::string> CmsSession::IndexHints(
    const std::string& view_id) const {
  MutexLock lock(&advice_mu_);
  return advice_.IndexHints(view_id);
}

bool CmsSession::LazyHint(const std::string& view_id) const {
  MutexLock lock(&advice_mu_);
  return advice_.LazyHint(view_id);
}

std::optional<size_t> CmsSession::PredictedDistance(
    const std::string& view_id) const {
  MutexLock lock(&advice_mu_);
  return advice_.PredictedDistance(view_id);
}

bool CmsSession::ShouldGeneralize(const std::string& view_id,
                                  const caql::CaqlQuery& instance) const {
  MutexLock lock(&advice_mu_);
  return advice_.ShouldGeneralize(view_id, instance);
}

const advice::CompiledView* CmsSession::FindView(
    const std::string& id) const {
  MutexLock lock(&advice_mu_);
  return advice_.FindView(id);
}

std::optional<size_t> CmsSession::AdvisedDistance(const CacheElement& element,
                                                  size_t horizon) const {
  MutexLock lock(&advice_mu_);
  auto distance = advice_.PredictedDistance(element.origin_view());
  if (distance.has_value()) return distance;
  for (const logic::Atom& a : element.definition().RelationAtoms()) {
    if (advice_.SessionRelevant(a.predicate)) {
      return horizon > 0 ? horizon - 1 : 0;
    }
  }
  return std::nullopt;
}

}  // namespace braid::cms
