#include "cms/cache_element.h"

#include <sstream>

#include "relational/operators.h"

namespace braid::cms {

namespace {

/// Definition and bookkeeping, charged to every element.
constexpr size_t kElementOverheadBytes = 128;

}  // namespace

void CacheByteTotals::Charge(bool is_derived, size_t bytes) {
  if (is_derived) derived_.fetch_add(bytes, std::memory_order_acq_rel);
  const size_t now =
      resident_.fetch_add(bytes, std::memory_order_acq_rel) + bytes;
  resident_gauge_->Set(static_cast<int64_t>(now));
}

void CacheByteTotals::Discharge(bool is_derived, size_t bytes) {
  if (is_derived) derived_.fetch_sub(bytes, std::memory_order_acq_rel);
  const size_t now =
      resident_.fetch_sub(bytes, std::memory_order_acq_rel) - bytes;
  resident_gauge_->Set(static_cast<int64_t>(now));
}

CacheElement::CacheElement(std::string id, caql::CaqlQuery definition,
                           std::shared_ptr<const rel::Relation> extension,
                           caql::QueryKey key)
    : id_(std::move(id)),
      definition_(std::move(definition)),
      key_(std::move(key)),
      extension_(std::move(extension)),
      bytes_(kElementOverheadBytes +
             (extension_ != nullptr ? extension_->ByteSize() : 0)) {
  // A canonical key is never empty text, so empty means "not supplied".
  if (key_.text.empty()) key_ = definition_.Key();
}

CacheElement::CacheElement(std::string id, caql::CaqlQuery definition)
    : id_(std::move(id)),
      definition_(std::move(definition)),
      key_(definition_.Key()),
      bytes_(kElementOverheadBytes) {}

void CacheElement::Grow(size_t bytes) {
  bytes_ += bytes;
  if (charged_ != nullptr) charged_->Charge(derived_, bytes);
}

void CacheElement::ChargeTo(CacheByteTotals* totals) {
  MutexLock lock(&repr_mu_);
  charged_ = totals;
  charged_->Charge(derived_, bytes_);
}

size_t CacheElement::Discharge() {
  MutexLock lock(&repr_mu_);
  if (charged_ == nullptr) return 0;
  charged_->Discharge(derived_, bytes_);
  charged_ = nullptr;
  return bytes_;
}

std::shared_ptr<const rel::HashIndex> CacheElement::index(size_t column) const {
  MutexLock lock(&repr_mu_);
  auto it = indexes_.find(column);
  return it == indexes_.end() ? nullptr : it->second;
}

std::shared_ptr<const rel::HashIndex> CacheElement::EnsureIndex(size_t column) {
  // The build runs under the lock: two sessions racing to index the same
  // column then share one index instead of building twice. Extensions are
  // small enough that holding the (per-element) lock across the build is
  // cheaper than a double-build.
  MutexLock lock(&repr_mu_);
  auto it = indexes_.find(column);
  if (it != indexes_.end()) return it->second;
  if (extension_ == nullptr) return nullptr;
  auto index = std::make_shared<rel::HashIndex>(*extension_, column);
  indexes_.emplace(column, index);
  Grow(index->ByteSize());
  return index;
}

std::shared_ptr<const rel::Relation> CacheElement::EnsureSorted(
    const std::vector<size_t>& columns) {
  MutexLock lock(&repr_mu_);
  auto it = sorted_.find(columns);
  if (it != sorted_.end()) return it->second;
  if (extension_ == nullptr) return nullptr;
  auto rep =
      std::make_shared<rel::Relation>(rel::Sort(*extension_, columns));
  sorted_.emplace(columns, rep);
  Grow(rep->ByteSize());
  return rep;
}

std::shared_ptr<const rel::Relation> CacheElement::sorted(
    const std::vector<size_t>& columns) const {
  MutexLock lock(&repr_mu_);
  auto it = sorted_.find(columns);
  return it == sorted_.end() ? nullptr : it->second;
}

size_t CacheElement::NumSortedRepresentations() const {
  MutexLock lock(&repr_mu_);
  return sorted_.size();
}

size_t CacheElement::ByteSize() const {
  MutexLock lock(&repr_mu_);
  return bytes_;
}

size_t CacheElement::ComputeByteSize() const {
  MutexLock lock(&repr_mu_);
  size_t total = kElementOverheadBytes;
  if (extension_ != nullptr) total += extension_->ByteSize();
  for (const auto& [col, idx] : indexes_) total += idx->ByteSize();
  for (const auto& [cols, rep] : sorted_) total += rep->ByteSize();
  return total;
}

std::string CacheElement::ToString() const {
  std::ostringstream os;
  os << id_ << ": " << definition_.ToString() << " ["
     << (is_materialized()
             ? std::to_string(extension_->NumTuples()) + " tuples"
             : "generator")
     << ", " << ByteSize() << " bytes, hits="
     << stats_.hits.load(std::memory_order_relaxed) << "]";
  return os.str();
}

}  // namespace braid::cms
