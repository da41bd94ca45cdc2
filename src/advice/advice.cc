#include "advice/advice.h"

#include <sstream>

#include "common/strings.h"

namespace braid::advice {

std::string AdviceSet::ToString() const {
  std::ostringstream os;
  if (!base_relations.empty()) {
    os << "base relations: " << StrJoin(base_relations, ", ") << "\n";
  }
  for (const ViewSpec& v : view_specs) {
    os << v.ToString() << "\n";
  }
  if (path_expression != nullptr) {
    os << "path: " << path_expression->ToString() << "\n";
  }
  return os.str();
}

CompiledAdvice::CompiledAdvice(AdviceSet advice) : advice_(std::move(advice)) {
  views_.reserve(advice_.view_specs.size());
  for (const ViewSpec& v : advice_.view_specs) {
    CompiledView& compiled = views_.emplace_back();
    compiled.spec = &v;
    compiled.general = v.AsCaql();
    compiled.key = compiled.general.Key();
  }
  if (advice_.path_expression != nullptr) {
    automaton_ = std::make_shared<const PathAutomaton>(*advice_.path_expression);
  }
}

const std::shared_ptr<const CompiledAdvice>& CompiledAdvice::Empty() {
  static const std::shared_ptr<const CompiledAdvice> empty =
      Compile(AdviceSet{});
  return empty;
}

const CompiledView* CompiledAdvice::FindView(const std::string& id) const {
  for (const CompiledView& v : views_) {
    if (v.spec->id == id) return &v;
  }
  return nullptr;
}

}  // namespace braid::advice
