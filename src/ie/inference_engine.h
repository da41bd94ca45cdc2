#ifndef BRAID_IE_INFERENCE_ENGINE_H_
#define BRAID_IE_INFERENCE_ENGINE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>

#include "advice/advice.h"
#include "cms/cms.h"
#include "common/status.h"
#include "ie/compiled_strategy.h"
#include "ie/interpreted_strategy.h"
#include "ie/path_creator.h"
#include "ie/problem_graph.h"
#include "ie/shaper.h"
#include "ie/view_specifier.h"
#include "logic/knowledge_base.h"

namespace braid::ie {

/// Deductive search strategies available as "function suites" (paper §4:
/// the IE has no built-in strategy; components combine into strategies
/// along the I-C range, as in the FDE).
enum class StrategyKind {
  kInterpreted,  // depth-first, chronological backtracking, tuple-at-a-time
  kCompiled,     // bottom-up, set-at-a-time, all solutions
};

struct IeConfig {
  StrategyKind strategy = StrategyKind::kInterpreted;
  size_t max_conjunction_size = 3;  // view-specifier flattening parameter
  size_t max_depth = 64;
  size_t max_solutions = SIZE_MAX;  // 1 = single-solution (Prolog) mode
  bool send_advice = true;           // transmit view specs + path expression
  bool send_path_expression = true;
  bool shaper_reorder = true;
  bool shaper_cull = true;

  bool operator==(const IeConfig& other) const = default;
};

/// The result of pre-analysis: the shaped problem graph, the view
/// specifications with rule plans, and the advice set that would be sent
/// to the CMS.
struct Preanalysis {
  ProblemGraph graph;
  ViewSpecification spec;
  advice::AdviceSet advice;
};

/// The outcome of answering one AI query.
struct AskOutcome {
  rel::Relation solutions;  // one row per solution, columns = query vars
  /// The pre-analysis the Ask ran on: its rule plans and advice.
  std::shared_ptr<const CompiledPreanalysis> preanalysis;
  InterpreterStats interpreter_stats;  // meaningful for kInterpreted
  CompiledStats compiled_stats;        // meaningful for kCompiled

  /// The pre-analysis's advice (sent to the CMS unless send_advice is off).
  const advice::AdviceSet& advice() const {
    return preanalysis->advice->advice();
  }
};

/// The BrAID inference engine (paper §4, Fig. 4). `Ask` runs the full
/// pipeline: query translation, problem-graph extraction, shaping, view
/// specification, path-expression creation, advice transmission (session
/// start), then inference under the configured strategy, with all database
/// access routed through the CMS as CAQL queries.
///
/// Ask memoizes its pre-analysis (DESIGN.md §6 "Pre-analysis memo"): an
/// entry is keyed by the exact goal, the IeConfig and the knowledge base's
/// version, and is reused while every cache-residency bit its shaping
/// consulted still holds. The memo is bounded (kMemoCapacity, least
/// recently used out first) and belongs to this engine, which one thread
/// drives at a time.
class InferenceEngine {
 public:
  /// Memoized pre-analyses kept at most.
  static constexpr size_t kMemoCapacity = 4096;

  InferenceEngine(const logic::KnowledgeBase* kb, cms::Cms* cms,
                  IeConfig config = {})
      : kb_(kb), cms_(cms), config_(config) {}

  // The memo index holds iterators into the memo list.
  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  /// Pre-analysis only (no session, no inference, no memo): always
  /// computed fresh, the reference a memoized Ask must agree with. Used by
  /// tests and by callers that want to inspect the advice.
  Result<Preanalysis> Analyze(const logic::Atom& query) const;

  /// Answers an AI query (an atomic formula, e.g. parsed from "k1(X,Y)?").
  Result<AskOutcome> Ask(const logic::Atom& query);

  /// Convenience: parses `query_text` with the query translator first.
  Result<AskOutcome> Ask(const std::string& query_text);

  const IeConfig& config() const { return config_; }
  void set_config(IeConfig config) { config_ = config; }

  /// Memoized pre-analyses currently held (at most kMemoCapacity).
  size_t memo_size() const { return memo_.size(); }

 private:
  struct MemoEntry {
    logic::Atom goal;
    IeConfig config;
    uint64_t kb_version = 0;
    ResidencyBits residency;  // what the shaping consulted
    std::shared_ptr<const CompiledPreanalysis> preanalysis;
  };
  using MemoList = std::list<MemoEntry>;  // most recently used first

  /// Analyze, appending the residency bits the shaper consulted.
  Result<Preanalysis> Analyze(const logic::Atom& query,
                              ResidencyBits* residency) const;

  /// The compiled pre-analysis of `query`: the memoized one while it is
  /// valid, else a fresh one, which is memoized.
  Result<std::shared_ptr<const CompiledPreanalysis>> Preanalyze(
      const logic::Atom& query);

  const logic::KnowledgeBase* kb_;
  cms::Cms* cms_;
  IeConfig config_;

  MemoList memo_;
  /// Goal hash -> entry; goals that differ only in config share a hash.
  std::unordered_multimap<size_t, MemoList::iterator> memo_index_;
};

}  // namespace braid::ie

#endif  // BRAID_IE_INFERENCE_ENGINE_H_
