#include "workloads.h"

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "caql/caql_query.h"
#include "common/strings.h"
#include "ie/inference_engine.h"
#include "logic/knowledge_base.h"
#include "logic/parser.h"
#include "stream/tuple_stream.h"
#include "testing/reference_eval.h"
#include "testing/workload_gen.h"
#include "workload/generators.h"

namespace perfbench {

using braid::StrCat;
using braid::caql::CaqlQuery;
using braid::cms::Cms;
using braid::cms::CmsAnswer;
using braid::cms::CmsConfig;
using braid::cms::CmsMetrics;
using braid::cms::CmsSession;
using braid::rel::Relation;
using braid::rel::Tuple;
using braid::rel::Value;
using braid::rel::ValueType;

namespace {

/// The CMS pool: with the single client thread, one thread per vCPU of the
/// 4-vCPU reference machine.
constexpr size_t kPoolThreads = 3;

/// Every workload's data comes from a fixed generator seed; the benchmark
/// seed drives the op stream (which ops, in which order). Across data
/// seeds the mean answer size alone moves 9% for 250 people (deeper or
/// shallower family trees), and generated CAQL workloads differ up to 20x
/// in cost per query, which would swamp any run-to-run bound.
constexpr uint64_t kGenealogyDataSeed = 42;

braid::dbms::Database MakeGenealogy(size_t people) {
  braid::workload::GenealogyParams params;
  params.people = people;
  params.seed = kGenealogyDataSeed;
  return braid::workload::MakeGenealogyDatabase(params);
}

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Deterministic draw in [0, n) for position `i` of the stream `salt`.
uint64_t Draw(uint64_t seed, uint64_t salt, uint64_t i, uint64_t n) {
  return Mix(Mix(seed * 0x100000001b3ull + salt) + i) % n;
}

/// Order-independent bag fingerprint of a relation: the row count plus the
/// wrapping sum of a mixed hash per row, so equal bags in any order match
/// and a changed multiplicity does not.
struct Fingerprint {
  uint64_t rows = 0;
  uint64_t sum = 0;
  bool operator==(const Fingerprint& o) const = default;
};

void AddRow(const Tuple& row, Fingerprint* fp) {
  uint64_t h = 0x84222325cbf29ce4ull;
  for (const Value& v : row) {
    uint64_t x = 0;
    switch (v.type()) {
      case ValueType::kNull:
        x = 0x6e756c6cull;
        break;
      case ValueType::kInt:
        x = Mix(static_cast<uint64_t>(v.AsInt()));
        break;
      case ValueType::kDouble:
        x = Mix(std::hash<double>{}(v.AsDouble()) ^ 0xd0ull);
        break;
      case ValueType::kString:
        x = Mix(std::hash<std::string>{}(v.AsString()) ^ 0x5ull);
        break;
    }
    h = Mix(h ^ x);
  }
  ++fp->rows;
  fp->sum += Mix(h);
}

Fingerprint FingerprintOf(const Relation& relation) {
  Fingerprint fp;
  for (const Tuple& row : relation.tuples()) AddRow(row, &fp);
  return fp;
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(2);
}

CaqlQuery ParseOrDie(const std::string& text) {
  auto q = braid::caql::ParseCaql(text);
  if (!q.ok()) Die(StrCat("bad CAQL '", text, "': ", q.status().ToString()));
  return std::move(q.value());
}

Relation ReferenceOrDie(const braid::dbms::Database& db, const CaqlQuery& q) {
  auto r = braid::testing::ReferenceEval(db, q);
  if (!r.ok()) {
    Die(StrCat("reference eval of ", q.ToString(), ": ", r.status().ToString()));
  }
  return std::move(r.value());
}

/// Fingerprint of a CMS answer; a lazy answer's stream is drained here,
/// outside the op's time.
Fingerprint AnswerFingerprint(CmsAnswer& answer) {
  if (answer.relation != nullptr) return FingerprintOf(*answer.relation);
  Fingerprint fp;
  if (answer.stream != nullptr) {
    while (std::optional<Tuple> row = answer.stream->Next()) AddRow(*row, &fp);
  }
  return fp;
}

void Accumulate(const CmsMetrics& m, CmsMetrics* total) {
  total->ie_queries += m.ie_queries;
  total->exact_hits += m.exact_hits;
  total->full_local_hits += m.full_local_hits;
  total->lazy_answers += m.lazy_answers;
  total->partial_hits += m.partial_hits;
  total->remote_only += m.remote_only;
  total->prefetches += m.prefetches;
  total->prefetch_joins += m.prefetch_joins;
  total->generalizations += m.generalizations;
  total->response_ms += m.response_ms;
  total->local_ms += m.local_ms;
  total->prefetch_ms += m.prefetch_ms;
}

// ---------------------------------------------------------------------------
// ie_genealogy: seeded Asks through the interpreted IE over a 250-person
// genealogy. The 8 MiB default budget holds the whole working set and
// warm-up asks every (rule, person) pair, so the timed phase is read-only:
// IE inference, exact probes, the post-query prefetch pass and span
// recording.

class IeGenealogy : public Workload {
 public:
  explicit IeGenealogy(uint64_t seed) : seed_(seed) {}

  void Prepare() override {
    const braid::dbms::Database db = MakeDatabase();
    std::map<int64_t, std::vector<int64_t>> parents;
    for (const Tuple& t : db.GetTable("parent")->tuples()) {
      parents[t[0].AsInt()].push_back(t[1].AsInt());
    }
    for (const char* rule : kRules) {
      for (size_t p = 0; p < kPeople; ++p) {
        pairs_.push_back(StrCat(rule, "(", p, ", Y)"));
        reference_.push_back(Reference(db, parents, rule, p));
      }
    }
    // Warm-up order: a seeded permutation of every pair.
    warm_order_.resize(pairs_.size());
    for (size_t i = 0; i < warm_order_.size(); ++i) warm_order_[i] = i;
    for (size_t i = warm_order_.size(); i > 1; --i) {
      std::swap(warm_order_[i - 1], warm_order_[Draw(seed_, 1, i, i)]);
    }
  }

  void Setup() override {
    kb_ = braid::logic::KnowledgeBase();
    remote_ = std::make_unique<TimedRemoteDbms>(
        MakeDatabase(), braid::dbms::NetworkModel{},
        braid::dbms::DbmsCostModel{});
    if (!braid::logic::ParseProgram(braid::workload::GenealogyKb(), &kb_)
             .ok()) {
      Die("genealogy KB does not parse");
    }
    CmsConfig config;
    config.num_threads = kPoolThreads;
    cms_ = std::make_unique<Cms>(remote_.get(), config);
    ie_ = std::make_unique<braid::ie::InferenceEngine>(&kb_, cms_.get());
    atoms_.clear();
    for (const std::string& text : pairs_) {
      auto atom = braid::logic::ParseQueryAtom(text);
      if (!atom.ok()) Die(StrCat("bad query atom ", text));
      atoms_.push_back(std::move(atom.value()));
    }
    // Whole passes over every pair until one installs nothing: from then
    // on every Ask is answered from the cache without a write.
    warm_.assign(pairs_.size(), std::nullopt);
    warm_errors_.clear();
    for (int pass = 0; pass < kMaxWarmPasses; ++pass) {
      const size_t before = cms_->cache().stats().insertions.load();
      for (size_t idx : warm_order_) {
        auto outcome = ie_->Ask(atoms_[idx]);
        if (!outcome.ok()) {
          warm_errors_.push_back(
              StrCat(pairs_[idx], ": ", outcome.status().ToString()));
          continue;
        }
        if (!warm_[idx].has_value()) {
          warm_[idx] = FingerprintOf(outcome->solutions);
        }
      }
      if (cms_->cache().stats().insertions.load() == before) break;
    }
    caql_queries_ = 0;
  }

  void Teardown() override {
    ie_.reset();
    cms_.reset();
    remote_.reset();
  }

  bool CheckSetup(std::string* why) override {
    if (!warm_errors_.empty()) {
      *why = StrCat("warm-up Ask failed: ", warm_errors_.front());
      return false;
    }
    for (size_t i = 0; i < pairs_.size(); ++i) {
      if (warm_[i] != reference_[i]) {
        *why = StrCat("warm-up answer of ", pairs_[i],
                      " differs from the reference");
        return false;
      }
    }
    return true;
  }

  bool RunOp(uint64_t i, OpClock* clock) override {
    const size_t idx = Draw(seed_, 2, i, pairs_.size());
    clock->Begin();
    auto outcome = ie_->Ask(atoms_[idx]);
    clock->End();
    if (!outcome.ok()) return false;
    caql_queries_ += outcome->interpreter_stats.caql_queries;
    return FingerprintOf(outcome->solutions) == warm_[idx];
  }

  uint64_t count_window() const override { return 28000; }
  bool single_query_ops() const override { return false; }
  Cms& cms() override { return *cms_; }
  TimedRemoteDbms& remote() override { return *remote_; }
  CmsMetrics SessionTotals() override { return cms_->metrics(); }
  uint64_t caql_queries() const override { return caql_queries_; }

 private:
  static constexpr size_t kPeople = 250;
  static constexpr int kMaxWarmPasses = 4;
  static constexpr const char* kRules[] = {"ancestor", "grandparent",
                                           "sibling", "greatgrand"};

  static braid::dbms::Database MakeDatabase() { return MakeGenealogy(kPeople); }

  /// Reference answer of rule(p, Y): the reference evaluator on the rule
  /// body with X bound, or for `ancestor` the closure of `parent` from p.
  static Fingerprint Reference(
      const braid::dbms::Database& db,
      const std::map<int64_t, std::vector<int64_t>>& parents,
      const std::string& rule, size_t p) {
    if (rule == "ancestor") {
      Fingerprint fp;
      std::vector<int64_t> frontier{static_cast<int64_t>(p)};
      std::set<int64_t> seen;
      while (!frontier.empty()) {
        const int64_t x = frontier.back();
        frontier.pop_back();
        auto it = parents.find(x);
        if (it == parents.end()) continue;
        for (int64_t y : it->second) {
          if (seen.insert(y).second) frontier.push_back(y);
          AddRow(Tuple{Value::Int(y)}, &fp);
        }
      }
      return fp;
    }
    std::string body;
    if (rule == "grandparent") {
      body = StrCat("parent(", p, ", Z) & parent(Z, Y)");
    } else if (rule == "greatgrand") {
      body = StrCat("parent(", p, ", A) & parent(A, B) & parent(B, Y)");
    } else {
      body = StrCat("parent(", p, ", P) & parent(Y, P) & Y != ", p);
    }
    return FingerprintOf(ReferenceOrDie(db, ParseOrDie(StrCat("r(Y) :- ", body))));
  }

  const uint64_t seed_;
  std::vector<std::string> pairs_;
  std::vector<Fingerprint> reference_;
  std::vector<size_t> warm_order_;

  braid::logic::KnowledgeBase kb_;
  std::unique_ptr<TimedRemoteDbms> remote_;
  std::unique_ptr<Cms> cms_;
  std::unique_ptr<braid::ie::InferenceEngine> ie_;
  std::vector<braid::logic::Atom> atoms_;
  std::vector<std::optional<Fingerprint>> warm_;
  std::vector<std::string> warm_errors_;
  uint64_t caql_queries_ = 0;
};

// ---------------------------------------------------------------------------
// advised_sessions: 1000 sessions replay one generated workload, each with
// the workload's advice and its stream rotated by a seeded per-session
// offset, driven round-robin over a 2 KiB budget. Every eviction asks the
// replacement advisor, which consults every open session.
//
// The schema, advice and stream come from one fixed generator seed (one
// generator seed ran 119 queries/s on the reference machine, another 2700);
// the benchmark seed
// drives the interleaving: which query each session asks when.

class AdvisedSessions : public Workload {
 public:
  explicit AdvisedSessions(uint64_t seed) : seed_(seed) {}

  void Prepare() override {
    braid::testing::GeneratedWorkload gen = Generate();
    queries_ = gen.queries;
    if (queries_.empty()) Die("generated workload has no queries");
    for (const CaqlQuery& q : queries_) {
      reference_.push_back(FingerprintOf(ReferenceOrDie(gen.database, q)));
    }
    for (size_t s = 0; s < kSessions; ++s) {
      rotation_.push_back(Draw(seed_, 5, s, queries_.size()));
    }
  }

  void Setup() override {
    braid::testing::GeneratedWorkload gen = Generate();
    remote_ = std::make_unique<TimedRemoteDbms>(
        std::move(gen.database), braid::dbms::NetworkModel{},
        braid::dbms::DbmsCostModel{});
    CmsConfig config;
    config.cache_budget_bytes = kBudgetBytes;
    config.num_threads = kPoolThreads;
    cms_ = std::make_unique<Cms>(remote_.get(), config);
    for (size_t s = 0; s < kSessions; ++s) {
      sessions_.push_back(cms_->OpenSession(gen.advice));
    }
    warm_failures_ = 0;
    for (uint64_t g = 0; g < kWarmOps; ++g) {
      if (!Issue(g, nullptr)) ++warm_failures_;
    }
  }

  void Teardown() override {
    if (cms_ != nullptr) {
      for (CmsSession* s : sessions_) cms_->CloseSession(s);
    }
    sessions_.clear();
    cms_.reset();
    remote_.reset();
  }

  bool CheckSetup(std::string* why) override {
    if (warm_failures_ == 0) return true;
    *why = StrCat(warm_failures_, " warm-up queries failed or mismatched");
    return false;
  }

  bool RunOp(uint64_t i, OpClock* clock) override {
    return Issue(kWarmOps + i, clock);
  }

  uint64_t count_window() const override { return 24000; }
  bool single_query_ops() const override { return true; }
  Cms& cms() override { return *cms_; }
  TimedRemoteDbms& remote() override { return *remote_; }
  CmsMetrics SessionTotals() override {
    CmsMetrics total;
    for (CmsSession* s : sessions_) Accumulate(s->metrics(), &total);
    return total;
  }

 private:
  static constexpr size_t kSessions = 1000;
  static constexpr size_t kBudgetBytes = 2048;
  static constexpr uint64_t kWarmOps = 3 * kSessions;
  static constexpr uint64_t kGeneratorSeed = 1;

  static braid::testing::GeneratedWorkload Generate() {
    braid::testing::WorkloadParams params;
    params.seed = kGeneratorSeed;
    return braid::testing::GenerateWorkload(params);
  }

  /// Stream position `g`: session g mod 1000 asks the next query of its
  /// own rotation of the generated stream.
  bool Issue(uint64_t g, OpClock* clock) {
    const size_t s = g % kSessions;
    const size_t q = (rotation_[s] + g / kSessions) % queries_.size();
    if (clock != nullptr) clock->Begin();
    auto answer = cms_->Query(*sessions_[s], queries_[q]);
    if (clock != nullptr) clock->End();
    return answer.ok() && AnswerFingerprint(*answer) == reference_[q];
  }

  const uint64_t seed_;
  std::vector<CaqlQuery> queries_;
  std::vector<Fingerprint> reference_;
  std::vector<size_t> rotation_;  // per-session offset into the stream
  std::unique_ptr<TimedRemoteDbms> remote_;
  std::unique_ptr<Cms> cms_;
  std::vector<CmsSession*> sessions_;
  size_t warm_failures_ = 0;
};

// ---------------------------------------------------------------------------
// local_join: one session over a 1000-person genealogy with `parent` and
// `person` cached in set-up. Seeded 2- and 3-atom joins with varying
// comparison constants are all answered locally, over a 1 MiB budget that
// is full at steady state: local joins, intermediate-stage admission and
// full-cache byte accounting. At this size an op costs ~4 ms, so a run
// completes thousands of ops and its p99 has dozens of samples beyond it.

class LocalJoin : public Workload {
 public:
  explicit LocalJoin(uint64_t seed) : seed_(seed) {}

  void Prepare() override {
    const braid::dbms::Database db = MakeDatabase();
    // One reference evaluation per shape, of its body with every variable
    // kept and no comparison; each (shape, constant) answer is that bag
    // filtered by the comparison and projected onto the head.
    for (const Shape& shape : Shapes()) {
      const Relation core = ReferenceOrDie(db, ParseOrDie(shape.core));
      std::vector<Fingerprint> by_constant(kConstants);
      for (const Tuple& row : core.tuples()) {
        const int64_t v = row[shape.compare_col].AsInt();
        Tuple head;
        for (size_t col : shape.head_cols) head.push_back(row[col]);
        for (size_t c = 0; c < kConstants; ++c) {
          if (shape.Admits(v, c)) AddRow(head, &by_constant[c]);
        }
      }
      reference_.push_back(std::move(by_constant));
    }
  }

  void Setup() override {
    remote_ = std::make_unique<TimedRemoteDbms>(
        MakeDatabase(), braid::dbms::NetworkModel{},
        braid::dbms::DbmsCostModel{});
    CmsConfig config;
    config.cache_budget_bytes = kBudgetBytes;
    config.num_threads = kPoolThreads;
    cms_ = std::make_unique<Cms>(remote_.get(), config);
    session_ = cms_->OpenSession();
    warm_failures_ = 0;
    for (const char* base : {"all_parent(C, P) :- parent(C, P)",
                             "all_person(I, A, C) :- person(I, A, C)"}) {
      if (!cms_->Query(*session_, ParseOrDie(base)).ok()) ++warm_failures_;
    }
    queries_.clear();
    for (size_t s = 0; s < Shapes().size(); ++s) {
      for (size_t c = 0; c < kConstants; ++c) {
        queries_.push_back(ParseOrDie(Shapes()[s].Query(c)));
      }
    }
    for (uint64_t g = 0; g < kWarmOps; ++g) {
      if (!Issue(g, nullptr)) ++warm_failures_;
    }
  }

  void Teardown() override {
    if (cms_ != nullptr && session_ != nullptr) cms_->CloseSession(session_);
    session_ = nullptr;
    cms_.reset();
    remote_.reset();
  }

  bool CheckSetup(std::string* why) override {
    if (warm_failures_ == 0) return true;
    *why = StrCat(warm_failures_, " warm-up queries failed or mismatched");
    return false;
  }

  bool RunOp(uint64_t i, OpClock* clock) override {
    return Issue(kWarmOps + i, clock);
  }

  uint64_t count_window() const override { return 2000; }
  bool single_query_ops() const override { return true; }
  Cms& cms() override { return *cms_; }
  TimedRemoteDbms& remote() override { return *remote_; }
  CmsMetrics SessionTotals() override { return session_->metrics(); }

 private:
  static constexpr size_t kPeople = 1000;
  static constexpr size_t kBudgetBytes = 1u << 20;
  static constexpr size_t kConstants = 100;
  static constexpr uint64_t kWarmOps = 600;

  /// A join family: `core` keeps every variable; the query adds
  /// `compare_var op constant` and projects onto `head`.
  struct Shape {
    std::string name;
    std::string core;
    std::vector<std::string> head;
    std::vector<size_t> head_cols;  // positions of `head` in the core
    std::string compare_var;
    size_t compare_col;
    const char* op;  // ">=", "<" or ">"
    int64_t scale;   // constant c compares against c * scale

    bool Admits(int64_t v, size_t c) const {
      const int64_t k = static_cast<int64_t>(c) * scale;
      if (op[0] == '<') return v < k;
      if (op[1] == '=') return v >= k;
      return v > k;
    }
    std::string Query(size_t c) const {
      std::string text = StrCat(name, "_", c, "(");
      for (size_t i = 0; i < head.size(); ++i) {
        text += (i == 0 ? "" : ", ") + head[i];
      }
      const std::string body = core.substr(core.find(":-") + 2);
      return StrCat(text, ") :-", body, " & ", compare_var, " ", op, " ",
                    static_cast<int64_t>(c) * scale);
    }
  };

  static const std::vector<Shape>& Shapes() {
    // The compared variable is never in the head, so a cached answer for
    // one constant cannot serve another: every op that is not an exact
    // repeat joins from the cached base relations or admitted stages.
    static const std::vector<Shape> shapes = {
        // Grandchildren of people at least c years old.
        {"gp_age",
         "c(X, Y, Z, A, C) :- parent(X, Y) & parent(Y, Z) & person(Z, A, C)",
         {"X", "Z"}, {0, 2}, "A", 3, ">=", 1},
        // Children of parents younger than c.
        {"p_age", "c(X, Y, A, C) :- parent(X, Y) & person(Y, A, C)",
         {"X", "Y"}, {0, 1}, "A", 2, "<", 1},
        // Great-grandparent chains whose middle link is above id 20c.
        {"ggp", "c(X, Y, Z, W) :- parent(X, Y) & parent(Y, Z) & parent(Z, W)",
         {"X", "W"}, {0, 3}, "Y", 1, ">", 20},
        // Parent and child in one city, parent older than c.
        {"same_city",
         "c(X, Y, A, C, B) :- parent(X, Y) & person(X, A, C) & person(Y, B, C)",
         {"X", "Y"}, {0, 1}, "B", 4, ">", 1},
    };
    return shapes;
  }

  static braid::dbms::Database MakeDatabase() { return MakeGenealogy(kPeople); }

  bool Issue(uint64_t g, OpClock* clock) {
    const size_t s = Draw(seed_, 3, g, Shapes().size());
    const size_t c = Draw(seed_, 4, g, kConstants);
    if (clock != nullptr) clock->Begin();
    auto answer = cms_->Query(*session_, queries_[s * kConstants + c]);
    if (clock != nullptr) clock->End();
    return answer.ok() && AnswerFingerprint(*answer) == reference_[s][c];
  }

  const uint64_t seed_;
  std::vector<std::vector<Fingerprint>> reference_;  // [shape][constant]
  std::vector<CaqlQuery> queries_;                   // [shape * 100 + c]
  std::unique_ptr<TimedRemoteDbms> remote_;
  std::unique_ptr<Cms> cms_;
  CmsSession* session_ = nullptr;
  size_t warm_failures_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  if (name == "ie_genealogy") return std::make_unique<IeGenealogy>(seed);
  if (name == "advised_sessions") {
    return std::make_unique<AdvisedSessions>(seed);
  }
  if (name == "local_join") return std::make_unique<LocalJoin>(seed);
  return nullptr;
}

}  // namespace perfbench
