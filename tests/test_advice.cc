// Unit tests for advice: view specifications, path expressions, and the
// path tracker — including the paper's §4.2.2 worked tracking example.

#include <deque>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "advice/advice.h"
#include "advice/path_tracker.h"
#include "common/rng.h"

namespace braid::advice {
namespace {

using logic::Term;

PathExprPtr Pat(const std::string& id) { return PathExpr::Pattern(id, {}); }

std::string ViewName(int64_t i) { return "v" + std::to_string(i); }

TEST(ViewSpec, ToStringMatchesPaperNotation) {
  ViewSpec d2;
  d2.id = "d2";
  d2.head = {AnnotatedVar{"X", Binding::kProducer},
             AnnotatedVar{"Y", Binding::kConsumer}};
  d2.body = {logic::Atom("b2", {Term::Var("X"), Term::Var("Z")}),
             logic::Atom("b3", {Term::Var("Z"), Term::Str("c2"),
                                Term::Var("Y")})};
  d2.source_rules = {"R2"};
  EXPECT_EQ(d2.ToString(),
            "d2(X^, Y?) =def b2(X, Z) & b3(Z, c2, Y)  (R2)");
}

TEST(ViewSpec, InstantiateSubstitutesConsumers) {
  ViewSpec d2;
  d2.id = "d2";
  d2.head = {AnnotatedVar{"X", Binding::kProducer},
             AnnotatedVar{"Y", Binding::kConsumer}};
  d2.body = {logic::Atom("b2", {Term::Var("X"), Term::Var("Z")}),
             logic::Atom("b3", {Term::Var("Z"), Term::Str("c2"),
                                Term::Var("Y")})};
  caql::CaqlQuery q = d2.Instantiate({Term::Var("X"), Term::Str("c6")});
  EXPECT_EQ(q.ToString(), "d2(X, c6) :- b2(X, Z) & b3(Z, c2, c6)");
}

TEST(ViewSpec, ConsumerVariablesAndAllProducers) {
  ViewSpec v;
  v.head = {AnnotatedVar{"X", Binding::kProducer},
            AnnotatedVar{"Y", Binding::kConsumer}};
  EXPECT_EQ(v.ConsumerVariables(), (std::vector<std::string>{"Y"}));
  EXPECT_FALSE(v.AllProducers());
  v.head[1].binding = Binding::kProducer;
  EXPECT_TRUE(v.AllProducers());
}

TEST(PathExpr, ToStringPaperExample1) {
  // (d1(Y^), (d2(X^, Y?), d3(X^, Y?))<0,|Y|>)<1,1>
  auto d1 = PathExpr::Pattern("d1", {AnnotatedVar{"Y", Binding::kProducer}});
  auto d2 = PathExpr::Pattern("d2", {AnnotatedVar{"X", Binding::kProducer},
                                     AnnotatedVar{"Y", Binding::kConsumer}});
  auto d3 = PathExpr::Pattern("d3", {AnnotatedVar{"X", Binding::kProducer},
                                     AnnotatedVar{"Y", Binding::kConsumer}});
  auto inner = PathExpr::Sequence({d2, d3}, RepBound::Fixed(0),
                                  RepBound::Cardinality("Y"));
  auto whole =
      PathExpr::Sequence({d1, inner}, RepBound::Fixed(1), RepBound::Fixed(1));
  EXPECT_EQ(whole->ToString(),
            "(d1(Y^), (d2(X^, Y?), d3(X^, Y?))<0,|Y|>)<1,1>");
}

TEST(PathExpr, AlternationWithSelectionTerm) {
  auto alt = PathExpr::Alternation({Pat("d2"), Pat("d3")}, 1);
  EXPECT_EQ(alt->ToString(), "[d2(), d3()]^1");
  EXPECT_EQ(alt->MentionedViews(),
            (std::vector<std::string>{"d2", "d3"}));
}

TEST(PathTracker, SimpleSequence) {
  auto seq = PathExpr::Sequence({Pat("a"), Pat("b"), Pat("c")},
                                RepBound::Fixed(1), RepBound::Fixed(1));
  PathTracker tracker(seq);
  EXPECT_EQ(tracker.PredictNext(), (std::set<std::string>{"a"}));
  EXPECT_FALSE(tracker.MayBeFinished());
  EXPECT_TRUE(tracker.Advance("a"));
  EXPECT_EQ(tracker.PredictNext(), (std::set<std::string>{"b"}));
  EXPECT_TRUE(tracker.Advance("b"));
  EXPECT_TRUE(tracker.Advance("c"));
  EXPECT_TRUE(tracker.MayBeFinished());
  EXPECT_EQ(tracker.mispredictions(), 0u);
}

TEST(PathTracker, MispredictionCountedAndPositionHeld) {
  auto seq = PathExpr::Sequence({Pat("a"), Pat("b")}, RepBound::Fixed(1),
                                RepBound::Fixed(1));
  PathTracker tracker(seq);
  EXPECT_FALSE(tracker.Advance("z"));  // unknown view
  EXPECT_EQ(tracker.mispredictions(), 1u);
  EXPECT_FALSE(tracker.Advance("b"));  // out of order
  EXPECT_EQ(tracker.mispredictions(), 2u);
  EXPECT_TRUE(tracker.Advance("a"));   // still at the start
}

TEST(PathTracker, RepetitionLoops) {
  // (a)<0,|Y|> — a may repeat any number of times, or not appear.
  auto seq = PathExpr::Sequence({Pat("a")}, RepBound::Fixed(0),
                                RepBound::Cardinality("Y"));
  PathTracker tracker(seq);
  EXPECT_TRUE(tracker.MayBeFinished());  // lower bound 0
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(tracker.Advance("a")) << i;
  }
  EXPECT_TRUE(tracker.MayBeFinished());
}

TEST(PathTracker, PaperTrackingExample) {
  // §4.2.2: (...(d1(X?,Y^), [(d2(Z^,Y?), d3(Z?)), (d4(U^,Y?),
  // d5(U?))]^1)<0,|X|> ...)<0,1>
  auto d1 = Pat("d1");
  auto branch1 = PathExpr::Sequence({Pat("d2"), Pat("d3")},
                                    RepBound::Fixed(1), RepBound::Fixed(1));
  auto branch2 = PathExpr::Sequence({Pat("d4"), Pat("d5")},
                                    RepBound::Fixed(1), RepBound::Fixed(1));
  auto alt = PathExpr::Alternation({branch1, branch2}, 1);
  auto inner = PathExpr::Sequence({d1, alt}, RepBound::Fixed(0),
                                  RepBound::Cardinality("X"));
  auto whole =
      PathExpr::Sequence({inner}, RepBound::Fixed(0), RepBound::Fixed(1));
  PathTracker tracker(whole);

  // After d1, the next query (if any) involves d2 or d4 (or d1 again via
  // the repetition).
  EXPECT_TRUE(tracker.Advance("d1"));
  std::set<std::string> next = tracker.PredictNext();
  EXPECT_TRUE(next.count("d2"));
  EXPECT_TRUE(next.count("d4"));

  // After d2: next involves d3, or d1 (repetition); d4/d5 are excluded by
  // the mutually exclusive selection term.
  EXPECT_TRUE(tracker.Advance("d2"));
  next = tracker.PredictNext();
  EXPECT_TRUE(next.count("d3"));
  EXPECT_TRUE(next.count("d1"));
  EXPECT_FALSE(next.count("d4"));
  EXPECT_FALSE(next.count("d5"));

  // "Thus, d1 will be required for one of the next two queries": its
  // minimum distance from here is at most 1.
  auto dist = tracker.MinDistanceTo("d1");
  ASSERT_TRUE(dist.has_value());
  EXPECT_LE(*dist, 1u);
  // d1 is therefore a poor replacement candidate relative to, say, d5.
  EXPECT_TRUE(tracker.PossibleWithin(2).count("d1"));
  EXPECT_FALSE(tracker.PossibleWithin(2).count("d5"));

  // Valid continuation from the paper: d3 then d1 then d4 then d5.
  EXPECT_TRUE(tracker.Advance("d3"));
  EXPECT_TRUE(tracker.Advance("d1"));
  EXPECT_TRUE(tracker.Advance("d4"));
  EXPECT_TRUE(tracker.Advance("d5"));
  EXPECT_EQ(tracker.mispredictions(), 0u);
}

TEST(PathTracker, AlternationWithoutSelectionAllowsMultiple) {
  auto alt = PathExpr::Alternation({Pat("a"), Pat("b")}, 0);
  PathTracker tracker(alt);
  EXPECT_TRUE(tracker.Advance("a"));
  EXPECT_TRUE(tracker.Advance("b"));
  EXPECT_TRUE(tracker.Advance("a"));  // repeatable
  EXPECT_TRUE(tracker.MayBeFinished());
}

TEST(PathTracker, MutualExclusionBlocksSecondPick) {
  auto alt = PathExpr::Alternation({Pat("a"), Pat("b")}, 1);
  PathTracker tracker(alt);
  EXPECT_TRUE(tracker.Advance("a"));
  EXPECT_FALSE(tracker.Advance("b"));  // at most one member
  EXPECT_EQ(tracker.mispredictions(), 1u);
}

TEST(PathTracker, MinDistanceAcrossSequence) {
  auto seq = PathExpr::Sequence({Pat("a"), Pat("b"), Pat("c")},
                                RepBound::Fixed(1), RepBound::Fixed(1));
  PathTracker tracker(seq);
  EXPECT_EQ(tracker.MinDistanceTo("a"), 0u);
  EXPECT_EQ(tracker.MinDistanceTo("b"), 1u);
  EXPECT_EQ(tracker.MinDistanceTo("c"), 2u);
  EXPECT_EQ(tracker.MinDistanceTo("z"), std::nullopt);
  tracker.Advance("a");
  EXPECT_EQ(tracker.MinDistanceTo("a"), std::nullopt);  // cannot recur
  EXPECT_EQ(tracker.MinDistanceTo("c"), 1u);
}

TEST(PathTracker, PossibleWithinHorizon) {
  auto seq = PathExpr::Sequence({Pat("a"), Pat("b"), Pat("c")},
                                RepBound::Fixed(1), RepBound::Fixed(1));
  PathTracker tracker(seq);
  EXPECT_EQ(tracker.PossibleWithin(1), (std::set<std::string>{"a"}));
  EXPECT_EQ(tracker.PossibleWithin(2), (std::set<std::string>{"a", "b"}));
  EXPECT_EQ(tracker.PossibleWithin(9),
            (std::set<std::string>{"a", "b", "c"}));
}

// --- tracker distance vectors vs the per-query BFS they replaced -------

/// The tracker as it was before distance vectors: the same NFA, with a
/// fresh closure-per-edge BFS for every distance query. Kept as the
/// reference the lookups must reproduce exactly.
class BfsTracker {
 public:
  explicit BfsTracker(const PathExprPtr& expr) {
    Fragment f = Build(*expr);
    accept_ = f.accept;
    current_ = Closure({f.start});
  }

  bool Advance(const std::string& view_id) {
    auto it = ids_.find(view_id);
    if (it == ids_.end()) {
      ++mispredictions_;
      return false;
    }
    std::set<int> next;
    for (int st : current_) {
      for (const auto& [sym, to] : sym_[st]) {
        if (sym == it->second) next.insert(to);
      }
    }
    if (next.empty()) {
      ++mispredictions_;
      return false;
    }
    current_ = Closure(next);
    return true;
  }

  std::set<std::string> PredictNext() const {
    std::set<std::string> out;
    for (int st : current_) {
      for (const auto& edge : sym_[st]) out.insert(names_[edge.first]);
    }
    return out;
  }

  std::optional<size_t> MinDistanceTo(const std::string& view_id) const {
    auto it = ids_.find(view_id);
    if (it == ids_.end()) return std::nullopt;
    std::map<int, size_t> dist;
    std::deque<int> frontier;
    for (int st : current_) {
      dist[st] = 0;
      frontier.push_back(st);
    }
    size_t best = std::numeric_limits<size_t>::max();
    while (!frontier.empty()) {
      const int st = frontier.front();
      frontier.pop_front();
      const size_t d = dist[st];
      if (d >= best) continue;
      for (const auto& [sym, to] : sym_[st]) {
        if (sym == it->second && d < best) best = d;
        for (int nxt : Closure({to})) {
          auto [dit, inserted] = dist.emplace(nxt, d + 1);
          if (inserted) {
            frontier.push_back(nxt);
          } else if (dit->second > d + 1) {
            dit->second = d + 1;
            frontier.push_back(nxt);
          }
        }
      }
    }
    if (best == std::numeric_limits<size_t>::max()) return std::nullopt;
    return best;
  }

  std::set<std::string> PossibleWithin(size_t horizon) const {
    std::set<std::string> out;
    for (const std::string& name : names_) {
      auto d = MinDistanceTo(name);
      if (d.has_value() && *d < horizon) out.insert(name);
    }
    return out;
  }

  bool MayBeFinished() const { return current_.count(accept_) > 0; }
  size_t mispredictions() const { return mispredictions_; }

 private:
  struct Fragment {
    int start;
    int accept;
  };

  int NewState() {
    eps_.emplace_back();
    sym_.emplace_back();
    return static_cast<int>(eps_.size()) - 1;
  }

  Fragment Build(const PathExpr& expr) {
    const int s = NewState();
    const int a = NewState();
    switch (expr.kind()) {
      case PathExpr::Kind::kQueryPattern: {
        auto [it, inserted] = ids_.emplace(
            expr.view_id(), static_cast<int>(names_.size()));
        if (inserted) names_.push_back(expr.view_id());
        sym_[s].push_back({it->second, a});
        break;
      }
      case PathExpr::Kind::kSequence: {
        int prev = s;
        for (const auto& child : expr.elements()) {
          Fragment cf = Build(*child);
          eps_[prev].push_back(cf.start);
          if (prev != s) eps_[prev].push_back(a);
          prev = cf.accept;
        }
        eps_[prev].push_back(a);
        if (!expr.lo().symbolic && expr.lo().count == 0) {
          eps_[s].push_back(a);
        }
        if (expr.hi().symbolic || expr.hi().count > 1 || expr.lo().symbolic ||
            expr.lo().count > 1) {
          eps_[prev].push_back(s);
        }
        break;
      }
      case PathExpr::Kind::kAlternation: {
        for (const auto& child : expr.elements()) {
          Fragment cf = Build(*child);
          eps_[s].push_back(cf.start);
          eps_[cf.accept].push_back(a);
        }
        eps_[s].push_back(a);
        if (expr.selection() != 1) eps_[a].push_back(s);
        break;
      }
    }
    return {s, a};
  }

  std::set<int> Closure(const std::set<int>& states) const {
    std::set<int> closed = states;
    std::deque<int> frontier(states.begin(), states.end());
    while (!frontier.empty()) {
      const int st = frontier.front();
      frontier.pop_front();
      for (int next : eps_[st]) {
        if (closed.insert(next).second) frontier.push_back(next);
      }
    }
    return closed;
  }

  std::vector<std::vector<int>> eps_;
  std::vector<std::vector<std::pair<int, int>>> sym_;
  std::map<std::string, int> ids_;
  std::vector<std::string> names_;
  int accept_ = -1;
  std::set<int> current_;
  size_t mispredictions_ = 0;
};

/// Random path expression over views v0..v7 (repeats allowed): depth at
/// most `depth`; sequences with lower bound 0 or 1 and a fixed (1 or 3)
/// or symbolic upper bound; alternations with selection 0, 1 or 2.
PathExprPtr RandomExpr(Rng& rng, int depth) {
  if (depth == 0 || rng.Bernoulli(0.2)) {
    return Pat(ViewName(rng.Uniform(0, 7)));
  }
  std::vector<PathExprPtr> members;
  const int64_t n = rng.Uniform(1, 4);
  for (int64_t i = 0; i < n; ++i) members.push_back(RandomExpr(rng, depth - 1));
  if (rng.Bernoulli(0.6)) {
    const RepBound hi = rng.Bernoulli(0.4)
                            ? RepBound::Cardinality("Y")
                            : RepBound::Fixed(rng.Bernoulli(0.5) ? 1 : 3);
    return PathExpr::Sequence(std::move(members),
                              RepBound::Fixed(rng.Uniform(0, 1)), hi);
  }
  return PathExpr::Alternation(std::move(members),
                               static_cast<size_t>(rng.Uniform(0, 2)));
}

TEST(PathTrackerProperty, LookupsMatchTheReferenceBfs) {
  const std::vector<std::string> views = {"v0", "v1", "v2", "v3", "v4",
                                          "v5", "v6", "v7", "unknown"};
  size_t compared = 0;
  size_t far = 0;  // distances of two or more queries
  for (uint64_t seed = 0; seed < 300; ++seed) {
    Rng rng(seed);
    const PathExprPtr expr = RandomExpr(rng, 3);
    PathTracker tracker(expr);
    BfsTracker reference(expr);
    for (int step = 0; step <= 12; ++step) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " step " +
                   std::to_string(step) + ": " + expr->ToString());
      ASSERT_EQ(tracker.PredictNext(), reference.PredictNext());
      ASSERT_EQ(tracker.MayBeFinished(), reference.MayBeFinished());
      for (const std::string& v : views) {
        const std::optional<size_t> want = reference.MinDistanceTo(v);
        ASSERT_EQ(tracker.MinDistanceTo(v), want) << v;
        ++compared;
        if (want.has_value() && *want >= 2) ++far;
      }
      for (size_t h = 0; h <= 4; ++h) {
        ASSERT_EQ(tracker.PossibleWithin(h), reference.PossibleWithin(h))
            << "horizon " << h;
      }
      // Mostly predicted views, so the walk goes deep; sometimes any view,
      // an unknown one included.
      const std::set<std::string> next = reference.PredictNext();
      std::string view = views[rng.Uniform(0, 8)];
      if (!next.empty() && rng.Bernoulli(0.7)) {
        auto it = next.begin();
        std::advance(it, rng.Uniform(0, static_cast<int64_t>(next.size()) - 1));
        view = *it;
      }
      ASSERT_EQ(tracker.Advance(view), reference.Advance(view)) << view;
      ASSERT_EQ(tracker.mispredictions(), reference.mispredictions());
    }
  }
  EXPECT_GT(compared, 10000u);
  EXPECT_GT(far, 1000u) << "the walks never got far from a symbol";
}

TEST(PathTracker, DistanceVectorIndexedBySymbol) {
  auto seq = PathExpr::Sequence({Pat("a"), Pat("b"), Pat("a")},
                                RepBound::Fixed(1), RepBound::Fixed(1));
  PathTracker tracker(seq);
  ASSERT_EQ(tracker.num_symbols(), 2u);  // "a" is one symbol
  EXPECT_EQ(tracker.symbol_name(0), "a");
  EXPECT_EQ(tracker.symbol_name(1), "b");
  EXPECT_EQ(tracker.distances(), (std::vector<size_t>{0, 1}));
  EXPECT_TRUE(tracker.Advance("a"));
  EXPECT_EQ(tracker.distances(), (std::vector<size_t>{1, 0}));
  EXPECT_TRUE(tracker.Advance("b"));
  EXPECT_TRUE(tracker.Advance("a"));
  EXPECT_EQ(tracker.distances(),
            (std::vector<size_t>{PathTracker::kUnreachable,
                                 PathTracker::kUnreachable}));
  // A misprediction holds the position and the vector.
  EXPECT_FALSE(tracker.Advance("b"));
  EXPECT_EQ(tracker.MinDistanceTo("b"), std::nullopt);
  EXPECT_TRUE(tracker.MayBeFinished());
}

TEST(AdviceSet, FindViewAndToString) {
  AdviceSet advice;
  advice.base_relations = {"b1", "b2"};
  ViewSpec v;
  v.id = "d1";
  v.head = {AnnotatedVar{"Y", Binding::kProducer}};
  v.body = {logic::Atom("b1", {Term::Str("c1"), Term::Var("Y")})};
  advice.view_specs.push_back(v);
  EXPECT_NE(advice.FindView("d1"), nullptr);
  EXPECT_EQ(advice.FindView("d9"), nullptr);
  EXPECT_NE(advice.ToString().find("base relations: b1, b2"),
            std::string::npos);
  EXPECT_NE(advice.ToString().find("d1(Y^)"), std::string::npos);
}

}  // namespace
}  // namespace braid::advice
