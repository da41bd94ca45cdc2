// Quickstart: build a tiny remote database and knowledge base, wire up a
// BrAID system, and ask the AI query from the paper's Example 1.
//
//   $ ./quickstart [--trace]
//
// Walks through: declaring base relations, writing Horn rules, asking a
// query, and inspecting the advice (view specifications + path
// expression) the inference engine generated for the Cache Management
// System. With --trace, prints the CMS's span tree for each query — one
// `query` root per CAQL query the IE issued, with advice / plan
// (subsumption) / prep / fetch / assembly children carrying both
// measured wall time and modeled simulated cost.

#include <cstring>
#include <iostream>

#include "braid/braid_system.h"

int main(int argc, char** argv) {
  using namespace braid;

  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0) trace = true;
  }

  // 1. The "remote" database: three base relations on the simulated
  //    database server (the paper's INGRES / IDM-500 stand-in).
  dbms::Database db;
  {
    rel::Relation b1("b1", rel::Schema::FromNames({"a", "b"}));
    b1.AppendUnchecked({rel::Value::String("c1"), rel::Value::Int(1)});
    b1.AppendUnchecked({rel::Value::String("c1"), rel::Value::Int(2)});
    b1.AppendUnchecked({rel::Value::Int(8), rel::Value::Int(4)});
    rel::Relation b2("b2", rel::Schema::FromNames({"a", "b"}));
    b2.AppendUnchecked({rel::Value::Int(10), rel::Value::Int(20)});
    b2.AppendUnchecked({rel::Value::Int(11), rel::Value::Int(21)});
    rel::Relation b3("b3", rel::Schema::FromNames({"a", "b", "c"}));
    b3.AppendUnchecked({rel::Value::Int(20), rel::Value::String("c2"),
                        rel::Value::Int(1)});
    b3.AppendUnchecked({rel::Value::Int(21), rel::Value::String("c2"),
                        rel::Value::Int(2)});
    BRAID_CHECK_OK(db.AddTable(std::move(b1)));
    BRAID_CHECK_OK(db.AddTable(std::move(b2)));
    BRAID_CHECK_OK(db.AddTable(std::move(b3)));
  }

  // 2. The knowledge base: the paper's Example-1 rules.
  logic::KnowledgeBase kb;
  Status parsed = logic::ParseProgram(R"(
#base b1(a, b).
#base b2(a, b).
#base b3(a, b, c).
k1(X, Y) :- b1(c1, Y), k2(X, Y).
k2(X, Y) :- b2(X, Z), b3(Z, c2, Y).
k2(X, Y) :- b3(X, c3, Z), b1(Z, Y).
)",
                                      &kb);
  if (!parsed.ok()) {
    std::cerr << "parse error: " << parsed << "\n";
    return 1;
  }

  // 3. Wire the three components (Figure 3) and ask the AI query.
  BraidSystem braid(std::move(db), std::move(kb));

  auto outcome = braid.Ask("k1(X, Y)?");
  if (!outcome.ok()) {
    std::cerr << "query failed: " << outcome.status() << "\n";
    return 1;
  }

  std::cout << "solutions:\n" << outcome->solutions.ToString() << "\n\n";

  if (trace) {
    std::cout << "query trace (measured wall time vs modeled cost):\n"
              << braid.cms().tracer().PrettyTree() << "\n";
  }

  std::cout << "advice the IE sent the CMS at session start:\n"
            << outcome->advice().ToString() << "\n";

  std::cout << "session statistics:\n  CMS: "
            << braid.cms().metrics().ToString() << "\n  remote DBMS: "
            << braid.remote().stats().ToString() << "\n";

  // 4. Ask again: the answer now comes from the cache.
  braid.cms().tracer().Clear();
  auto again = braid.Ask("k1(X, Y)?");
  if (again.ok()) {
    std::cout << "\nafter re-asking the same query:\n  CMS: "
              << braid.cms().metrics().ToString() << "\n";
    if (trace) {
      std::cout << "\nre-ask trace (exact-probe hits, no remote fetches):\n"
                << braid.cms().tracer().PrettyTree();
    }
  }
  return 0;
}
