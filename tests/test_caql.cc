// Unit tests for CAQL query representation, parsing, and canonicalization.

#include <gtest/gtest.h>

#include "caql/caql_query.h"

namespace braid::caql {
namespace {

CaqlQuery Q(const std::string& text) {
  auto r = ParseCaql(text);
  EXPECT_TRUE(r.ok()) << text << ": " << r.status().ToString();
  return r.value();
}

TEST(Caql, ParseBasic) {
  CaqlQuery q = Q("d2(X, c6) :- b2(X, Z) & b3(Z, c2, c6)");
  EXPECT_EQ(q.name, "d2");
  EXPECT_EQ(q.head_args.size(), 2u);
  EXPECT_EQ(q.body.size(), 2u);
  EXPECT_EQ(q.ToString(), "d2(X, c6) :- b2(X, Z) & b3(Z, c2, c6)");
}

TEST(Caql, CommaAndAmpersandEquivalent) {
  EXPECT_EQ(Q("d(X) :- a(X), b(X)").body, Q("d(X) :- a(X) & b(X)").body);
}

TEST(Caql, AtomClassification) {
  CaqlQuery q = Q("d(X, W) :- b(X, Y) & Y > 3 & plus(X, Y, W)");
  EXPECT_EQ(q.RelationAtoms().size(), 1u);
  EXPECT_EQ(q.ComparisonAtoms().size(), 1u);
  EXPECT_EQ(q.EvaluableAtoms().size(), 1u);
}

TEST(Caql, EvaluablePredicateArityMatters) {
  EXPECT_TRUE(IsEvaluablePredicate("plus", 3));
  EXPECT_FALSE(IsEvaluablePredicate("plus", 2));
  EXPECT_TRUE(IsEvaluablePredicate("abs", 2));
  EXPECT_FALSE(IsEvaluablePredicate("abs", 3));
  EXPECT_FALSE(IsEvaluablePredicate("b1", 3));
}

TEST(Caql, AllVariablesHeadFirst) {
  CaqlQuery q = Q("d(Y, X) :- b(X, Y, Z)");
  EXPECT_EQ(q.AllVariables(), (std::vector<std::string>{"Y", "X", "Z"}));
  EXPECT_EQ(q.HeadVariables(), (std::vector<std::string>{"Y", "X"}));
}

TEST(Caql, CanonicalKeyInvariantUnderRenaming) {
  CaqlQuery a = Q("d(X, Y) :- b(X, Z) & c(Z, Y)");
  CaqlQuery b = Q("d(P, Q) :- b(P, R) & c(R, Q)");
  EXPECT_EQ(a.CanonicalKey(), b.CanonicalKey());
}

TEST(Caql, CanonicalKeyDistinguishesConstants) {
  EXPECT_NE(Q("d(X) :- b(X, 1)").CanonicalKey(),
            Q("d(X) :- b(X, 2)").CanonicalKey());
  EXPECT_NE(Q("d(X) :- b(X, 1)").CanonicalKey(),
            Q("d(X) :- b(X, Y)").CanonicalKey());
}

TEST(Caql, CanonicalKeyEncodesConstantsUnambiguously) {
  // A string constant renders neither like an int nor like a renamed
  // variable, and a double keeps every digit.
  EXPECT_NE(Q("d(X) :- b(X, 1)").CanonicalKey(),
            Q("d(X) :- b(X, '1')").CanonicalKey());
  EXPECT_NE(Q("d(X) :- b(X, X)").CanonicalKey(),
            Q("d(X) :- b(X, 'V0')").CanonicalKey());
  EXPECT_NE(Q("d(X) :- b(X, 0.1234567)").CanonicalKey(),
            Q("d(X) :- b(X, 0.1234568)").CanonicalKey());
  EXPECT_NE(Q("d(X) :- b(X, 2)").CanonicalKey(),
            Q("d(X) :- b(X, 2.0)").CanonicalKey());
  // A quote inside a string is escaped, so it cannot close the constant.
  CaqlQuery quoted = Q("d(X) :- b(X, Y)");
  quoted.body[0].args[1] = logic::Term::Str("a','b");
  EXPECT_NE(quoted.CanonicalKey(),
            Q("d(X) :- b(X, 'a', 'b')").CanonicalKey());
  // Ints render in plain decimal.
  EXPECT_EQ(Q("d(X) :- b(X, -7)").CanonicalKey(), "d(V0):-b(V0,-7)");
}

TEST(Caql, CanonicalKeyDistinguishesRepeatedVariables) {
  EXPECT_NE(Q("d(X) :- b(X, X)").CanonicalKey(),
            Q("d(X) :- b(X, Y)").CanonicalKey());
}

TEST(Caql, SubstituteReplacesEverywhere) {
  CaqlQuery q = Q("d(X, Y) :- b(X, Z) & c(Z, Y)");
  logic::Substitution s;
  s.Bind("Y", logic::Term::Int(9));
  CaqlQuery out = q.Substitute(s);
  EXPECT_EQ(out.ToString(), "d(X, 9) :- b(X, Z) & c(Z, 9)");
}

TEST(Caql, ValidateRejectsUnsafeHead) {
  CaqlQuery q;
  q.name = "bad";
  q.head_args = {logic::Term::Var("X")};
  q.body = {logic::Atom("b", {logic::Term::Var("Y")})};
  EXPECT_EQ(q.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(Caql, ValidateAcceptsGroundBuiltinOnlyBody) {
  auto r = ParseCaql("check() :- 1 < 2");
  EXPECT_TRUE(r.ok()) << r.status().ToString();
}

TEST(Caql, ValidateRejectsNonGroundBuiltinOnlyBody) {
  CaqlQuery q;
  q.name = "bad";
  q.body = {logic::Atom("<", {logic::Term::Var("X"), logic::Term::Int(2)})};
  EXPECT_EQ(q.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(Caql, ParseAddsTrailingDot) {
  EXPECT_TRUE(ParseCaql("d(X) :- b(X)").ok());
  EXPECT_TRUE(ParseCaql("d(X) :- b(X).").ok());
  EXPECT_TRUE(ParseCaql("  d(X) :- b(X).  ").ok());
}

}  // namespace
}  // namespace braid::caql
