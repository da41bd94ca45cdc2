#include "caql/caql_query.h"

#include <cstdio>
#include <functional>
#include <sstream>

#include "common/strings.h"
#include "logic/parser.h"

namespace braid::caql {

bool IsEvaluablePredicate(const std::string& name, size_t arity) {
  if (arity == 3) {
    return name == "plus" || name == "minus" || name == "times" ||
           name == "div";
  }
  if (arity == 2) return name == "abs";
  return false;
}

namespace {

enum class AtomClass { kRelation, kComparison, kEvaluable, kNegated };

AtomClass Classify(const logic::Atom& atom) {
  if (atom.negated) return AtomClass::kNegated;
  if (atom.IsComparison()) return AtomClass::kComparison;
  if (IsEvaluablePredicate(atom.predicate, atom.arity())) {
    return AtomClass::kEvaluable;
  }
  return AtomClass::kRelation;
}

}  // namespace

bool IsRelationAtom(const logic::Atom& atom) {
  return Classify(atom) == AtomClass::kRelation;
}

std::vector<logic::Atom> CaqlQuery::RelationAtoms() const {
  std::vector<logic::Atom> out;
  for (const auto& a : body) {
    if (IsRelationAtom(a)) out.push_back(a);
  }
  return out;
}

std::vector<logic::Atom> CaqlQuery::ComparisonAtoms() const {
  std::vector<logic::Atom> out;
  for (const auto& a : body) {
    if (Classify(a) == AtomClass::kComparison) out.push_back(a);
  }
  return out;
}

std::vector<logic::Atom> CaqlQuery::EvaluableAtoms() const {
  std::vector<logic::Atom> out;
  for (const auto& a : body) {
    if (Classify(a) == AtomClass::kEvaluable) out.push_back(a);
  }
  return out;
}

std::vector<logic::Atom> CaqlQuery::NegatedAtoms() const {
  std::vector<logic::Atom> out;
  for (const auto& a : body) {
    if (Classify(a) == AtomClass::kNegated) out.push_back(a);
  }
  return out;
}

std::vector<std::string> CaqlQuery::AllVariables() const {
  std::vector<std::string> vars;
  auto add = [&vars](const logic::Term& t) {
    if (!t.is_variable()) return;
    for (const std::string& v : vars) {
      if (v == t.var_name()) return;
    }
    vars.push_back(t.var_name());
  };
  for (const logic::Term& t : head_args) add(t);
  for (const logic::Atom& a : body) {
    for (const logic::Term& t : a.args) add(t);
  }
  return vars;
}

std::vector<std::string> CaqlQuery::HeadVariables() const {
  std::vector<std::string> vars;
  for (const logic::Term& t : head_args) {
    if (!t.is_variable()) continue;
    bool seen = false;
    for (const std::string& v : vars) {
      if (v == t.var_name()) {
        seen = true;
        break;
      }
    }
    if (!seen) vars.push_back(t.var_name());
  }
  return vars;
}

CaqlQuery CaqlQuery::Substitute(const logic::Substitution& subst) const {
  CaqlQuery out = *this;
  for (logic::Term& t : out.head_args) t = subst.Apply(t);
  for (logic::Atom& a : out.body) a = subst.Apply(a);
  return out;
}

QueryKey QueryKey::Of(std::string text) {
  QueryKey key;
  key.hash = std::hash<std::string>{}(text);
  key.text = std::move(text);
  return key;
}

namespace {

/// Appends constant `v` so that distinct constants never render alike:
/// ints in decimal (`42`), strings quoted with `'` and `\` escaped, doubles
/// as `d` plus 17 significant digits (an exact round trip, never equal to
/// an int's rendering), NULL as `NULL`.
void AppendConstant(const rel::Value& v, std::string* out) {
  switch (v.type()) {
    case rel::ValueType::kInt:
      *out += std::to_string(v.AsInt());
      return;
    case rel::ValueType::kDouble: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "d%.17g", v.AsDouble());
      *out += buf;
      return;
    }
    case rel::ValueType::kString:
      *out += '\'';
      for (char c : v.AsString()) {
        if (c == '\'' || c == '\\') *out += '\\';
        *out += c;
      }
      *out += '\'';
      return;
    case rel::ValueType::kNull:
      *out += "NULL";
      return;
  }
}

}  // namespace

std::string CaqlQuery::CanonicalKey() const {
  // Variables are renamed V0, V1, ... by first occurrence; queries hold a
  // handful of distinct variables, so a linear scan beats a map.
  std::vector<const std::string*> renamed;
  std::string out;
  out.reserve(64);
  auto canon = [&renamed, &out](const logic::Term& t) {
    if (!t.is_variable()) {
      AppendConstant(t.value(), &out);
      return;
    }
    size_t i = 0;
    while (i < renamed.size() && *renamed[i] != t.var_name()) ++i;
    if (i == renamed.size()) renamed.push_back(&t.var_name());
    out += 'V';
    out += std::to_string(i);
  };
  out += name;
  out += distinct ? "!(" : "(";
  for (size_t i = 0; i < head_args.size(); ++i) {
    if (i > 0) out += ',';
    canon(head_args[i]);
  }
  out += "):-";
  for (size_t i = 0; i < body.size(); ++i) {
    if (i > 0) out += '&';
    if (body[i].negated) out += '!';
    out += body[i].predicate;
    out += '(';
    for (size_t j = 0; j < body[i].args.size(); ++j) {
      if (j > 0) out += ',';
      canon(body[i].args[j]);
    }
    out += ')';
  }
  return out;
}

std::string CaqlQuery::ToString() const {
  std::ostringstream os;
  os << (name.empty() ? "q" : name) << (distinct ? " setof" : "") << "(";
  for (size_t i = 0; i < head_args.size(); ++i) {
    if (i > 0) os << ", ";
    os << head_args[i].ToString();
  }
  os << ")";
  if (!body.empty()) {
    os << " :- ";
    for (size_t i = 0; i < body.size(); ++i) {
      if (i > 0) os << " & ";
      os << body[i].ToString();
    }
  }
  return os.str();
}

Status CaqlQuery::Validate() const {
  std::set<std::string> body_vars;
  logic::CollectVariables(body, &body_vars);
  for (const logic::Term& t : head_args) {
    if (t.is_variable() && body_vars.count(t.var_name()) == 0) {
      return Status::InvalidArgument(
          StrCat("head variable ", t.var_name(), " of ", name,
                 " does not occur in the body"));
    }
  }
  bool has_relation = false;
  std::set<std::string> positive_vars;
  for (const logic::Atom& a : body) {
    if (Classify(a) == AtomClass::kRelation) {
      for (const std::string& v : a.Variables()) positive_vars.insert(v);
    }
  }
  for (const logic::Atom& a : body) {
    switch (Classify(a)) {
      case AtomClass::kRelation:
        has_relation = true;
        if (a.arity() == 0) {
          return Status::InvalidArgument(
              StrCat("zero-arity relation atom ", a.predicate));
        }
        break;
      case AtomClass::kNegated:
        // Safety: every variable of a negated literal must be bound by a
        // positive relation atom.
        for (const std::string& v : a.Variables()) {
          if (positive_vars.count(v) == 0) {
            return Status::InvalidArgument(
                StrCat("unsafe negation: variable ", v, " of ",
                       a.ToString(), " occurs in no positive atom"));
          }
        }
        break;
      case AtomClass::kComparison:
      case AtomClass::kEvaluable:
        break;
    }
  }
  if (!has_relation && !body.empty()) {
    // Pure comparison/evaluable bodies are only legal when fully ground.
    for (const logic::Atom& a : body) {
      if (!a.IsGround()) {
        return Status::InvalidArgument(
            StrCat("query ", name,
                   " has no relation atom but non-ground built-ins"));
      }
    }
  }
  return Status::Ok();
}

Result<CaqlQuery> ParseCaql(std::string_view text) {
  std::string padded(text);
  // The rule parser requires a terminating '.'.
  std::string_view trimmed = StrTrim(padded);
  std::string source(trimmed);
  if (source.empty() || source.back() != '.') source += '.';
  BRAID_ASSIGN_OR_RETURN(logic::Rule rule, logic::ParseRuleText(source));
  CaqlQuery q;
  q.name = rule.head.predicate;
  q.head_args = rule.head.args;
  q.body = rule.body;
  BRAID_RETURN_IF_ERROR(q.Validate());
  return q;
}

}  // namespace braid::caql
