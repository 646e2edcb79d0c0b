// Unit tests for homomorphism enumeration and database mapping checks.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "core/homomorphism.h"
#include "core/parser.h"
#include "core/printer.h"

namespace gerel {
namespace {

std::vector<Atom> ParseAtoms(const std::string& text, SymbolTable* syms) {
  // Parse atoms via a dummy rule body.
  Result<Rule> r = ParseRule(text + " -> dummy", syms);
  EXPECT_TRUE(r.ok()) << r.status().message();
  return r.value().PositiveBody();
}

size_t CountHomomorphisms(const std::vector<Atom>& pattern,
                          const Database& db) {
  size_t n = 0;
  ForEachHomomorphism(pattern, db, Substitution(), [&n](const Substitution&) {
    ++n;
    return true;
  });
  return n;
}

TEST(HomomorphismTest, SingleAtomAllMatches) {
  SymbolTable syms;
  Database db = ParseDatabase("e(a, b). e(b, c). e(c, a).", &syms).value();
  std::vector<Atom> pattern = ParseAtoms("e(X, Y)", &syms);
  EXPECT_EQ(CountHomomorphisms(pattern, db), 3u);
}

TEST(HomomorphismTest, JoinAcrossAtoms) {
  SymbolTable syms;
  Database db = ParseDatabase("e(a, b). e(b, c). e(c, a).", &syms).value();
  std::vector<Atom> pattern = ParseAtoms("e(X, Y), e(Y, Z)", &syms);
  EXPECT_EQ(CountHomomorphisms(pattern, db), 3u);
}

TEST(HomomorphismTest, RepeatedVariableConstrains) {
  SymbolTable syms;
  Database db = ParseDatabase("e(a, a). e(a, b).", &syms).value();
  std::vector<Atom> pattern = ParseAtoms("e(X, X)", &syms);
  EXPECT_EQ(CountHomomorphisms(pattern, db), 1u);
}

TEST(HomomorphismTest, ConstantsInPattern) {
  SymbolTable syms;
  Database db = ParseDatabase("e(a, b). e(b, c).", &syms).value();
  std::vector<Atom> pattern = ParseAtoms("e(a, Y)", &syms);
  EXPECT_EQ(CountHomomorphisms(pattern, db), 1u);
}

TEST(HomomorphismTest, InitialSubstitutionRestricts) {
  SymbolTable syms;
  Database db = ParseDatabase("e(a, b). e(b, c).", &syms).value();
  std::vector<Atom> pattern = ParseAtoms("e(X, Y)", &syms);
  Substitution init;
  init.Bind(syms.Variable("X"), syms.Constant("b"));
  size_t n = 0;
  ForEachHomomorphism(pattern, db, init, [&n](const Substitution&) {
    ++n;
    return true;
  });
  EXPECT_EQ(n, 1u);
}

TEST(HomomorphismTest, NoMatchMeansNoVisit) {
  SymbolTable syms;
  Database db = ParseDatabase("e(a, b).", &syms).value();
  std::vector<Atom> pattern = ParseAtoms("e(X, X)", &syms);
  EXPECT_EQ(CountHomomorphisms(pattern, db), 0u);
  EXPECT_FALSE(HasHomomorphism(pattern, db));
}

TEST(HomomorphismTest, EarlyStop) {
  SymbolTable syms;
  Database db = ParseDatabase("e(a, b). e(b, c). e(c, a).", &syms).value();
  std::vector<Atom> pattern = ParseAtoms("e(X, Y)", &syms);
  size_t n = 0;
  bool completed = ForEachHomomorphism(pattern, db, Substitution(),
                                       [&n](const Substitution&) {
                                         ++n;
                                         return n < 2;
                                       });
  EXPECT_FALSE(completed);
  EXPECT_EQ(n, 2u);
}

TEST(HomomorphismTest, EmptyPatternHasOneHomomorphism) {
  SymbolTable syms;
  Database db = ParseDatabase("e(a, b).", &syms).value();
  EXPECT_EQ(CountHomomorphisms({}, db), 1u);
}

TEST(HomomorphismTest, AnnotatedAtomsMatchBothParts) {
  SymbolTable syms;
  Database db;
  RelationId r = syms.Relation("r", 2);
  Term a = syms.Constant("a");
  Term b = syms.Constant("b");
  db.Insert(Atom(r, {a}, {b}));
  Result<Atom> pattern = ParseAtom("r[Y](X)", &syms);
  ASSERT_TRUE(pattern.ok());
  size_t n = 0;
  ForEachHomomorphism({pattern.value()}, db, Substitution(),
                      [&](const Substitution& h) {
                        EXPECT_EQ(h.Apply(syms.Variable("X")), a);
                        EXPECT_EQ(h.Apply(syms.Variable("Y")), b);
                        ++n;
                        return true;
                      });
  EXPECT_EQ(n, 1u);
}

TEST(DatabaseMappingTest, NullsActAsVariables) {
  SymbolTable syms;
  Database a = ParseDatabase("e(_x, _y).", &syms).value();
  Database b = ParseDatabase("e(c, d).", &syms).value();
  EXPECT_TRUE(DatabaseMapsInto(a, b));
  EXPECT_FALSE(DatabaseMapsInto(b, a));  // Constants are rigid.
}

TEST(DatabaseMappingTest, HomomorphicEquivalence) {
  SymbolTable syms;
  // A cycle of length 1 (self loop) and a homomorphically equivalent
  // structure with a redundant null edge.
  Database a = ParseDatabase("e(c, c).", &syms).value();
  Database b = ParseDatabase("e(c, c). e(_z, c).", &syms).value();
  EXPECT_TRUE(HomomorphicallyEquivalent(a, b));
  Database c = ParseDatabase("e(c, d).", &syms).value();
  EXPECT_FALSE(HomomorphicallyEquivalent(a, c));
}

}  // namespace
}  // namespace gerel
