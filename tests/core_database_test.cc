// Unit tests for Database storage, indexing, and the acdom built-in.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/database.h"
#include "core/parser.h"
#include "core/theory.h"

namespace gerel {
namespace {

TEST(DatabaseTest, InsertDeduplicates) {
  SymbolTable syms;
  RelationId r = syms.Relation("r", 2);
  Term a = syms.Constant("a");
  Term b = syms.Constant("b");
  Database db;
  EXPECT_TRUE(db.Insert(Atom(r, {a, b})));
  EXPECT_FALSE(db.Insert(Atom(r, {a, b})));
  EXPECT_TRUE(db.Insert(Atom(r, {b, a})));
  EXPECT_EQ(db.size(), 2u);
  EXPECT_TRUE(db.Contains(Atom(r, {a, b})));
  EXPECT_FALSE(db.Contains(Atom(r, {a, a})));
}

TEST(DatabaseTest, RelationIndex) {
  SymbolTable syms;
  Result<Database> db = ParseDatabase("r(a, b). r(b, c). s(a).", &syms);
  ASSERT_TRUE(db.ok());
  RelationId r = syms.Relation("r");
  RelationId s = syms.Relation("s");
  RelationId t = syms.Relation("t", 1);
  EXPECT_EQ(db.value().AtomsOf(r).size(), 2u);
  EXPECT_EQ(db.value().AtomsOf(s).size(), 1u);
  EXPECT_TRUE(db.value().AtomsOf(t).empty());
}

TEST(DatabaseTest, PositionIndex) {
  SymbolTable syms;
  Result<Database> db = ParseDatabase("r(a, b). r(b, c). r(a, c).", &syms);
  ASSERT_TRUE(db.ok());
  RelationId r = syms.Relation("r");
  Term a = syms.Constant("a");
  Term c = syms.Constant("c");
  EXPECT_EQ(db.value().AtomsAt(r, 0, a).size(), 2u);
  EXPECT_EQ(db.value().AtomsAt(r, 1, c).size(), 2u);
  EXPECT_TRUE(db.value().AtomsAt(r, 0, c).empty());
}

TEST(DatabaseTest, ActiveTermsAndConstants) {
  SymbolTable syms;
  Database db;
  RelationId r = syms.Relation("r", 2);
  Term a = syms.Constant("a");
  Term n = syms.FreshNull();
  db.Insert(Atom(r, {a, n}));
  std::vector<Term> terms = db.ActiveTerms();
  EXPECT_EQ(terms.size(), 2u);
  std::vector<Term> constants = db.ActiveConstants();
  ASSERT_EQ(constants.size(), 1u);
  EXPECT_EQ(constants[0], a);
}

TEST(DatabaseTest, RestrictKeepsOnlyGivenRelations) {
  SymbolTable syms;
  Result<Database> db = ParseDatabase("r(a). s(a). t(a).", &syms);
  ASSERT_TRUE(db.ok());
  Database out =
      db.value().Restrict({syms.Relation("r"), syms.Relation("t")});
  EXPECT_EQ(out.size(), 2u);
  EXPECT_TRUE(out.Contains(Atom(syms.Relation("r"), {syms.Constant("a")})));
  EXPECT_FALSE(out.Contains(Atom(syms.Relation("s"), {syms.Constant("a")})));
}

TEST(DatabaseTest, EqualityIsSetEquality) {
  SymbolTable syms;
  Result<Database> d1 = ParseDatabase("r(a). s(b).", &syms);
  Result<Database> d2 = ParseDatabase("s(b). r(a).", &syms);
  Result<Database> d3 = ParseDatabase("r(a).", &syms);
  EXPECT_TRUE(d1.value() == d2.value());
  EXPECT_FALSE(d1.value() == d3.value());
}

TEST(AcdomTest, PopulatesActiveDomainAndTheoryConstants) {
  SymbolTable syms;
  Result<Database> db = ParseDatabase("r(a, b).", &syms);
  ASSERT_TRUE(db.ok());
  Result<Theory> theory = ParseTheory("-> s(c).", &syms);
  ASSERT_TRUE(theory.ok());
  Database d = std::move(db).value();
  PopulateAcdom(theory.value(), &syms, &d);
  RelationId acdom = AcdomRelation(&syms);
  EXPECT_TRUE(d.Contains(Atom(acdom, {syms.Constant("a")})));
  EXPECT_TRUE(d.Contains(Atom(acdom, {syms.Constant("b")})));
  EXPECT_TRUE(d.Contains(Atom(acdom, {syms.Constant("c")})));
  EXPECT_EQ(d.AtomsOf(acdom).size(), 3u);
}

TEST(AcdomTest, AcdomAtomsDoNotFeedTheDomain) {
  SymbolTable syms;
  Database d;
  RelationId acdom = AcdomRelation(&syms);
  d.Insert(Atom(acdom, {syms.Constant("z")}));
  PopulateAcdom(Theory(), &syms, &d);
  // z occurs only in an acdom atom, so no further acdom facts appear.
  EXPECT_EQ(d.AtomsOf(acdom).size(), 1u);
}

TEST(DatabaseTest, DisablingPositionIndex) {
  Database db;
  db.set_position_index_enabled(false);
  SymbolTable syms;
  RelationId r = syms.Relation("r", 1);
  db.Insert(Atom(r, {syms.Constant("a")}));
  EXPECT_EQ(db.AtomsOf(r).size(), 1u);
  EXPECT_FALSE(db.position_index_enabled());
}

// Regression: the position-index key used to pack (pred, pos, term) as
// (pred << 40) ^ (pos << 32) ^ term, so an atom with a term at position
// >= 256 aliased the postings of relation (pred ^ (pos >> 8)) at
// position (pos & 0xFF) — a wide atom could leak into another
// relation's per-position postings.
TEST(DatabaseTest, HighArityPositionIndexDoesNotAliasRelations) {
  SymbolTable syms;
  // Arrange a pair of relations whose ids differ exactly in bit 0: under
  // the old packing, (wide, pos=256, t) collided with (wide ^ 1, 0, t).
  RelationId wide = syms.Relation("wide0", 257);
  for (int i = 1; wide % 2 != 0; ++i) {
    wide = syms.Relation("wide" + std::to_string(i), 257);
  }
  RelationId unary = syms.Relation("unary", 1);
  ASSERT_EQ(unary, wide ^ 1u);

  Term filler = syms.Constant("filler");
  Term probe = syms.Constant("probe");
  std::vector<Term> args(257, filler);
  args[256] = probe;

  Database db;
  db.Insert(Atom(wide, args));
  EXPECT_EQ(db.AtomsAt(wide, 256, probe).size(), 1u);
  EXPECT_EQ(db.AtomsAt(wide, 0, filler).size(), 1u);
  // The other relation's postings must stay empty.
  EXPECT_TRUE(db.AtomsAt(unary, 0, probe).empty());

  db.Insert(Atom(unary, {probe}));
  ASSERT_EQ(db.AtomsAt(unary, 0, probe).size(), 1u);
  EXPECT_EQ(db.atom(db.AtomsAt(unary, 0, probe)[0]).pred, unary);
}

TEST(DatabaseTest, DeferredIndexingMatchesEagerIndexing) {
  SymbolTable syms;
  RelationId r = syms.Relation("r", 2);
  std::vector<Term> consts;
  for (int i = 0; i < 40; ++i) {
    consts.push_back(syms.Constant("c" + std::to_string(i)));
  }
  Database eager;
  Database deferred;
  for (int i = 0; i < 40; ++i) {
    for (int j = 0; j < 40; j += 3) {
      Atom a(r, {consts[i], consts[j]});
      eager.Insert(a);
      deferred.InsertDeferIndex(a);
    }
  }
  deferred.IndexNewAtoms();
  EXPECT_EQ(eager, deferred);
  EXPECT_EQ(eager.AtomsOf(r), deferred.AtomsOf(r));
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(eager.AtomsAt(r, 0, consts[i]), deferred.AtomsAt(r, 0, consts[i]));
    EXPECT_EQ(eager.AtomsAt(r, 1, consts[i]), deferred.AtomsAt(r, 1, consts[i]));
  }
}

// --- EraseAtoms: order-preserving erase == in-order rebuild ---

// Atoms over a binary, a unary and an annotated relation, enough to span
// three 512-atom segments.
struct EraseFixture {
  SymbolTable syms;
  std::vector<RelationId> rels;
  std::vector<Term> consts;
  std::vector<Atom> atoms;

  EraseFixture() {
    rels = {syms.Relation("r", 2), syms.Relation("u", 1),
            syms.Relation("n", 2)};
    for (int i = 0; i < 40; ++i) {
      consts.push_back(syms.Constant("c" + std::to_string(i)));
    }
    for (int i = 0; i < 40; ++i) {
      for (int j = 0; j < 30; ++j) {
        atoms.push_back(Atom(rels[0], {consts[i], consts[(i * 7 + j) % 40]}));
      }
      atoms.push_back(Atom(rels[1], {consts[i]}));
      atoms.push_back(Atom(rels[2], {consts[i]}, {consts[(i + 3) % 40]}));
    }
  }

  Database Build(bool position_index) const {
    Database db;
    db.set_position_index_enabled(position_index);
    for (const Atom& a : atoms) db.Insert(a);
    return db;
  }

  // Erases `dead` from a fresh database and checks the result, and the
  // remap, against inserting the survivors in order.
  void Check(const std::vector<uint32_t>& dead, bool position_index = true) {
    Database db = Build(position_index);
    std::vector<uint32_t> remap;
    db.EraseAtoms(dead, &remap);
    Database rebuilt;
    rebuilt.set_position_index_enabled(position_index);
    std::vector<uint8_t> is_dead(atoms.size(), 0);
    for (uint32_t d : dead) is_dead[d] = 1;
    for (size_t i = 0; i < atoms.size(); ++i) {
      if (!is_dead[i]) rebuilt.Insert(atoms[i]);
    }
    ExpectSame(db, rebuilt, position_index);
    if (dead.empty()) {
      EXPECT_TRUE(remap.empty());
      return;
    }
    ASSERT_EQ(remap.size(), atoms.size() - dead.front());
    for (size_t k = 0; k < remap.size(); ++k) {
      const Atom& old = atoms[dead.front() + k];
      if (is_dead[dead.front() + k]) {
        EXPECT_EQ(remap[k], Database::kErased);
      } else {
        ASSERT_LT(remap[k], db.size());
        EXPECT_EQ(db.atom(remap[k]), old);
      }
    }
  }

  // size, order, Contains, AtomsOf and AtomsAt for every key.
  void ExpectSame(const Database& got, const Database& want,
                  bool position_index) const {
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got.atom(i), want.atom(i)) << "index " << i;
    }
    for (const Atom& a : atoms) {
      EXPECT_EQ(got.Contains(a), want.Contains(a));
    }
    for (RelationId rel : rels) {
      EXPECT_EQ(got.AtomsOf(rel), want.AtomsOf(rel));
      if (!position_index) continue;
      for (uint32_t pos = 0; pos < 2; ++pos) {
        for (Term c : consts) {
          EXPECT_EQ(got.AtomsAt(rel, pos, c), want.AtomsAt(rel, pos, c));
        }
      }
    }
  }
};

TEST(DatabaseEraseTest, MatchesRebuildAcrossShapes) {
  EraseFixture f;
  const uint32_t n = static_cast<uint32_t>(f.atoms.size());
  ASSERT_GT(n, 1024u);  // Three segments.
  std::vector<uint32_t> all(n);
  for (uint32_t i = 0; i < n; ++i) all[i] = i;
  std::vector<uint32_t> every_seventh;
  for (uint32_t i = 3; i < n; i += 7) every_seventh.push_back(i);
  const std::vector<std::vector<uint32_t>> cases = {
      {},                               // None.
      all,                              // All.
      {0},                              // First.
      {n - 1},                          // Last.
      {510, 511, 512, 513, 1023, 1024},  // Across segment boundaries.
      {600, 1100, n - 1},
      every_seventh,
  };
  for (const auto& dead : cases) {
    SCOPED_TRACE("erasing " + std::to_string(dead.size()) + " atoms");
    f.Check(dead);
  }
}

TEST(DatabaseEraseTest, MatchesRebuildWithoutPositionIndex) {
  EraseFixture f;
  f.Check({0, 5, 511, 512, 900}, /*position_index=*/false);
}

TEST(DatabaseEraseTest, ErasingEveryAtomOfAKeyDropsItsPostings) {
  EraseFixture f;
  Database db = f.Build(true);
  std::vector<uint32_t> dead;
  for (uint32_t i = 0; i < f.atoms.size(); ++i) {
    if (f.atoms[i].pred == f.rels[1]) dead.push_back(i);
  }
  std::vector<uint32_t> remap;
  db.EraseAtoms(dead, &remap);
  EXPECT_TRUE(db.AtomsOf(f.rels[1]).empty());
  EXPECT_TRUE(db.AtomsAt(f.rels[1], 0, f.consts[0]).empty());
  EXPECT_FALSE(db.AtomsOf(f.rels[0]).empty());
}

TEST(DatabaseEraseTest, ErasedAtomCanBeReinserted) {
  EraseFixture f;
  Database db = f.Build(true);
  std::vector<uint32_t> remap;
  db.EraseAtoms({7, 700}, &remap);
  EXPECT_FALSE(db.Contains(f.atoms[7]));
  EXPECT_TRUE(db.Insert(f.atoms[7]));  // Appended, not resurrected in place.
  EXPECT_FALSE(db.Insert(f.atoms[7]));
  EXPECT_EQ(db.atom(db.size() - 1), f.atoms[7]);

  Database rebuilt;
  for (size_t i = 0; i < f.atoms.size(); ++i) {
    if (i != 7 && i != 700) rebuilt.Insert(f.atoms[i]);
  }
  rebuilt.Insert(f.atoms[7]);
  f.ExpectSame(db, rebuilt, true);
}

TEST(DatabaseEraseTest, CopyAndMoveAfterErase) {
  EraseFixture f;
  Database db = f.Build(true);
  std::vector<uint32_t> remap;
  db.EraseAtoms({1, 513, 1030}, &remap);
  Database copy(db);
  f.ExpectSame(copy, db, true);
  Database assigned;
  assigned = db;
  f.ExpectSame(assigned, db, true);
  Database moved(std::move(copy));
  f.ExpectSame(moved, db, true);
  // The copy is independent: erasing from it leaves the original alone.
  assigned.EraseAtoms({0}, &remap);
  EXPECT_EQ(assigned.size() + 1, db.size());
  EXPECT_TRUE(db.Contains(f.atoms[0]));
}

}  // namespace
}  // namespace gerel
