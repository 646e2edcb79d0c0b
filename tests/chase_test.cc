// Tests for the oblivious chase, including the paper's running example
// (Example 1 / Figure 2) and Example 7.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "chase/chase.h"
#include "core/parser.h"
#include "core/printer.h"

namespace gerel {
namespace {

// Σp of Example 1 (σ1–σ4, with σ4 the query rule for Q).
const char* kRunningExample = R"(
  publication(X) -> exists K1, K2. keywords(X, K1, K2).
  keywords(X, K1, K2) -> hastopic(X, K1).
  hastopic(X, Z), hasauthor(X, U), hasauthor(Y, U), hastopic(Y, Z2),
    scientific(Z2), citedin(Y, X) -> scientific(Z).
  hasauthor(X, Y), hastopic(X, Z), scientific(Z) -> q(Y).
)";

// D of Example 1.
const char* kRunningDatabase = R"(
  publication(p1). publication(p2). citedin(p1, p2).
  hasauthor(p1, a1). hasauthor(p2, a1). hasauthor(p2, a2).
  hastopic(p1, t1). scientific(t1).
)";

struct Fixture {
  SymbolTable syms;
  Theory theory;
  Database db;

  Fixture(const char* rules, const char* facts) {
    theory = ParseTheory(rules, &syms).value();
    db = ParseDatabase(facts, &syms).value();
  }
};

TEST(ChaseTest, DatalogFixpoint) {
  Fixture f("e(X, Y) -> t(X, Y).\ne(X, Y), t(Y, Z) -> t(X, Z).",
            "e(a, b). e(b, c). e(c, d).");
  ChaseResult r = Chase(f.theory, f.db, &f.syms);
  EXPECT_TRUE(r.saturated);
  RelationId t = f.syms.Relation("t");
  EXPECT_EQ(r.database.AtomsOf(t).size(), 6u);  // All reachable pairs.
  EXPECT_TRUE(r.database.Contains(
      Atom(t, {f.syms.Constant("a"), f.syms.Constant("d")})));
}

TEST(ChaseTest, ExistentialRuleCreatesFreshNulls) {
  Fixture f("publication(X) -> exists K1, K2. keywords(X, K1, K2).",
            "publication(p1). publication(p2).");
  ChaseResult r = Chase(f.theory, f.db, &f.syms);
  EXPECT_TRUE(r.saturated);
  RelationId kw = f.syms.Relation("keywords");
  ASSERT_EQ(r.database.AtomsOf(kw).size(), 2u);
  // Each publication gets its own pair of distinct fresh nulls.
  const Atom& a0 = r.database.atom(r.database.AtomsOf(kw)[0]);
  const Atom& a1 = r.database.atom(r.database.AtomsOf(kw)[1]);
  EXPECT_TRUE(a0.args[1].IsNull());
  EXPECT_TRUE(a0.args[2].IsNull());
  EXPECT_NE(a0.args[1], a0.args[2]);
  EXPECT_NE(a0.args[1], a1.args[1]);
}

TEST(ChaseTest, ObliviousChaseFiresEachTriggerOnce) {
  // Even when the head is already satisfied, the oblivious chase fires
  // the trigger (creating a redundant null) — but only once per trigger.
  Fixture f("p(X) -> exists Y. e(X, Y).", "p(a). e(a, b).");
  ChaseResult r = Chase(f.theory, f.db, &f.syms);
  EXPECT_TRUE(r.saturated);
  EXPECT_EQ(r.steps, 1u);
  EXPECT_EQ(r.database.AtomsOf(f.syms.Relation("e")).size(), 2u);
}

TEST(SemiObliviousChaseTest, FrontierlessRuleFiresOncePerRule) {
  // p(X) → ∃Y q(Y) has an empty frontier: the semi-oblivious (Skolem)
  // chase invents one witness total, the oblivious one per p-fact.
  Fixture f("p(X) -> exists Y. q(Y).", "p(a). p(b). p(c).");
  ChaseOptions so;
  so.semi_oblivious = true;
  ChaseResult semi = Chase(f.theory, f.db, &f.syms, so);
  EXPECT_TRUE(semi.saturated);
  EXPECT_EQ(semi.database.AtomsOf(f.syms.Relation("q")).size(), 1u);
  SymbolTable syms2 = f.syms;
  ChaseResult oblivious = Chase(f.theory, f.db, &syms2);
  EXPECT_EQ(oblivious.database.AtomsOf(syms2.Relation("q")).size(), 3u);
}

TEST(SemiObliviousChaseTest, TerminatesWhereObliviousDiverges) {
  // The weakly acyclic classic: p(X) → ∃Y p(Y). Skolem semantics makes
  // the witness a single constant-like null; the oblivious chase spins.
  Fixture f("p(X) -> exists Y. p(Y).", "p(a).");
  ChaseOptions so;
  so.semi_oblivious = true;
  ChaseResult semi = Chase(f.theory, f.db, &f.syms, so);
  EXPECT_TRUE(semi.saturated);
  EXPECT_EQ(semi.database.AtomsOf(f.syms.Relation("p")).size(), 2u);
  SymbolTable syms2 = f.syms;
  ChaseOptions bounded;
  bounded.max_steps = 50;
  EXPECT_FALSE(Chase(f.theory, f.db, &syms2, bounded).saturated);
}

TEST(SemiObliviousChaseTest, SameGroundAnswersAsOblivious) {
  Fixture f(kRunningExample, kRunningDatabase);
  ChaseOptions so;
  so.semi_oblivious = true;
  ChaseResult semi = Chase(f.theory, f.db, &f.syms, so);
  SymbolTable syms2 = f.syms;
  ChaseResult oblivious = Chase(f.theory, f.db, &syms2);
  ASSERT_TRUE(semi.saturated && oblivious.saturated);
  RelationId q = f.syms.Relation("q");
  EXPECT_EQ(semi.database.AtomsOf(q).size(),
            oblivious.database.AtomsOf(q).size());
}

TEST(ChaseTest, RunningExampleEntailsTheQueryAnswers) {
  Fixture f(kRunningExample, kRunningDatabase);
  ChaseResult r = Chase(f.theory, f.db, &f.syms);
  ASSERT_TRUE(r.saturated);
  RelationId q = f.syms.Relation("q");
  EXPECT_TRUE(r.database.Contains(Atom(q, {f.syms.Constant("a1")})));
  EXPECT_TRUE(r.database.Contains(Atom(q, {f.syms.Constant("a2")})));
  EXPECT_EQ(r.database.AtomsOf(q).size(), 2u);
}

TEST(ChaseTest, RunningExampleMatchesFigure2) {
  Fixture f(kRunningExample, kRunningDatabase);
  ChaseResult r = Chase(f.theory, f.db, &f.syms);
  ASSERT_TRUE(r.saturated);
  // Figure 2: two keywords atoms (nulls n11/n12 and n21/n22), three
  // hastopic atoms (t1 plus the two first keywords), and scientific holds
  // for t1 and the inferred topic n21 of p2.
  EXPECT_EQ(r.database.AtomsOf(f.syms.Relation("keywords")).size(), 2u);
  EXPECT_EQ(r.database.AtomsOf(f.syms.Relation("hastopic")).size(), 3u);
  RelationId sci = f.syms.Relation("scientific");
  EXPECT_EQ(r.database.AtomsOf(sci).size(), 2u);
  bool has_null_topic = false;
  for (uint32_t i : r.database.AtomsOf(sci)) {
    if (r.database.atom(i).args[0].IsNull()) has_null_topic = true;
  }
  EXPECT_TRUE(has_null_topic);
}

TEST(ChaseTest, ChaseAnswersCollectsConstantTuples) {
  Fixture f(kRunningExample, kRunningDatabase);
  std::set<std::vector<Term>> answers =
      ChaseAnswers(f.theory, f.db, f.syms.Relation("q"), &f.syms);
  std::set<std::vector<Term>> expected = {
      {f.syms.Constant("a1")}, {f.syms.Constant("a2")}};
  EXPECT_EQ(answers, expected);
}

TEST(ChaseTest, Example7Chase) {
  // Example 7: σ1–σ5 entail d(c) from {a(c), c0(c)}.
  Fixture f(R"(
    a(X) -> exists Y. r(X, Y).
    r(X, Y) -> s(Y, Y).
    s(X, Y) -> exists Z. t(X, Y, Z).
    t(X, X, Y) -> b(X).
    c0(X), r(X, Y), b(Y) -> d(X).
  )",
            "a(c). c0(c).");
  ChaseResult r = Chase(f.theory, f.db, &f.syms);
  ASSERT_TRUE(r.saturated);
  EXPECT_TRUE(
      r.database.Contains(Atom(f.syms.Relation("d"), {f.syms.Constant("c")})));
}

TEST(ChaseTest, FactRulesFire) {
  Fixture f("-> r(c).\nr(X) -> s(X).", "");
  ChaseResult r = Chase(f.theory, f.db, &f.syms);
  EXPECT_TRUE(r.saturated);
  EXPECT_TRUE(
      r.database.Contains(Atom(f.syms.Relation("s"), {f.syms.Constant("c")})));
}

TEST(ChaseTest, InfiniteChaseHitsStepLimit) {
  Fixture f("r(X) -> exists Y. e(X, Y).\ne(X, Y) -> r(Y).", "r(c).");
  ChaseOptions opts;
  opts.max_steps = 50;
  ChaseResult r = Chase(f.theory, f.db, &f.syms, opts);
  EXPECT_FALSE(r.saturated);
  EXPECT_EQ(r.steps, 50u);
}

TEST(ChaseTest, NullDepthBoundsInfiniteChase) {
  Fixture f("r(X) -> exists Y. e(X, Y).\ne(X, Y) -> r(Y).", "r(c).");
  ChaseOptions opts;
  opts.max_null_depth = 3;
  ChaseResult r = Chase(f.theory, f.db, &f.syms, opts);
  EXPECT_FALSE(r.saturated);  // Depth-skipped triggers remain.
  // Exactly three nulls: c → n1 → n2 → n3, then the depth bound stops it.
  EXPECT_EQ(r.database.AtomsOf(f.syms.Relation("e")).size(), 3u);
}

TEST(ChaseTest, AcdomIsPopulated) {
  Fixture f("acdom(X) -> touched(X).", "e(a, b).");
  ChaseResult r = Chase(f.theory, f.db, &f.syms);
  EXPECT_TRUE(r.saturated);
  RelationId touched = f.syms.Relation("touched");
  EXPECT_EQ(r.database.AtomsOf(touched).size(), 2u);
}

TEST(ChaseTest, AcdomPopulationCanBeDisabled) {
  Fixture f("acdom(X) -> touched(X).", "e(a, b).");
  ChaseOptions opts;
  opts.populate_acdom = false;
  ChaseResult r = Chase(f.theory, f.db, &f.syms, opts);
  EXPECT_TRUE(r.saturated);
  EXPECT_TRUE(r.database.AtomsOf(f.syms.Relation("touched")).empty());
}

TEST(ChaseTest, ChaseEntailsGroundAtom) {
  Fixture f("e(X, Y) -> t(X, Y).\ne(X, Y), t(Y, Z) -> t(X, Z).",
            "e(a, b). e(b, c).");
  RelationId t = f.syms.Relation("t");
  EXPECT_TRUE(ChaseEntails(f.theory, f.db,
                           Atom(t, {f.syms.Constant("a"), f.syms.Constant("c")}),
                           &f.syms));
  EXPECT_FALSE(ChaseEntails(
      f.theory, f.db,
      Atom(t, {f.syms.Constant("c"), f.syms.Constant("a")}), &f.syms));
}

TEST(ChaseTest, DerivationRecordsProvenance) {
  Fixture f("publication(X) -> exists K1, K2. keywords(X, K1, K2).",
            "publication(p1).");
  ChaseResult r = Chase(f.theory, f.db, &f.syms);
  ASSERT_EQ(r.derivation.size(), 1u);
  EXPECT_EQ(r.derivation[0].rule_index, 0u);
  ASSERT_EQ(r.derivation[0].frontier_image.size(), 1u);
  EXPECT_EQ(r.derivation[0].frontier_image[0], f.syms.Constant("p1"));
}

TEST(ChaseTest, MaxAtomsLimit) {
  Fixture f("r(X) -> exists Y. r(Y).", "r(c).");
  ChaseOptions opts;
  opts.max_atoms = 10;
  ChaseResult r = Chase(f.theory, f.db, &f.syms, opts);
  EXPECT_FALSE(r.saturated);
  EXPECT_LE(r.database.size(), 11u);
}

// AtomsOf and AtomsAt of every relation and position must equal a linear
// scan. The merge inserts through InsertDeferIndex, so an exit path that
// skipped IndexNewAtoms would leave postings owed (a GEREL_CHECK crash in
// the first caller that reads them) or stale.
void ExpectCompletePostings(const Database& db, const SymbolTable& syms) {
  std::map<RelationId, std::vector<uint32_t>> by_relation;
  std::map<std::tuple<RelationId, uint32_t, Term>, std::vector<uint32_t>>
      by_position;
  for (uint32_t i = 0; i < db.size(); ++i) {
    const Atom& a = db.atom(i);
    by_relation[a.pred].push_back(i);
    uint32_t pos = 0;
    for (Term t : a.AllTerms()) by_position[{a.pred, pos++, t}].push_back(i);
  }
  for (RelationId r = 0; r < syms.NumRelations(); ++r) {
    EXPECT_EQ(db.AtomsOf(r), by_relation[r]) << syms.RelationName(r);
  }
  for (const auto& [key, want] : by_position) {
    const auto& [r, pos, t] = key;
    EXPECT_EQ(db.AtomsAt(r, pos, t), want)
        << syms.RelationName(r) << " position " << pos;
  }
}

TEST(ChaseTest, PostingsAreCompleteOnEveryExitPath) {
  // Each null spawns two more, so every cap lands inside a round with
  // several relations and three-position atoms in flight.
  const char* branching = R"(
    r(X) -> exists Y, Z. e(X, Y), f(Y, Z, X).
    e(X, Y) -> r(Y).
    f(Y, Z, X) -> r(Z).
  )";
  const char* seeds = "r(c1). r(c2). r(c3). r(c4). r(c5). e(c1, c2).";
  struct Case {
    std::string name;
    const char* rules;
    const char* facts;
    ChaseOptions options;
    bool saturated;
    BudgetLimit limit;
  };
  std::vector<Case> cases;
  cases.push_back({"fixpoint", kRunningExample, kRunningDatabase,
                   ChaseOptions(), true, BudgetLimit::kNone});
  ChaseOptions steps;
  steps.max_steps = 37;
  cases.push_back({"max_steps", branching, seeds, steps, false,
                   BudgetLimit::kSteps});
  ChaseOptions atoms;
  atoms.max_atoms = 101;
  cases.push_back({"max_atoms", branching, seeds, atoms, false,
                   BudgetLimit::kAtoms});
  ChaseOptions depth;
  depth.max_null_depth = 3;
  // A depth-bounded run reports the generic step cap.
  cases.push_back({"max_null_depth", branching, seeds, depth, false,
                   BudgetLimit::kSteps});
  ExecutionBudget cancelled;
  cancelled.Cancel();
  ChaseOptions cancel;
  cancel.budget = &cancelled;
  cases.push_back({"budget cancel", branching, seeds, cancel, false,
                   BudgetLimit::kCancelled});
  for (Case& c : cases) {
    SCOPED_TRACE(c.name);
    Fixture f(c.rules, c.facts);
    ChaseResult r = Chase(f.theory, f.db, &f.syms, c.options);
    EXPECT_EQ(r.saturated, c.saturated);
    EXPECT_EQ(r.degradation.limit, c.limit);
    ExpectCompletePostings(r.database, f.syms);
  }
}

TEST(ChaseTest, PostingsAreCompleteWhenTheBudgetStopsMidRound) {
  // An unbounded chase stopped by the budget's deadline. Each round
  // fires one trigger per seed, so a round makes thousands of amortized
  // budget checks in enumeration and the merge against one check at its
  // boundary: the stop lands inside a round. The atom ceiling only
  // bounds memory on a fast host.
  Fixture f("r(X) -> exists Y. e(X, Y).\ne(X, Y) -> r(Y).", "");
  RelationId r_rel = f.syms.Relation("r");
  for (int i = 0; i < 20000; ++i) {
    f.db.Insert(Atom(r_rel, {f.syms.Constant("c" + std::to_string(i))}));
  }
  BudgetLimits limits;
  limits.timeout_ms = 20;
  limits.max_atoms = 400000;
  ExecutionBudget budget(limits);
  ChaseOptions opts;
  opts.max_steps = 0;
  opts.max_atoms = 0;
  opts.populate_acdom = false;
  opts.budget = &budget;
  ChaseResult r = Chase(f.theory, f.db, &f.syms, opts);
  EXPECT_FALSE(r.saturated);
  EXPECT_EQ(r.degradation.stage, GovernedStage::kChase);
  ExpectCompletePostings(r.database, f.syms);
}

TEST(ChaseTest, EmptyTheoryIsAlreadySaturated) {
  Fixture f("", "e(a, b).");
  ChaseResult r = Chase(f.theory, f.db, &f.syms);
  EXPECT_TRUE(r.saturated);
  EXPECT_EQ(r.steps, 0u);
}

}  // namespace
}  // namespace gerel
