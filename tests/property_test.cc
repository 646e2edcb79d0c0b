// Property-based tests: invariants of the paper's constructions swept
// over randomly generated theories and databases (parameterized gtest;
// one instantiation per seed). Cases come from the class-targeted
// CaseGenerator. Properties that chase take a case whose Skolem chase is
// certified to terminate (NextTerminatingCase) and run that chase, so
// every seed checks a saturated chase and an unsaturated one fails.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <vector>

#include "chase/chase.h"
#include "chase/chase_tree.h"
#include "core/acyclicity.h"
#include "core/classify.h"
#include "core/homomorphism.h"
#include "core/normalize.h"
#include "core/parser.h"
#include "core/printer.h"
#include "datalog/evaluator.h"
#include "stratified/stratified_chase.h"
#include "testing/generator.h"
#include "transform/canonical.h"
#include "transform/fg_to_ng.h"
#include "transform/saturation.h"

namespace gerel {
namespace {

using gerel::testing::AllGenClasses;
using gerel::testing::CaseGenerator;
using gerel::testing::ExtendedGenClasses;
using gerel::testing::GenClass;
using gerel::testing::GenClassTag;
using gerel::testing::GeneratedCase;
using gerel::testing::GenOptions;
using gerel::testing::NextTerminatingCase;

class PropertyTest : public ::testing::TestWithParam<unsigned> {};

// The seven Figure 1 classes, then the five extended ones.
// Domain-restricted and shy theories lie outside nfg, so properties that
// sweep this list also see theories that no Figure 1 class contains.
std::vector<GenClass> EveryGenClass() {
  std::vector<GenClass> classes = AllGenClasses();
  classes.insert(classes.end(), ExtendedGenClasses().begin(),
                 ExtendedGenClasses().end());
  return classes;
}

// Properties that hold in every class sweep EveryGenClass across seeds.
GenClass SeedClass(unsigned seed) {
  std::vector<GenClass> classes = EveryGenClass();
  return classes[seed % classes.size()];
}

// Four relations, bodies of up to three atoms over four variables, and
// 30% existential rules: wider joins than the GenOptions defaults.
GenOptions BaseOptions() {
  GenOptions options;
  options.num_relations = 4;
  options.max_body_atoms = 3;
  options.num_vars = 4;
  options.existential_prob = 0.3;
  return options;
}

// The Skolem chase under step and atom caps of `cap`: the chase the
// termination certificate covers. Its ground consequences are those of
// the oblivious chase.
ChaseOptions SkolemChase(size_t cap) {
  ChaseOptions opts;
  opts.max_steps = cap;
  opts.max_atoms = cap;
  opts.semi_oblivious = true;
  return opts;
}

// Collect the ground constant-only atoms over the relations of `theory`.
std::set<std::string> GroundFacts(const Database& db, const Theory& theory,
                                  const SymbolTable& syms) {
  std::set<std::string> out;
  for (RelationId rel : theory.Relations()) {
    for (uint32_t i : db.AtomsOf(rel)) {
      const Atom& a = db.atom(i);
      if (a.IsGroundOverConstants()) out.insert(ToString(a, syms));
    }
  }
  return out;
}

// P1: the Figure 1 syntactic inclusions hold for every random rule, in
// theories drawn from each of the seven classes and the five extended
// ones.
TEST_P(PropertyTest, ClassificationImplications) {
  SymbolTable syms;
  GenOptions options = BaseOptions();
  options.num_rules = 8;
  options.existential_prob = 0.5;
  CaseGenerator gen(GetParam(), &syms, options);
  for (GenClass cls : EveryGenClass()) {
    Theory t = gen.Next(cls).theory;
    PositionSet ap = AffectedPositions(t);
    for (const Rule& r : t.rules()) {
      std::string rule = std::string(GenClassTag(cls)) + ": " +
                         ToString(r, syms);
      if (IsGuardedRule(r)) {
        EXPECT_TRUE(IsFrontierGuardedRule(r)) << rule;
        EXPECT_TRUE(IsWeaklyGuardedRule(r, ap)) << rule;
        EXPECT_TRUE(IsNearlyGuardedRule(r, ap)) << rule;
      }
      if (IsFrontierGuardedRule(r)) {
        EXPECT_TRUE(IsWeaklyFrontierGuardedRule(r, ap)) << rule;
        EXPECT_TRUE(IsNearlyFrontierGuardedRule(r, ap)) << rule;
      }
      if (IsWeaklyGuardedRule(r, ap)) {
        EXPECT_TRUE(IsWeaklyFrontierGuardedRule(r, ap)) << rule;
      }
      if (IsNearlyGuardedRule(r, ap)) {
        EXPECT_TRUE(IsNearlyFrontierGuardedRule(r, ap)) << rule;
      }
    }
  }
}

// P2: normalization preserves ground consequences over the original
// signature (Prop 1(b)).
TEST_P(PropertyTest, NormalizePreservesGroundConsequences) {
  SymbolTable syms;
  GenOptions options = BaseOptions();
  options.existential_prob = 0.4;
  options.num_facts = 8;
  options.num_constants = 4;
  CaseGenerator gen(GetParam(), &syms, options);
  std::optional<GeneratedCase> c =
      NextTerminatingCase(&gen, GenClass::kFrontierGuarded, syms);
  ASSERT_TRUE(c) << "no certified fg case";
  const Theory& t = c->theory;
  ChaseResult before = Chase(t, c->database, &syms, SkolemChase(20000));
  ASSERT_TRUE(before.saturated) << ToString(t, syms);
  Theory normal = Normalize(t, &syms);
  SymbolTable syms2 = syms;
  ChaseResult after = Chase(normal, c->database, &syms2, SkolemChase(20000));
  ASSERT_TRUE(after.saturated) << ToString(normal, syms);
  EXPECT_EQ(GroundFacts(before.database, t, syms),
            GroundFacts(after.database, t, syms));
}

// P3: the canonical string is invariant under variable renaming and body
// reordering.
TEST_P(PropertyTest, CanonicalStringInvariance) {
  SymbolTable syms;
  GenOptions options = BaseOptions();
  options.num_rules = 6;
  CaseGenerator gen(GetParam(), &syms, options);
  Theory t = gen.Next(SeedClass(GetParam())).theory;
  std::mt19937& rng = gen.rng();
  for (const Rule& rule : t.rules()) {
    std::string base = CanonicalRuleString(rule, syms);
    // Rename variables injectively and shuffle the body.
    std::vector<Term> vars = rule.Vars();
    Substitution rename;
    for (size_t i = 0; i < vars.size(); ++i) {
      rename.Bind(vars[i], syms.Variable("Zq" + std::to_string(i)));
    }
    Rule renamed = rename.Apply(rule);
    std::shuffle(renamed.body.begin(), renamed.body.end(), rng);
    EXPECT_EQ(base, CanonicalRuleString(renamed, syms))
        << ToString(rule, syms) << "  vs  " << ToString(renamed, syms);
  }
}

// P4: the homomorphism matcher agrees with brute-force enumeration.
TEST_P(PropertyTest, MatcherAgreesWithBruteForce) {
  SymbolTable syms;
  GenOptions options = BaseOptions();
  options.num_rules = 3;
  options.max_body_atoms = 2;
  options.num_facts = 10;
  CaseGenerator gen(GetParam(), &syms, options);
  GeneratedCase c = gen.Next(SeedClass(GetParam()));
  const Database& db = c.database;
  std::vector<Term> domain = db.ActiveTerms();
  for (const Rule& rule : c.theory.rules()) {
    std::vector<Atom> pattern = rule.PositiveBody();
    size_t fast = 0;
    ForEachHomomorphism(pattern, db, Substitution(),
                        [&fast](const Substitution&) {
                          ++fast;
                          return true;
                        });
    // Brute force: all assignments of the pattern variables into the
    // active domain.
    std::vector<Term> vars;
    for (const Atom& a : pattern) {
      for (Term v : a.AllVars()) {
        if (std::find(vars.begin(), vars.end(), v) == vars.end()) {
          vars.push_back(v);
        }
      }
    }
    size_t slow = 0;
    std::vector<size_t> pick(vars.size(), 0);
    while (true) {
      Substitution s;
      for (size_t i = 0; i < vars.size(); ++i) s.Bind(vars[i], domain[pick[i]]);
      bool all = true;
      for (const Atom& a : pattern) {
        if (!db.Contains(s.Apply(a))) {
          all = false;
          break;
        }
      }
      if (all) ++slow;
      size_t i = 0;
      for (; i < pick.size(); ++i) {
        if (++pick[i] < domain.size()) break;
        pick[i] = 0;
      }
      if (i == pick.size()) break;
      if (pick.empty()) break;
    }
    EXPECT_EQ(fast, slow) << ToString(rule, syms);
  }
}

// P5: dat(Σ) of a random guarded theory has the chase's ground
// consequences (Thm 3).
TEST_P(PropertyTest, SaturationMatchesChaseOnGuardedTheories) {
  SymbolTable syms;
  GenOptions options = BaseOptions();
  options.num_rules = 3;
  options.existential_prob = 0.5;
  options.num_facts = 6;
  CaseGenerator gen(GetParam(), &syms, options);
  std::optional<GeneratedCase> c =
      NextTerminatingCase(&gen, GenClass::kGuarded, syms);
  ASSERT_TRUE(c) << "no certified guarded case";
  const Theory& t = c->theory;
  ASSERT_TRUE(Classify(t).guarded) << ToString(t, syms);
  ChaseResult chase = Chase(t, c->database, &syms, SkolemChase(20000));
  ASSERT_TRUE(chase.saturated) << ToString(t, syms);
  SaturationOptions sopts;
  sopts.max_rules = 20000;
  auto sat = Saturate(t, &syms, sopts);
  ASSERT_TRUE(sat.ok()) << sat.status().message();
  ASSERT_TRUE(sat.value().complete) << "saturation capped";
  auto eval = EvaluateDatalog(sat.value().datalog, c->database, &syms);
  ASSERT_TRUE(eval.ok()) << eval.status().message();
  EXPECT_EQ(GroundFacts(chase.database, t, syms),
            GroundFacts(eval.value().database, t, syms));
}

// P6: chase trees of random frontier-guarded theories satisfy Prop 2.
TEST_P(PropertyTest, ChaseTreePropertiesOnRandomFgTheories) {
  SymbolTable syms;
  GenOptions options = BaseOptions();
  options.existential_prob = 0.4;
  options.num_facts = 6;
  CaseGenerator gen(GetParam(), &syms, options);
  std::optional<GeneratedCase> c =
      NextTerminatingCase(&gen, GenClass::kFrontierGuarded, syms);
  ASSERT_TRUE(c) << "no certified fg case";
  Theory normal = Normalize(c->theory, &syms);
  ASSERT_TRUE(Classify(normal).frontier_guarded) << ToString(normal, syms);
  auto tree = BuildChaseTree(normal, c->database, &syms, SkolemChase(20000));
  ASSERT_TRUE(tree.ok()) << tree.status().message();
  Status props = CheckChaseTreeProperties(tree.value(), normal, c->database);
  EXPECT_TRUE(props.ok()) << props.message();
}

// P7: Theorem 1 on random frontier-guarded theories — rew preserves the
// ground consequences over the original signature.
TEST_P(PropertyTest, RewriteFgPreservesGroundConsequences) {
  SymbolTable syms;
  GenOptions options = BaseOptions();
  options.num_rules = 3;
  options.max_body_atoms = 2;
  options.num_vars = 3;
  options.existential_prob = 0.4;
  options.num_facts = 5;
  CaseGenerator gen(GetParam(), &syms, options);
  std::optional<GeneratedCase> c =
      NextTerminatingCase(&gen, GenClass::kFrontierGuarded, syms);
  ASSERT_TRUE(c) << "no certified fg case";
  const Theory& t = c->theory;
  Theory normal = Normalize(t, &syms);
  ASSERT_TRUE(Classify(normal).frontier_guarded) << ToString(normal, syms);
  ChaseResult oracle = Chase(t, c->database, &syms, SkolemChase(50000));
  ASSERT_TRUE(oracle.saturated) << ToString(t, syms);
  ExpansionOptions eopts;
  eopts.max_rules = 100000;
  auto rew = RewriteFgToNearlyGuarded(normal, &syms, eopts);
  ASSERT_TRUE(rew.ok()) << rew.status().message();
  SymbolTable syms2 = syms;
  ChaseResult rewritten =
      Chase(rew.value().theory, c->database, &syms2, SkolemChase(2000000));
  ASSERT_TRUE(rewritten.saturated) << "rewritten chase unsaturated";
  EXPECT_EQ(GroundFacts(oracle.database, t, syms),
            GroundFacts(rewritten.database, t, syms))
      << "theory:\n"
      << ToString(t, syms);
}

// P8: stratified chase agrees with the Datalog evaluator on semipositive
// Datalog programs.
TEST_P(PropertyTest, StratifiedChaseMatchesDatalogOnSemipositive) {
  SymbolTable syms;
  GenOptions options = BaseOptions();
  options.num_facts = 8;
  CaseGenerator gen(GetParam(), &syms, options);
  GeneratedCase c = gen.Next(GenClass::kDatalog);
  Theory t = c.theory;
  // Add one semipositive rule over a fresh relation.
  RelationId r0 = t.Relations().front();
  int arity = syms.RelationArity(r0);
  ASSERT_GT(arity, 0) << "no usable relation";
  RelationId comp = syms.Relation("complement_out", arity);
  RelationId acdom = AcdomRelation(&syms);
  Rule neg;
  std::vector<Term> xs;
  for (int i = 0; i < arity; ++i) {
    xs.push_back(syms.Variable("Nx" + std::to_string(i)));
    neg.body.emplace_back(Atom(acdom, {xs.back()}), false);
  }
  neg.body.emplace_back(Atom(r0, xs), /*negated=*/true);
  neg.head.push_back(Atom(comp, xs));
  t.AddRule(std::move(neg));
  auto stratified = StratifiedChase(t, c.database, &syms);
  ASSERT_TRUE(stratified.ok()) << stratified.status().message();
  ASSERT_TRUE(stratified.value().saturated) << ToString(t, syms);
  auto datalog = EvaluateDatalog(t, c.database, &syms);
  ASSERT_TRUE(datalog.ok()) << datalog.status().message();
  EXPECT_EQ(GroundFacts(stratified.value().database, t, syms),
            GroundFacts(datalog.value().database, t, syms));
}

// P11: positive existential-rule queries are monotonic (§8: this is why
// weakly guarded rules cannot express parity without negation): adding
// facts never removes ground consequences.
TEST_P(PropertyTest, PositiveTheoriesAreMonotonic) {
  SymbolTable syms;
  GenOptions options = BaseOptions();
  options.existential_prob = 0.3;
  options.num_facts = 9;
  CaseGenerator gen(GetParam(), &syms, options);
  std::optional<GeneratedCase> c =
      NextTerminatingCase(&gen, SeedClass(GetParam()), syms);
  ASSERT_TRUE(c) << "no certified case";
  const Theory& t = c->theory;
  // The first five facts against all of them.
  const Database& large = c->database;
  Database small;
  for (size_t i = 0; i < large.size() && i < 5; ++i) {
    small.Insert(large.atom(i));
  }
  ChaseResult r_small = Chase(t, small, &syms, SkolemChase(20000));
  SymbolTable syms2 = syms;
  ChaseResult r_large = Chase(t, large, &syms2, SkolemChase(20000));
  ASSERT_TRUE(r_small.saturated && r_large.saturated) << ToString(t, syms);
  std::set<std::string> before = GroundFacts(r_small.database, t, syms);
  std::set<std::string> after = GroundFacts(r_large.database, t, syms);
  for (const std::string& fact : before) {
    EXPECT_TRUE(after.count(fact)) << "monotonicity violated: " << fact;
  }
}

// P9: MakeProper round-trips databases.
TEST_P(PropertyTest, ProperReorderingRoundTrip) {
  SymbolTable syms;
  GenOptions options = BaseOptions();
  options.existential_prob = 0.5;
  options.num_facts = 10;
  options.num_constants = 4;
  CaseGenerator gen(GetParam(), &syms, options);
  GeneratedCase c = gen.Next(SeedClass(GetParam()));
  ProperReordering pr = MakeProper(c.theory);
  EXPECT_TRUE(IsProper(pr.theory));
  Database mapped = pr.Apply(c.database);
  Database back = pr.Invert(mapped);
  EXPECT_TRUE(back == c.database);
}

// P10: the chase result is a solution — it satisfies every rule (§2).
TEST_P(PropertyTest, ChaseResultSatisfiesTheTheory) {
  SymbolTable syms;
  GenOptions options = BaseOptions();
  options.existential_prob = 0.3;
  options.num_facts = 6;
  CaseGenerator gen(GetParam(), &syms, options);
  std::optional<GeneratedCase> c =
      NextTerminatingCase(&gen, SeedClass(GetParam()), syms);
  ASSERT_TRUE(c) << "no certified case";
  const Theory& t = c->theory;
  ChaseResult r = Chase(t, c->database, &syms, SkolemChase(20000));
  ASSERT_TRUE(r.saturated) << ToString(t, syms);
  for (const Rule& rule : t.rules()) {
    std::vector<Atom> body = rule.PositiveBody();
    bool satisfied = true;
    ForEachHomomorphism(
        body, r.database, Substitution(), [&](const Substitution& h) {
          // Some extension of h must place the whole head in the chase.
          bool found = !ForEachHomomorphism(
              rule.head, r.database, h,
              [](const Substitution&) { return false; });
          if (!found) satisfied = false;
          return satisfied;
        });
    EXPECT_TRUE(satisfied) << "unsatisfied rule: " << ToString(rule, syms);
  }
}

// P13: weak acyclicity implies joint acyclicity; weakly acyclic theories
// have terminating oblivious chases and jointly acyclic ones have
// terminating semi-oblivious (Skolem) chases.
TEST_P(PropertyTest, AcyclicityImplications) {
  SymbolTable syms;
  GenOptions options = BaseOptions();
  options.num_rules = 5;
  options.existential_prob = 0.5;
  options.num_facts = 5;
  CaseGenerator gen(GetParam(), &syms, options);
  GeneratedCase c = gen.Next(SeedClass(GetParam()));
  const Theory& t = c.theory;
  bool wa = IsWeaklyAcyclic(t);
  bool ja = IsJointlyAcyclic(t);
  if (wa) {
    EXPECT_TRUE(ja) << "weakly acyclic but not jointly acyclic";
  }
  // Both notions certify termination of the semi-oblivious (Skolem)
  // chase; the fully oblivious chase keys triggers on all body variables
  // and may diverge even on weakly acyclic theories (e.g.
  // p(x) → ∃y p(y), which has no frontier and hence no position edges).
  if (ja) {
    ChaseResult r = Chase(t, c.database, &syms, SkolemChase(200000));
    EXPECT_TRUE(r.saturated)
        << "jointly acyclic theory with diverging semi-oblivious chase:\n"
        << ToString(t, syms);
  }
}

// P-par2: parallel saturation is byte-identical to sequential
// saturation — same closure rules in the same order, same inference
// count — for any worker-lane count.
TEST_P(PropertyTest, ParallelSaturationIsByteIdenticalToSequential) {
  SymbolTable syms;
  GenOptions options = BaseOptions();
  options.num_rules = 4;
  options.existential_prob = 0.5;
  CaseGenerator gen(GetParam(), &syms, options);
  Theory t = gen.Next(GenClass::kGuarded).theory;
  ASSERT_TRUE(Classify(t).guarded) << ToString(t, syms);
  SaturationOptions sopts;
  sopts.max_rules = 4000;
  SymbolTable seq_syms = syms;
  auto seq = Saturate(t, &seq_syms, sopts);
  ASSERT_TRUE(seq.ok()) << seq.status().message();
  std::string seq_closure = ToString(seq.value().closure, seq_syms);
  std::string seq_datalog = ToString(seq.value().datalog, seq_syms);
  for (size_t threads : {size_t{2}, size_t{4}}) {
    SymbolTable par_syms = syms;
    SaturationOptions popts = sopts;
    popts.num_threads = threads;
    auto par = Saturate(t, &par_syms, popts);
    ASSERT_TRUE(par.ok()) << par.status().message();
    EXPECT_EQ(par.value().complete, seq.value().complete)
        << "threads=" << threads;
    EXPECT_EQ(par.value().inferences, seq.value().inferences)
        << "threads=" << threads;
    EXPECT_EQ(ToString(par.value().closure, par_syms), seq_closure)
        << "threads=" << threads;
    EXPECT_EQ(ToString(par.value().datalog, par_syms), seq_datalog)
        << "threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertyTest,
                         ::testing::Range(0u, 24u));

}  // namespace
}  // namespace gerel
