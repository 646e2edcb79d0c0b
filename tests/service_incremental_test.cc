// Property tests for incremental assertion: a PreparedKb that has been
// extended by Asserts must agree with a PreparedKb prepared fresh on the
// final database, and (when complete) with the one-shot pipeline.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "chase/chase.h"
#include "core/database.h"
#include "core/parser.h"
#include "service/prepared_kb.h"
#include "testing/generator.h"
#include "transform/pipeline.h"

namespace gerel {
namespace {

using testing::CaseGenerator;
using testing::GenClass;
using testing::GeneratedCase;
using testing::GenOptions;
using testing::NextTerminatingCase;

// One atomic CQ per theory relation: p(X1..Xk) -> out_p(X1..Xk).
std::vector<Rule> RelationQueries(const Theory& theory, SymbolTable* syms) {
  std::vector<Rule> queries;
  std::vector<bool> seen;
  for (const Rule& r : theory.rules()) {
    for (const Atom& a : r.head) {
      if (a.pred >= seen.size()) seen.resize(a.pred + 1, false);
      if (seen[a.pred]) continue;
      seen[a.pred] = true;
      std::vector<Term> args;
      for (int i = 0; i < syms->RelationArity(a.pred); ++i) {
        args.push_back(syms->Variable("Q" + std::to_string(i)));
      }
      RelationId out =
          syms->Relation("out_" + syms->RelationName(a.pred),
                         static_cast<int>(args.size()));
      queries.push_back(
          Rule::Positive({Atom(a.pred, args)}, {Atom(out, args)}));
    }
  }
  return queries;
}

// Splits db into an initial prefix and the remaining atoms.
void Split(const Database& db, Database* initial, std::vector<Atom>* rest) {
  size_t half = db.size() / 2;
  for (size_t i = 0; i < db.size(); ++i) {
    if (i < half) {
      initial->Insert(db.atom(i));
    } else {
      rest->push_back(db.atom(i));
    }
  }
}

class ServiceIncrementalTest : public ::testing::TestWithParam<unsigned> {};

// Datalog theories (no existentials): the prepared route is complete, so
// the incrementally extended KB, a fresh KB over the final database, and
// the one-shot pipeline must agree exactly.
TEST_P(ServiceIncrementalTest, DatalogThreeWayEquivalence) {
  SymbolTable syms;
  GenOptions options;
  options.num_relations = 4;
  options.max_body_atoms = 3;
  options.num_vars = 4;
  options.num_facts = 12;
  options.num_constants = 4;
  CaseGenerator gen(GetParam(), &syms, options);
  GeneratedCase c = gen.Next(GenClass::kDatalog);
  const Theory& theory = c.theory;
  const Database& db = c.database;
  Database initial;
  std::vector<Atom> rest;
  Split(db, &initial, &rest);

  Result<std::unique_ptr<PreparedKb>> kb =
      PreparedKb::Prepare(theory, initial, &syms);
  ASSERT_TRUE(kb.ok()) << kb.status().message();
  EXPECT_EQ(kb.value()->mode(), PreparedKb::Mode::kDatalog);
  // Assert the remainder one batch at a time (two batches).
  size_t mid = rest.size() / 2;
  std::vector<Atom> batch1(rest.begin(), rest.begin() + mid);
  std::vector<Atom> batch2(rest.begin() + mid, rest.end());
  if (!batch1.empty()) {
    ASSERT_TRUE(kb.value()->Assert(batch1).ok());
  }
  if (!batch2.empty()) {
    ASSERT_TRUE(kb.value()->Assert(batch2).ok());
  }

  Result<std::unique_ptr<PreparedKb>> fresh =
      PreparedKb::Prepare(theory, db, &syms);
  ASSERT_TRUE(fresh.ok()) << fresh.status().message();

  for (const Rule& cq : RelationQueries(theory, &syms)) {
    Result<PreparedQueryResult> incr = kb.value()->Query(cq);
    ASSERT_TRUE(incr.ok()) << incr.status().message();
    Result<PreparedQueryResult> full = fresh.value()->Query(cq);
    ASSERT_TRUE(full.ok()) << full.status().message();
    EXPECT_TRUE(incr.value().complete);
    EXPECT_EQ(incr.value().answers, full.value().answers);
    Result<KbQueryResult> oneshot = AnswerKbQuery(theory, cq, db, &syms);
    ASSERT_TRUE(oneshot.ok()) << oneshot.status().message();
    EXPECT_EQ(incr.value().answers, oneshot.value().answers);
  }
}

// Guarded existential theories with a termination certificate: the
// incrementally extended KB must agree with a fresh prepare, and its
// answers must be sound for the Skolem chase of the final database (the
// certified universal model), and equal to them when complete. `mode` is
// the materialization Prepare must pick.
void CheckGuardedIncrementalMatchesFresh(const Theory& theory,
                                         const Database& db,
                                         SymbolTable* syms, bool planner,
                                         PreparedKb::Mode mode) {
  Database initial;
  std::vector<Atom> rest;
  Split(db, &initial, &rest);

  // Keep the saturation tractable on adversarial seeds; completeness is
  // tracked per query, and the fresh KB runs under the same caps.
  PreparedKbOptions options;
  options.pipeline.saturation.max_rules = 20000;
  options.planner = planner;
  Result<std::unique_ptr<PreparedKb>> kb =
      PreparedKb::Prepare(theory, initial, syms, options);
  ASSERT_TRUE(kb.ok()) << kb.status().message();
  ASSERT_EQ(kb.value()->mode(), mode);
  for (const Atom& fact : rest) {
    ASSERT_TRUE(kb.value()->Assert({fact}).ok());
  }
  Result<std::unique_ptr<PreparedKb>> fresh =
      PreparedKb::Prepare(theory, db, syms, options);
  ASSERT_TRUE(fresh.ok()) << fresh.status().message();
  ASSERT_EQ(fresh.value()->mode(), mode);

  SymbolTable chase_syms = *syms;
  ChaseOptions skolem;
  skolem.semi_oblivious = true;
  ChaseResult chase = Chase(theory, db, &chase_syms, skolem);
  ASSERT_TRUE(chase.saturated);
  for (const Rule& cq : RelationQueries(theory, syms)) {
    Result<PreparedQueryResult> incr = kb.value()->Query(cq);
    ASSERT_TRUE(incr.ok()) << incr.status().message();
    Result<PreparedQueryResult> full = fresh.value()->Query(cq);
    ASSERT_TRUE(full.ok()) << full.status().message();
    EXPECT_EQ(incr.value().answers, full.value().answers);
    EXPECT_EQ(incr.value().complete, full.value().complete);
    std::set<std::vector<Term>> certain;
    for (uint32_t i : chase.database.AtomsOf(cq.body[0].atom.pred)) {
      const Atom& a = chase.database.atom(i);
      if (a.IsGroundOverConstants()) certain.insert(a.args);
    }
    for (const std::vector<Term>& tuple : incr.value().answers) {
      EXPECT_TRUE(certain.count(tuple)) << "unsound answer";
    }
    if (incr.value().complete) {
      EXPECT_EQ(incr.value().answers, certain);
    }
  }
}

// Runs the check twice on a certified guarded theory: with the planner
// off, Prepare materializes dat(Σ) and asserts take its Datalog delta
// path; with it on, the certificate picks the Skolem chase and asserts
// re-chase.
TEST_P(ServiceIncrementalTest, GuardedIncrementalMatchesFresh) {
  SymbolTable syms;
  GenOptions options;
  options.num_rules = 3;
  options.existential_prob = 0.7;
  options.num_facts = 8;
  CaseGenerator gen(GetParam() + 1000, &syms, options);
  std::optional<GeneratedCase> c =
      NextTerminatingCase(&gen, GenClass::kGuarded, syms);
  ASSERT_TRUE(c) << "no certified guarded case";
  {
    SCOPED_TRACE("planner off");
    CheckGuardedIncrementalMatchesFresh(c->theory, c->database, &syms,
                                        /*planner=*/false,
                                        PreparedKb::Mode::kGuarded);
  }
  {
    SCOPED_TRACE("planner on");
    CheckGuardedIncrementalMatchesFresh(
        c->theory, c->database, &syms, /*planner=*/true,
        PreparedKb::Mode::kChaseMaterialized);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ServiceIncrementalTest,
                         ::testing::Range(0u, 12u));

}  // namespace
}  // namespace gerel
