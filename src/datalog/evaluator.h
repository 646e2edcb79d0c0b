// Bottom-up evaluation of Datalog programs with stratified negation.
//
// This is the substrate the paper's translations target (§6): after
// rewriting a guarded/nearly guarded theory into Datalog, query answering
// reduces to one fixpoint computation here. Evaluation is semi-naive;
// a naive mode is kept as a reference.
#ifndef GEREL_DATALOG_EVALUATOR_H_
#define GEREL_DATALOG_EVALUATOR_H_

#include <set>
#include <vector>

#include "core/budget.h"
#include "core/database.h"
#include "core/status.h"
#include "core/symbol_table.h"
#include "core/theory.h"
#include "datalog/support.h"

namespace gerel {

struct DatalogOptions {
  // Semi-naive evaluation restricts each round to triggers touching the
  // previous round's delta; naive evaluation re-derives everything. The
  // naive mode stays as the reference EngineEquivalenceTest compares
  // stratified-negation models against: the oracle in testing/oracle.h
  // is negation-free, so it cannot check those.
  bool seminaive = true;
  // Populate the acdom built-in before evaluation.
  bool populate_acdom = true;
  // Optional execution budget; checked at round boundaries and,
  // amortized, inside rule evaluation. Not owned. Exhaustion stops the
  // pass cleanly with complete = false: the partial fixpoint is sound
  // (every derived atom is a consequence; negated literals read only
  // fully-computed lower strata).
  ExecutionBudget* budget = nullptr;
  // Optional derivation-support recording for incremental retraction
  // (DRed, see datalog/support.h). Not owned; must outlive the program.
  // Materialize clears and repopulates the log; ExtendWithDelta appends.
  SupportLog* support_log = nullptr;
};

// Per-rule evaluation counters, indexed like Theory::rules().
struct RuleStats {
  size_t matches = 0;  // Homomorphisms enumerated (pre-negation-check).
  size_t derived = 0;  // New atoms this rule inserted first.
};

struct DatalogResult {
  Database database;
  size_t rounds = 0;
  size_t derived_atoms = 0;
  std::vector<RuleStats> rule_stats;
  // False when a budget stopped evaluation before the fixpoint.
  bool complete = true;
  DegradationReason degradation;
};

// Evaluates `theory` (all rules Datalog, i.e. no existential variables;
// stratified negation allowed) over `input` to its least / perfect model.
Result<DatalogResult> EvaluateDatalog(const Theory& theory,
                                      const Database& input,
                                      SymbolTable* symbols,
                                      const DatalogOptions& options =
                                          DatalogOptions());

// ans((Σ, Q), D) for a Datalog query.
Result<std::set<std::vector<Term>>> DatalogAnswers(
    const Theory& theory, const Database& input, RelationId output,
    SymbolTable* symbols, const DatalogOptions& options = DatalogOptions());

}  // namespace gerel

#endif  // GEREL_DATALOG_EVALUATOR_H_
