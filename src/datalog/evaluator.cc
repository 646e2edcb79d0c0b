#include "datalog/evaluator.h"

#include "datalog/program.h"

namespace gerel {

// One-shot evaluation: compile a DatalogProgram (datalog/program.h) and
// materialize a single fixpoint. Callers that evaluate the same program
// repeatedly (the serving layer) keep the compiled program instead.
Result<DatalogResult> EvaluateDatalog(const Theory& theory,
                                      const Database& input,
                                      SymbolTable* symbols,
                                      const DatalogOptions& options) {
  Result<DatalogProgram> program =
      DatalogProgram::Compile(theory, symbols, options);
  if (!program.ok()) return program.status();
  DatalogResult result;
  result.database = input;
  EvalPassStats pass = program.value().Materialize(&result.database);
  result.rounds = pass.rounds;
  result.derived_atoms = pass.derived_atoms;
  result.complete = pass.complete;
  result.degradation = pass.degradation;
  result.rule_stats = program.value().rule_stats();
  return result;
}

Result<std::set<std::vector<Term>>> DatalogAnswers(
    const Theory& theory, const Database& input, RelationId output,
    SymbolTable* symbols, const DatalogOptions& options) {
  Result<DatalogResult> r = EvaluateDatalog(theory, input, symbols, options);
  if (!r.ok()) return r.status();
  std::set<std::vector<Term>> answers;
  for (uint32_t ai : r.value().database.AtomsOf(output)) {
    const Atom& a = r.value().database.atom(ai);
    if (a.IsGroundOverConstants()) answers.insert(a.args);
  }
  return answers;
}

}  // namespace gerel
