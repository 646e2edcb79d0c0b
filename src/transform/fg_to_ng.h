// Translation from (nearly) frontier-guarded to nearly guarded rules
// (paper §5.1): expansion ex(Σ) (Def 12), rewriting rew(Σ) (Def 13,
// Thm 1, Prop 3), and the extension to nearly frontier-guarded theories
// (Def 14, Prop 4).
#ifndef GEREL_TRANSFORM_FG_TO_NG_H_
#define GEREL_TRANSFORM_FG_TO_NG_H_

#include <cstddef>

#include "core/budget.h"
#include "core/status.h"
#include "core/symbol_table.h"
#include "core/theory.h"

namespace gerel {

struct ExpansionOptions {
  // Hard cap on rules in the expansion; exceeding it marks the result
  // incomplete (the paper's expansion is worst-case exponential; this is
  // the practical guard rail).
  size_t max_rules = 50000;
  // Cap on the selection enumeration per rule.
  size_t max_selections_per_rule = 2000000;
  // Restrict to idempotent selections (each range variable maps to
  // itself). These are exactly the representative-choosing selections the
  // Thm 1 proof uses; disable for the exhaustive Def 7 enumeration.
  // Both exhaustive switches stay as the paper-letter references:
  // ExpansionVariantsTest (tests/transform_fg_test.cc) checks that they
  // give rew(Σ) the answers of the restricted defaults.
  bool idempotent_selections_only = true;
  // Enumerate every guard-tuple variant of Defs 10/11 instead of only the
  // subsuming fresh-variable guards (see rewriting.cc).
  bool exhaustive_guards = false;
  // Optional execution budget; checked per worklist item and, amortized,
  // inside the selection enumeration. Not owned. Exhaustion stops the
  // closure cleanly with complete = false and a populated degradation.
  ExecutionBudget* budget = nullptr;
};

struct ExpansionResult {
  Theory theory;
  // True iff the closure finished without hitting a cap.
  bool complete = true;
  size_t selections_tried = 0;
  size_t rewritings_added = 0;
  size_t fresh_relations = 0;
  // Why the closure stopped early (kNone when complete).
  DegradationReason degradation;
};

// ex(Σ): closes the normal frontier-guarded theory Σ under rc- and
// rnc-rewritings (Def 12). Rules are deduplicated modulo variable
// renaming; the fresh head relation of a rewriting is shared across its
// guard variants and reused when the same (σ, µ) recurs.
Result<ExpansionResult> Expand(const Theory& theory, SymbolTable* symbols,
                               const ExpansionOptions& options =
                                   ExpansionOptions());

struct RewriteResult {
  Theory theory;
  bool complete = true;
  DegradationReason degradation;
  ExpansionResult expansion_stats;
};

// rew(Σ) for a normal frontier-guarded theory (Def 13): ex(Σ) with
// acdom(x) added for each universal variable of each non-guarded rule.
// The result is nearly guarded (Prop 3) and preserves ground atomic
// consequences (Thm 1).
Result<RewriteResult> RewriteFgToNearlyGuarded(
    const Theory& theory, SymbolTable* symbols,
    const ExpansionOptions& options = ExpansionOptions());

// rew(Σ) for a normal *nearly* frontier-guarded theory (Def 14, Prop 4):
// the frontier-guarded part Σf is rewritten; the safe Datalog part Σd is
// kept verbatim.
Result<RewriteResult> RewriteNfgToNearlyGuarded(
    const Theory& theory, SymbolTable* symbols,
    const ExpansionOptions& options = ExpansionOptions());

}  // namespace gerel

#endif  // GEREL_TRANSFORM_FG_TO_NG_H_
