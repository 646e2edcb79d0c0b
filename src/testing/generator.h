// Seeded random (theory, database, query) triples per guardedness class
// (DESIGN.md §8).
//
// The generator emits instances that are *certified* members of the
// requested Figure 1 class (membership is re-checked with the production
// classifier and repaired by adding guards when a random draw falls
// outside), and it is biased toward class boundaries: weakly guarded
// theories guard only their unsafe variables, nearly guarded theories
// mix guarded existential rules with unguarded Datalog rules, and guard
// atoms are drawn from theory relations (which can receive nulls) as
// well as from a dedicated wide relation (which cannot).
//
// Everything is a pure function of the seed: two generators with the
// same seed and options produce byte-identical printed triples, which
// the determinism replay test pins down.
#ifndef GEREL_TESTING_GENERATOR_H_
#define GEREL_TESTING_GENERATOR_H_

#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "core/database.h"
#include "core/rule.h"
#include "core/symbol_table.h"
#include "core/theory.h"

namespace gerel::testing {

// The seven language classes of Figure 1, smallest to largest, plus the
// extended lattice of core/classify.h (membership targets for the
// termination lane; the structural constraints are per-rule, so members
// are built by construction and double-checked with the classifier).
enum class GenClass {
  kDatalog,                 // dlg
  kGuarded,                 // g
  kFrontierGuarded,         // fg
  kWeaklyGuarded,           // wg
  kWeaklyFrontierGuarded,   // wfg
  kNearlyGuarded,           // ng
  kNearlyFrontierGuarded,   // nfg
  kLinear,                  // lin
  kFrontierOne,             // f1
  kJoinless,                // jl
  kDomainRestricted,        // dr
  kShy,                     // shy
};

// Short tag used by the CLI (--class=fg) and in transcripts.
const char* GenClassTag(GenClass cls);
// Parses a tag (Figure 1 or extended); returns false on unknown tags.
bool ParseGenClass(std::string_view tag, GenClass* out);
// The seven Figure 1 classes, in declaration order.
const std::vector<GenClass>& AllGenClasses();
// The five extended classes (linear .. shy), in declaration order.
const std::vector<GenClass>& ExtendedGenClasses();

struct GenOptions {
  int num_relations = 3;
  int max_arity = 2;
  int num_rules = 4;
  int max_body_atoms = 2;
  // Size of the per-theory variable pool (also the wide guard arity).
  int num_vars = 3;
  int num_facts = 7;
  int num_constants = 3;
  double existential_prob = 0.45;
  // Probability that a rule's guard is a theory relation (which may
  // receive derived atoms and nulls) rather than the EDB-only wide
  // relation; theory-relation guards produce deeper chases.
  double theory_guard_prob = 0.5;
  // Probability that a head relation is drawn "layered" (index at least
  // the maximal body relation index), which keeps most chases finite.
  double layered_prob = 0.7;
  // Probability that a generated constant name requires quoting
  // (exercises the quoted-constant round trip; 0 for differential runs).
  double quoted_constant_prob = 0.0;
  // Probability that a relation carries a 1-term annotation R[t](~v).
  double annotation_prob = 0.0;
  // Probability that the query head has a variable not in its body
  // (exercises the acdom guard of the §7 pipeline).
  double free_head_var_prob = 0.15;
  // Probability that a query body argument is a constant.
  double query_constant_prob = 0.2;
};

struct GeneratedCase {
  unsigned seed = 0;
  GenClass cls = GenClass::kDatalog;
  Theory theory;
  Database database;
  // A conjunctive query over the theory relations with head relation "q".
  Rule query;
};

class CaseGenerator {
 public:
  CaseGenerator(unsigned seed, SymbolTable* symbols,
                const GenOptions& options = GenOptions());

  // Generates the next case of the class. The result is guaranteed (by
  // construction plus classifier-checked repair) to lie in `cls`.
  GeneratedCase Next(GenClass cls);

  std::mt19937& rng() { return rng_; }

 private:
  struct RelInfo {
    RelationId id = 0;
    int arity = 0;       // Argument positions.
    int annotations = 0; // Annotation positions.
  };

  Atom RandomAtom(const RelInfo& rel, const std::vector<Term>& pool);
  Term RandomConstantTerm();
  Rule GenerateRule(GenClass cls, int rule_index);
  Rule GenerateExtendedRule(GenClass cls, int rule_index);
  void RepairClass(GenClass cls, Theory* theory);
  void RepairExtended(GenClass cls, Theory* theory);
  Rule GenerateQuery();
  Database GenerateDatabase();

  unsigned seed_;
  std::mt19937 rng_;
  SymbolTable* symbols_;
  GenOptions options_;
  std::vector<RelInfo> relations_;
  RelInfo wide_;
  std::vector<Term> vars_;
  std::vector<Term> constants_;
  int case_index_ = 0;
};

// Draws cases of `cls` from `gen` until one carries a termination
// certificate (AnalyzeTermination: the Skolem chase of its theory stops
// on every database) and returns it; std::nullopt when 16 draws in a
// row are uncertified. The randomized suites chase only such cases, so
// every seed checks a saturated chase. `symbols` is the generator's
// table.
std::optional<GeneratedCase> NextTerminatingCase(CaseGenerator* gen,
                                                 GenClass cls,
                                                 const SymbolTable& symbols);

// Renders a case in parser syntax: theory rules and facts as statements,
// the class/seed header and the query as comments. The rules+facts part
// re-parses to the same theory and database.
std::string CaseToString(const GeneratedCase& c, const SymbolTable& symbols);

}  // namespace gerel::testing

#endif  // GEREL_TESTING_GENERATOR_H_
