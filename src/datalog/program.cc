#include "datalog/program.h"

#include "core/check.h"
#include "core/join_plan.h"

namespace gerel {

namespace {

// Evaluation of one rule given a delta window [delta_begin, delta_end) of
// the database; negative literals are checked against the full database
// (sound because their relations are fully computed in lower strata).
//
// All join plans are compiled once at construction: one plan over the
// whole positive body for naive/first rounds, and one per body-atom
// position j for semi-naive rounds, with atom j pinned as level 0 and
// matched only against delta atoms. Heads and negated atoms are compiled
// against each plan's slots, so firing a match is a slot lookup per term
// rather than a hash-map substitution.
class RuleEvaluator {
 public:
  // `rule_id` is the rule's index in the backing theory, recorded into
  // the optional SupportLog so retraction can rerun the rule later.
  RuleEvaluator(const Rule& rule, uint32_t rule_id)
      : rule_(&rule), rule_id_(rule_id) {
    for (const Literal& l : rule.body) {
      (l.negated ? negatives_ : positives_).push_back(l.atom);
    }
    // All plans compile on first use: translated programs carry hundreds
    // of rules whose body relations stay empty, and those never need one.
    seeded_.resize(positives_.size());
  }

  // Fires the rule for every homomorphism with at least one positive atom
  // in the delta window. Heads are inserted into *db as they are derived
  // and become visible to the rest of the enumeration. Returns the
  // number of new atoms inserted; with `slog` set, every inserted atom
  // records a derivation support (matched positive body atom indices).
  size_t Evaluate(Database* db, size_t delta_begin, size_t delta_end,
                  bool restrict_to_delta, ExecutionBudget* budget,
                  SupportLog* slog) {
    size_t added = 0;
    const CompiledRule* firing = nullptr;
    auto fire = [&](const JoinExecutor& e) {
      // Amortized deadline/cancel check inside (possibly huge) joins.
      // Stopping mid-rule is sound: everything inserted so far is a
      // certain consequence.
      if (budget != nullptr &&
          !budget->CheckPoint(GovernedStage::kDatalog)) {
        return false;
      }
      ++stats_.matches;
      for (const CompiledAtom& neg : firing->negatives) {
        Atom ground = e.Apply(neg);
        GEREL_CHECK(ground.IsDatabaseAtom());  // Safety guarantees this.
        if (db->Contains(ground)) return true;  // Blocked; keep enumerating.
      }
      for (const CompiledAtom& head : firing->heads) {
        Atom derived = e.Apply(head);
        GEREL_CHECK(derived.IsDatabaseAtom());
        if (db->Insert(derived)) {
          ++added;
          ++stats_.derived;
          if (slog != nullptr) {
            const std::vector<uint32_t>& body = e.MatchedAtomIndices();
            slog->Record(db->size() - 1, rule_id_, body.data(), body.size());
          }
        }
      }
      return true;
    };
    if (!restrict_to_delta || positives_.empty()) {
      // A positive conjunctive body cannot match if any body relation has
      // no atoms at all; skip before paying for plan compilation.
      for (const Atom& a : positives_) {
        if (db->AtomsOf(a.pred).empty()) return 0;
      }
      if (!full_.ready) Compile(*rule_, &full_, /*pinned_first=*/-1);
      // An empty positive body compiles to a zero-level plan, which
      // visits exactly one (empty) match — the fact-rule case.
      firing = &full_;
      exec_.Reset(full_.plan);
      exec_.Execute(full_.plan, *db, fire, /*db_grows=*/true);
      return added;
    }
    for (size_t j = 0; j < positives_.size(); ++j) {
      RelationId pred = positives_[j].pred;
      for (size_t ai = delta_begin; ai < delta_end; ++ai) {
        if (db->atom(ai).pred != pred) continue;
        if (!seeded_[j].ready) {
          Compile(*rule_, &seeded_[j], static_cast<int>(j));
        }
        firing = &seeded_[j];
        // ExecuteSeeded matches plan level 0 (body atom j) against the
        // delta atom only; repeated-variable mismatches visit nothing.
        exec_.ExecuteSeeded(seeded_[j].plan, *db, db->atom(ai), fire,
                            /*db_grows=*/true, static_cast<uint32_t>(ai));
      }
    }
    return added;
  }

  // Returns the counters accumulated since the last call and resets them
  // (the program keeps evaluators alive across passes and maintains its
  // own cumulative totals).
  RuleStats TakeStats() {
    RuleStats out = stats_;
    stats_ = RuleStats();
    return out;
  }

 private:
  struct CompiledRule {
    JoinPlan plan;
    std::vector<CompiledAtom> heads;
    std::vector<CompiledAtom> negatives;
    bool ready = false;
  };

  void Compile(const Rule& rule, CompiledRule* out, int pinned_first) {
    out->ready = true;
    out->plan.Recompile(positives_, {}, pinned_first);
    out->heads.reserve(rule.head.size());
    for (const Atom& a : rule.head) out->heads.push_back(out->plan.Compile(a));
    out->negatives.reserve(negatives_.size());
    for (const Atom& a : negatives_) {
      out->negatives.push_back(out->plan.Compile(a));
    }
  }

  const Rule* rule_;  // Backing theory rule; outlives the evaluator.
  uint32_t rule_id_ = 0;
  std::vector<Atom> positives_;
  std::vector<Atom> negatives_;
  CompiledRule full_;
  std::vector<CompiledRule> seeded_;  // One per pinned body-atom position.
  JoinExecutor exec_;
  RuleStats stats_;
};

}  // namespace

struct DatalogProgram::Rep {
  Theory theory;
  SymbolTable* symbols = nullptr;
  DatalogOptions options;
  Stratification strat;
  bool has_negation = false;
  std::vector<RuleStats> rule_stats;               // Cumulative.
  std::vector<std::vector<RuleEvaluator>> strata;  // Evaluators per stratum.

  // Runs all strata over *db. For a full pass the first round of each
  // stratum scans the whole database; for an incremental pass every
  // stratum starts semi-naive from [delta_begin, db->size()).
  EvalPassStats RunPass(Database* db, bool incremental, size_t delta_begin);
};

EvalPassStats DatalogProgram::Rep::RunPass(Database* db, bool incremental,
                                           size_t delta_begin) {
  EvalPassStats pass;
  size_t initial = db->size();
  ExecutionBudget* budget = options.budget;
  SupportLog* slog = options.support_log;
  for (size_t si = 0; si < strat.strata.size() && pass.complete; ++si) {
    const std::vector<uint32_t>& stratum = strat.strata[si];
    std::vector<RuleEvaluator>& evaluators = strata[si];
    size_t win_begin = incremental ? delta_begin : 0;
    bool first_round = true;
    while (true) {
      // Round-boundary budget check (pass-global round index, so a
      // fault plan's "exhaust at round r" is stratum-independent).
      if (budget != nullptr &&
          !budget->CheckRound(GovernedStage::kDatalog, pass.rounds + 1,
                              db->size())) {
        pass.complete = false;
        break;
      }
      size_t delta_end = db->size();
      size_t added = 0;
      bool restrict =
          incremental || (options.seminaive && !first_round);
      // In the first round of a full pass the whole database is "new"
      // from this stratum's perspective; in an incremental pass only the
      // delta window is.
      size_t begin = restrict ? win_begin : 0;
      for (RuleEvaluator& ev : evaluators) {
        added += ev.Evaluate(db, begin, delta_end, restrict, budget, slog);
      }
      ++pass.rounds;
      first_round = false;
      if (budget != nullptr && budget->exhausted()) pass.complete = false;
      if (!pass.complete || added == 0) break;
      win_begin = delta_end;
    }
    for (size_t k = 0; k < evaluators.size(); ++k) {
      RuleStats taken = evaluators[k].TakeStats();
      RuleStats& out = rule_stats[stratum[k]];
      out.matches += taken.matches;
      out.derived += taken.derived;
    }
  }
  if (!pass.complete && budget != nullptr) {
    pass.degradation = budget->reason();
  }
  pass.derived_atoms = db->size() - initial;
  return pass;
}

Result<DatalogProgram> DatalogProgram::Compile(Theory theory,
                                               SymbolTable* symbols,
                                               const DatalogOptions& options) {
  for (const Rule& rule : theory.rules()) {
    if (!rule.EVars().empty()) {
      return Status::Error("EvaluateDatalog requires Datalog rules "
                           "(no existential variables)");
    }
    Status s = rule.Validate(*symbols);
    if (!s.ok()) return s;
  }
  Result<Stratification> strat = Stratify(theory);
  if (!strat.ok()) return strat.status();

  auto rep = std::make_unique<Rep>();
  rep->theory = std::move(theory);
  rep->symbols = symbols;
  rep->options = options;
  rep->strat = std::move(strat).value();
  rep->has_negation = rep->theory.HasNegation();
  rep->rule_stats.resize(rep->theory.rules().size());
  rep->strata.reserve(rep->strat.strata.size());
  for (const std::vector<uint32_t>& stratum : rep->strat.strata) {
    std::vector<RuleEvaluator> evaluators;
    evaluators.reserve(stratum.size());
    for (uint32_t ri : stratum) {
      evaluators.emplace_back(rep->theory.rules()[ri], ri);
    }
    rep->strata.push_back(std::move(evaluators));
  }
  return DatalogProgram(std::move(rep));
}

DatalogProgram::DatalogProgram(std::unique_ptr<Rep> rep)
    : rep_(std::move(rep)) {}
DatalogProgram::DatalogProgram(DatalogProgram&&) noexcept = default;
DatalogProgram& DatalogProgram::operator=(DatalogProgram&&) noexcept = default;
DatalogProgram::~DatalogProgram() = default;

EvalPassStats DatalogProgram::Materialize(Database* db) {
  // A full pass recomputes the fixpoint from the caller's base atoms;
  // any supports from a previous life of the database are stale.
  if (rep_->options.support_log != nullptr) rep_->options.support_log->Clear();
  if (rep_->options.populate_acdom) {
    PopulateAcdom(rep_->theory, rep_->symbols, db);
  }
  return rep_->RunPass(db, /*incremental=*/false, /*delta_begin=*/0);
}

Result<EvalPassStats> DatalogProgram::ExtendWithDelta(Database* db,
                                                      size_t delta_begin) {
  if (rep_->has_negation) {
    return Status::Error(
        "ExtendWithDelta requires a negation-free program (new facts can "
        "invalidate derivations made through negation; re-Materialize)");
  }
  GEREL_CHECK(delta_begin <= db->size());
  return rep_->RunPass(db, /*incremental=*/true, delta_begin);
}

const Theory& DatalogProgram::theory() const { return rep_->theory; }
const Stratification& DatalogProgram::stratification() const {
  return rep_->strat;
}
const DatalogOptions& DatalogProgram::options() const { return rep_->options; }
bool DatalogProgram::has_negation() const { return rep_->has_negation; }
const std::vector<RuleStats>& DatalogProgram::rule_stats() const {
  return rep_->rule_stats;
}

}  // namespace gerel
