#include "service/prepared_kb.h"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <utility>

#include "chase/chase.h"
#include "core/join_plan.h"
#include "core/normalize.h"
#include "transform/annotation.h"
#include "transform/canonical.h"
#include "transform/grounding.h"
#include "transform/saturation.h"

namespace gerel {

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// Index of `a` in `db`, or -1 when absent.
int64_t IndexOf(const Database& db, const Atom& a) {
  const std::vector<uint32_t>* postings = &db.AtomsOf(a.pred);
  if (!a.args.empty()) {
    const std::vector<uint32_t>& cand = db.AtomsAt(a.pred, 0, a.args[0]);
    if (cand.size() < postings->size()) postings = &cand;
  }
  for (uint32_t i : *postings) {
    if (db.atom(i) == a) return i;
  }
  return -1;
}

}  // namespace

PreparedKb::PreparedKb(SymbolTable* symbols, const PreparedKbOptions& options)
    : symbols_(symbols),
      options_(options),
      cache_(options.answer_cache_capacity) {}

Result<std::unique_ptr<PreparedKb>> PreparedKb::Prepare(
    const Theory& theory, const Database& db, SymbolTable* symbols,
    const PreparedKbOptions& options) {
  Clock::time_point start = Clock::now();
  std::unique_ptr<PreparedKb> kb(new PreparedKb(symbols, options));
  kb->budget_ = std::make_unique<ExecutionBudget>();
  kb->budget_->Arm(options.budget, GlobalFaultPlan());
  kb->normal_ = Normalize(theory, symbols);
  Classification c = Classify(kb->normal_);
  if (!c.weakly_frontier_guarded) {
    return Status::Error("knowledge base is not weakly frontier-guarded");
  }
  // Optional pre-flight: advisory diagnostics over the *input* theory
  // (pre-normalization — spans and rule indices match what the user
  // wrote, not the normal form).
  if (options.preflight) {
    kb->preflight_ = Analyze(theory, db, *symbols);
  }
  kb->affected_ = AffectedPositions(kb->normal_);
  for (const Rule& r : kb->normal_.rules()) {
    if (!r.EVars().empty()) kb->theory_has_existentials_ = true;
  }
  kb->acdom_ = AcdomRelation(symbols);
  kb->edb_ = db;
  double classify_ms = MsSince(start);
  Clock::time_point transform_start = Clock::now();
  double transform_ms = 0.0;
  Clock::time_point materialize_start = transform_start;

  // Certificate-driven materialization planning: when the acyclicity
  // ladder certifies that the Skolem chase of Σ terminates on every
  // database, the translation stack (rew → pg → dat) buys nothing —
  // chasing the EDB directly is cheaper and yields a *universal* model,
  // against which every CQ is answered completely (the dat(·) model
  // cannot see null witnesses). Negation stays on the Datalog route
  // (the chase is negation-free), as do existential-free theories
  // (their least model already is the chase).
  bool chase_materialized = false;
  if (options.planner && kb->theory_has_existentials_ &&
      !kb->normal_.HasNegation()) {
    TerminationOptions topts = options.termination;
    if (topts.budget == nullptr) topts.budget = kb->budget_.get();
    kb->certificate_ = AnalyzeTermination(kb->normal_, *symbols, topts);
    kb->planner_analyzed_ = true;
    if (kb->certificate_.terminating()) {
      kb->mode_ = Mode::kChaseMaterialized;
      kb->weakly_guarded_ = kb->normal_;
      kb->BuildDependencyIndex();
      transform_ms = MsSince(transform_start);
      materialize_start = Clock::now();
      kb->MaterializeModel();
      if (kb->materialize_complete_) {
        chase_materialized = true;
      } else {
        // The certificate promised termination but a cap or the budget
        // intervened first; serve the translation pipeline's model
        // instead of a degraded chase.
        kb->model_ = Database();
        kb->dependents_.clear();
        kb->materialize_complete_ = true;
        kb->materialize_degradation_ = DegradationReason();
      }
    }
  }
  if (!chase_materialized) {
    // Step 1: rew(Σ) (Thm 2), unless the theory is already weakly
    // guarded. This stage is both query- and data-independent, so it
    // never reruns.
    if (c.weakly_guarded) {
      kb->weakly_guarded_ = kb->normal_;
    } else {
      ExpansionOptions exp = options.pipeline.expansion;
      exp.budget = kb->budget_.get();
      Result<WfgRewriteResult> rew =
          RewriteWfgToWeaklyGuarded(kb->normal_, symbols, exp);
      if (!rew.ok()) return rew.status();
      kb->rewrite_complete_ = rew.value().complete;
      kb->rewrite_degradation_ = rew.value().degradation;
      kb->weakly_guarded_ = std::move(rew.value().theory);
    }
    Classification wc = Classify(kb->weakly_guarded_);
    // Existential-free theories are Datalog mode even with negation:
    // Classify clears `datalog` on negation (the guardedness lattice is
    // negation-free; §8 treats stratified negation as an extension), but
    // the stratified evaluator handles such programs directly — and the
    // Assert path already rematerializes instead of delta-extending them.
    kb->mode_ = (wc.datalog || !kb->theory_has_existentials_)
                    ? Mode::kDatalog
                    : (wc.guarded ? Mode::kGuarded : Mode::kWeaklyGuarded);
    Status s = kb->CompileProgram();
    if (!s.ok()) return s;
    transform_ms = MsSince(transform_start);
    materialize_start = Clock::now();
    kb->MaterializeModel();
  }
  {
    std::lock_guard<std::mutex> lock(kb->stats_mu_);
    kb->stats_.prepares = 1;
    kb->stats_.prepare_wall_ms = MsSince(start);
    kb->stats_.prepare_classify_wall_ms = classify_ms;
    kb->stats_.prepare_transform_wall_ms = transform_ms;
    kb->stats_.prepare_materialize_wall_ms = MsSince(materialize_start);
    kb->stats_.model_atoms = kb->model_.size();
    kb->stats_.datalog_rules = kb->DatalogRulesLocked();
    kb->stats_.diagnostics = kb->preflight_.diagnostics.size();
    kb->stats_.materialization_strategy =
        chase_materialized ? "chase" : "datalog";
    if (kb->planner_analyzed_) {
      kb->stats_.termination_certificate =
          CertificateKindName(kb->certificate_.kind);
    }
    DegradationReason reason = kb->DegradationLocked();
    if (reason.degraded()) {
      kb->stats_.degraded_prepares = 1;
      kb->stats_.last_degradation = reason;
    }
  }
  return kb;
}

Status PreparedKb::CompileProgram() {
  Theory program_rules;
  bool complete = true;
  DegradationReason degradation;
  SaturationOptions sat_opts = options_.pipeline.saturation;
  sat_opts.budget = budget_.get();
  switch (mode_) {
    case Mode::kDatalog:
      // The theory is its own Datalog translation; its least model over
      // any database is the chase. No grounding, no saturation.
      program_rules = weakly_guarded_;
      break;
    case Mode::kGuarded: {
      // Step 3 only: dat(Σ) (Thm 3) has the same ground atomic
      // consequences as Σ over *every* database, so the translation
      // survives any sequence of asserts.
      Result<SaturationResult> sat =
          Saturate(weakly_guarded_, symbols_, sat_opts);
      if (!sat.ok()) return sat.status();
      complete = sat.value().complete;
      degradation = sat.value().degradation;
      program_rules = std::move(sat.value().datalog);
      break;
    }
    case Mode::kWeaklyGuarded: {
      // Steps 2–3: pg(Σ, D) then dat(·) (§7). The grounding depends on
      // the constant domain of the EDB; Assert re-runs this stage when a
      // genuinely new constant arrives.
      GroundingOptions pg_opts = options_.pipeline.grounding;
      pg_opts.budget = budget_.get();
      Result<GroundingResult> pg =
          PartialGrounding(weakly_guarded_, edb_, pg_opts);
      if (!pg.ok()) return pg.status();
      complete = pg.value().complete;
      degradation = pg.value().degradation;
      Result<SaturationResult> sat =
          Saturate(pg.value().theory, symbols_, sat_opts);
      if (!sat.ok()) return sat.status();
      complete = complete && sat.value().complete;
      if (!degradation.degraded()) degradation = sat.value().degradation;
      program_rules = std::move(sat.value().datalog);
      grounded_constants_.clear();
      for (Term t : edb_.ActiveConstants()) {
        grounded_constants_.insert(t.bits());
      }
      for (Term t : weakly_guarded_.Constants()) {
        grounded_constants_.insert(t.bits());
      }
      break;
    }
    case Mode::kChaseMaterialized:
      // Certified theories never compile a program; MaterializeModel
      // chases `normal_` directly.
      return Status::Error("CompileProgram called in chase mode");
  }
  // The compiled program evaluates under the shared prepare/assert
  // budget (budget_ outlives program_), recording one derivation support
  // per inserted atom for incremental retraction.
  DatalogOptions dopts = options_.datalog;
  dopts.budget = budget_.get();
  dopts.support_log = &supports_;
  Result<DatalogProgram> program =
      DatalogProgram::Compile(std::move(program_rules), symbols_, dopts);
  if (!program.ok()) return program.status();
  program_ = std::make_unique<DatalogProgram>(std::move(program).value());
  compile_complete_ = complete;
  compile_degradation_ = degradation;
  BuildDependencyIndex();
  return Status::Ok();
}

void PreparedKb::BuildDependencyIndex() {
  dependents_.clear();
  // Chase mode has no compiled program; the source rules' body→head
  // edges over-approximate which predicates a write can grow (the chase
  // derives only source predicates, plus acdom handled by the caller).
  const Theory& edges =
      mode_ == Mode::kChaseMaterialized ? normal_ : program_->theory();
  for (const Rule& r : edges.rules()) {
    for (const Literal& l : r.body) {
      // Negated literals count too: under stratified negation a write to
      // the negated relation can flip derivations of the head.
      std::vector<RelationId>& heads = dependents_[l.atom.pred];
      for (const Atom& h : r.head) heads.push_back(h.pred);
    }
  }
}

std::unordered_set<RelationId> PreparedKb::DependencyClosure(
    std::unordered_set<RelationId> preds) const {
  std::vector<RelationId> frontier(preds.begin(), preds.end());
  while (!frontier.empty()) {
    RelationId p = frontier.back();
    frontier.pop_back();
    auto it = dependents_.find(p);
    if (it == dependents_.end()) continue;
    for (RelationId q : it->second) {
      if (preds.insert(q).second) frontier.push_back(q);
    }
  }
  return preds;
}

void PreparedKb::EvictCacheForWrite(std::unordered_set<RelationId> written,
                                    bool domain_changed) {
  // A changed active domain invalidates acdom readers (queries with
  // head-only variables range over acdom) and everything derivable from
  // acdom guards the rewriting introduced.
  if (domain_changed) written.insert(acdom_);
  size_t retained = 0;
  size_t evicted =
      cache_.EvictReading(DependencyClosure(std::move(written)), &retained);
  std::lock_guard<std::mutex> slock(stats_mu_);
  stats_.cache_evicted_entries += evicted;
  stats_.cache_retained_entries += retained;
}

void PreparedKb::MaterializeModel() {
  if (mode_ == Mode::kChaseMaterialized) {
    // Direct Skolem chase of the source theory over the EDB. The
    // termination certificate bounds the run; the caps and budget only
    // stop pathologies (an unsaturated result degrades queries to
    // complete=false like any other truncated materialization).
    ChaseOptions copts;
    copts.max_steps = options_.chase_max_steps;
    copts.max_atoms = options_.chase_max_atoms;
    copts.semi_oblivious = true;
    copts.populate_acdom = options_.datalog.populate_acdom;
    copts.budget = budget_.get();
    ChaseResult run = Chase(normal_, edb_, symbols_, copts);
    model_ = std::move(run.database);
    materialize_complete_ = run.saturated;
    materialize_degradation_ = run.degradation;
    // Derivation supports are recorded by the compiled program only;
    // chase mode always re-chases on Retract.
    supports_valid_ = false;
    if (run.saturated) {
      std::lock_guard<std::mutex> slock(stats_mu_);
      ++stats_.chase_materializations;
    }
    return;
  }
  model_ = edb_;
  EvalPassStats pass = program_->Materialize(&model_);
  materialize_complete_ = pass.complete;
  materialize_degradation_ = pass.degradation;
  // The support log only licenses DRed over a complete negation-free
  // fixpoint: a truncated pass may have skipped derivations whose
  // absence a later overdelete would misread.
  supports_valid_ = pass.complete && !program_->has_negation();
}

bool PreparedKb::QueryCannotHaveNullWitnesses(const Rule& cq) const {
  // A chase-materialized model is universal: matching the CQ against it
  // decides the certain answers even when the witnesses are nulls
  // (answer tuples themselves stay filtered to constants).
  if (mode_ == Mode::kChaseMaterialized) return true;
  if (!theory_has_existentials_) return true;
  for (const Literal& l : cq.body) {
    for (uint32_t i = 0; i < l.atom.arity(); ++i) {
      if (affected_.Contains(l.atom.pred, i)) return false;
    }
  }
  return true;
}

Result<PreparedQueryResult> PreparedKb::Query(const Rule& cq) const {
  if (options_.budget.unlimited()) return Query(cq, nullptr);
  ExecutionBudget budget(options_.budget, GlobalFaultPlan());
  return Query(cq, &budget);
}

Result<PreparedQueryResult> PreparedKb::Query(const Rule& cq,
                                              ExecutionBudget* budget) const {
  if (cq.head.size() != 1) {
    return Status::Error("conjunctive query must have a single head atom");
  }
  if (cq.body.empty()) {
    return Status::Error("conjunctive query must have a non-empty body");
  }
  std::vector<Atom> positives;
  positives.reserve(cq.body.size());
  for (const Literal& l : cq.body) {
    if (l.negated) {
      return Status::Error("conjunctive queries must be negation-free");
    }
    positives.push_back(l.atom);
  }
  // Answer variables missing from the body range over the active domain,
  // exactly as GuardConjunctiveQuery arranges for the one-shot pipeline.
  for (Term x : cq.head[0].ArgVars()) {
    bool in_body = false;
    for (const Atom& a : positives) {
      for (Term t : a.AllTerms()) {
        if (t == x) in_body = true;
      }
    }
    if (!in_body) positives.push_back(Atom(acdom_, {x}));
  }
  Clock::time_point start = Clock::now();
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::string key = CanonicalRuleString(cq, *symbols_);
  PreparedQueryResult result;
  AnswerCache::Entry entry;
  if (cache_.Lookup(key, &entry)) {
    result.answers = std::move(entry.answers);
    result.complete = entry.complete;
    result.cache_hit = true;
    if (!result.complete) result.degradation = DegradationLocked();
    std::lock_guard<std::mutex> slock(stats_mu_);
    ++stats_.queries;
    ++stats_.cache_hits;
    if (!result.complete) ++stats_.degraded_queries;
    stats_.query_wall_ms += MsSince(start);
    return result;
  }
  // The model contains every certain ground atom, so matching the body
  // join against it yields only certain answers; tuples touching labeled
  // nulls of the input database are filtered like the one-shot pipeline.
  bool truncated = false;
  // Deterministic fault/budget hook before the join starts.
  if (budget != nullptr &&
      !budget->CheckRound(GovernedStage::kQuery, 1, model_.size())) {
    truncated = true;
  }
  if (!truncated) {
    JoinPlan plan(positives);
    CompiledAtom head = plan.Compile(cq.head[0]);
    JoinExecutor exec;
    exec.Reset(plan);
    exec.Execute(
        plan, model_,
        [&](const JoinExecutor& e) {
          if (budget != nullptr &&
              !budget->CheckPoint(GovernedStage::kQuery)) {
            truncated = true;
            return false;
          }
          Atom a = e.Apply(head);
          if (a.IsGroundOverConstants()) result.answers.insert(a.args);
          return true;
        },
        /*db_grows=*/false);
  }
  result.complete = rewrite_complete_ && compile_complete_ &&
                    materialize_complete_ && !truncated &&
                    QueryCannotHaveNullWitnesses(cq);
  if (truncated) {
    result.degradation = budget->reason();
    if (!result.degradation.degraded()) {
      result.degradation.stage = GovernedStage::kQuery;
      result.degradation.limit = BudgetLimit::kDeadline;
    }
  } else if (!result.complete) {
    result.degradation = DegradationLocked();
  }
  // A budget-truncated answer set is transient (a retry with a fresh
  // deadline may do better); only deterministic results are cached. The
  // entry is tagged with the predicates the join read (body relations
  // plus any appended acdom guards) so writes can invalidate it by
  // dependency instead of clearing the cache.
  if (!truncated) {
    std::vector<RelationId> reads;
    reads.reserve(positives.size());
    for (const Atom& a : positives) reads.push_back(a.pred);
    std::sort(reads.begin(), reads.end());
    reads.erase(std::unique(reads.begin(), reads.end()), reads.end());
    cache_.Insert(key, {result.answers, result.complete, std::move(reads)});
  }
  std::lock_guard<std::mutex> slock(stats_mu_);
  ++stats_.queries;
  ++stats_.cache_misses;
  if (!result.complete) {
    ++stats_.degraded_queries;
    if (result.degradation.degraded()) {
      stats_.last_degradation = result.degradation;
    }
  }
  stats_.query_wall_ms += MsSince(start);
  return result;
}

Result<AssertResult> PreparedKb::Assert(const std::vector<Atom>& facts) {
  for (const Atom& f : facts) {
    if (!f.IsDatabaseAtom()) {
      return Status::Error("asserted facts must be ground");
    }
  }
  Clock::time_point start = Clock::now();
  std::unique_lock<std::shared_mutex> lock(mu_);
  // Fresh deadline for this operation's recompile/rematerialize/delta
  // work (the compiled program's options point at budget_).
  budget_->Arm(options_.budget, GlobalFaultPlan());
  AssertResult out;
  // Whether the write grows the active domain (a term the model's acdom
  // does not know yet); decides if acdom readers must be evicted.
  bool domain_changed = false;
  for (const Atom& f : facts) {
    for (Term t : f.AllTerms()) {
      if (!model_.Contains(Atom(acdom_, {t}))) domain_changed = true;
    }
  }
  for (const Atom& f : facts) {
    if (edb_.Insert(f)) ++out.new_atoms;
  }
  if (mode_ == Mode::kChaseMaterialized && out.new_atoms == 0) {
    // Every asserted fact was already in the EDB: the chase would
    // rebuild the identical model, so skip the re-chase and report a
    // no-op delta (replicas need no resync).
    out.delta = true;
    std::lock_guard<std::mutex> stats_lock(stats_mu_);
    ++stats_.asserts;
    ++stats_.delta_asserts;
    stats_.assert_wall_ms += MsSince(start);
    return out;
  }
  bool recompile = false;
  if (mode_ == Mode::kWeaklyGuarded) {
    for (const Atom& f : facts) {
      for (Term t : f.AllTerms()) {
        if (t.IsConstant() &&
            grounded_constants_.count(t.bits()) == 0) {
          recompile = true;
        }
      }
    }
  }
  // Chase mode has no delta path: the semi-naive evaluator cannot extend
  // a chase-built model, so every assert re-chases from the grown EDB.
  bool rematerialize = recompile || mode_ == Mode::kChaseMaterialized ||
                       program_->has_negation();
  double transform_ms = 0.0;
  double materialize_ms = 0.0;
  if (recompile) {
    // A constant outside the grounded domain: pg(Σ, D) must be re-run
    // over the grown domain before the model can be trusted.
    Clock::time_point transform_start = Clock::now();
    Status s = CompileProgram();
    if (!s.ok()) return s;
    transform_ms = MsSince(transform_start);
  }
  if (rematerialize) {
    Clock::time_point materialize_start = Clock::now();
    MaterializeModel();
    materialize_ms = MsSince(materialize_start);
    out.delta = false;
  } else {
    // Delta path: seed the semi-naive evaluator with exactly the new
    // atoms (plus acdom facts for any new terms) and let it re-derive
    // only their consequences against the existing fixpoint.
    size_t begin = model_.size();
    for (const Atom& f : facts) model_.Insert(f);
    if (options_.datalog.populate_acdom) {
      size_t inserted_end = model_.size();
      for (size_t i = begin; i < inserted_end; ++i) {
        for (Term t : model_.atom(i).AllTerms()) {
          model_.Insert(Atom(acdom_, {t}));
        }
      }
    }
    Result<EvalPassStats> pass = program_->ExtendWithDelta(&model_, begin);
    if (!pass.ok()) return pass.status();
    out.derived_atoms = pass.value().derived_atoms;
    if (!pass.value().complete) {
      materialize_complete_ = false;
      materialize_degradation_ = pass.value().degradation;
      supports_valid_ = false;
    }
  }
  if (recompile) {
    // The rule set itself changed (fresh grounding): every read-set is
    // tagged against the old program, so nothing can be kept.
    cache_.Clear();
  } else {
    std::unordered_set<RelationId> written;
    for (const Atom& f : facts) written.insert(f.pred);
    EvictCacheForWrite(std::move(written), domain_changed);
  }
  DegradationReason reason = DegradationLocked();
  std::lock_guard<std::mutex> slock(stats_mu_);
  ++stats_.asserts;
  if (reason.degraded()) {
    ++stats_.degraded_prepares;
    stats_.last_degradation = reason;
  }
  stats_.asserted_atoms += out.new_atoms;
  if (out.delta) {
    ++stats_.delta_asserts;
    stats_.delta_derived_atoms += out.derived_atoms;
  } else {
    ++stats_.rematerializations;
    if (recompile) ++stats_.prepares;
    stats_.prepare_transform_wall_ms += transform_ms;
    stats_.prepare_materialize_wall_ms += materialize_ms;
  }
  stats_.model_atoms = model_.size();
  stats_.datalog_rules = DatalogRulesLocked();
  stats_.assert_wall_ms += MsSince(start);
  return out;
}

Result<RetractResult> PreparedKb::Retract(const std::vector<Atom>& facts) {
  for (const Atom& f : facts) {
    if (!f.IsDatabaseAtom()) {
      return Status::Error("retracted facts must be ground");
    }
  }
  Clock::time_point start = Clock::now();
  std::unique_lock<std::shared_mutex> lock(mu_);
  budget_->Arm(options_.budget, GlobalFaultPlan());
  // Validate before touching anything: retracting an unknown fact or a
  // derived-only atom is a clean no-op error.
  std::unordered_set<Atom, AtomHash> targets;
  for (const Atom& f : facts) {
    if (!edb_.Contains(f)) {
      return Status::Error("cannot retract a fact that is not in the EDB");
    }
    targets.insert(f);
  }
  RetractResult out;
  out.removed_atoms = targets.size();
  if (targets.empty()) {
    std::lock_guard<std::mutex> slock(stats_mu_);
    ++stats_.retracts;
    ++stats_.retracts_dred;
    stats_.retract_wall_ms += MsSince(start);
    return out;
  }

  // Shrink the EDB in place; both paths need the surviving base facts
  // (an overdeleted atom that is still a base fact must not be deleted).
  std::vector<uint32_t> erased;
  for (const Atom& f : targets) {
    erased.push_back(static_cast<uint32_t>(IndexOf(edb_, f)));  // Validated.
  }
  std::sort(erased.begin(), erased.end());
  std::vector<uint32_t> remap;
  edb_.EraseAtoms(erased, &remap);

  // Which active-domain terms vanish with the retracted facts: a term of
  // a retracted non-acdom fact that no surviving non-acdom EDB atom
  // mentions (found through the EDB's postings, not a scan) leaves the
  // domain unless it is a program constant (PopulateAcdom's two
  // sources). The exclusion set must be the *source* theory's constants,
  // not the compiled program's: in wg mode the partial grounding bakes
  // EDB constants into rules, so the compiled theory "contains" every
  // domain constant and nothing would ever vanish — leaving stale acdom
  // atoms that a fresh Prepare would not derive.
  auto mentioned = [&](Term t) {
    for (RelationId r = 0; r < symbols_->NumRelations(); ++r) {
      const std::vector<uint32_t>& atoms = edb_.AtomsOf(r);
      if (r == acdom_ || atoms.empty()) continue;
      for (uint32_t pos = 0; pos < edb_.atom(atoms[0]).arity(); ++pos) {
        if (!edb_.AtomsAt(r, pos, t).empty()) return true;
      }
    }
    return false;
  };
  std::unordered_set<uint32_t> program_constants;
  for (Term t : weakly_guarded_.Constants()) {
    program_constants.insert(t.bits());
  }
  bool null_retracted = false;
  std::vector<Term> vanished;
  std::unordered_set<uint32_t> vanished_seen;
  for (const Atom& f : targets) {
    for (Term t : f.AllTerms()) {
      if (t.IsNull()) null_retracted = true;
      if (f.pred != acdom_ && program_constants.count(t.bits()) == 0 &&
          vanished_seen.insert(t.bits()).second && !mentioned(t)) {
        vanished.push_back(t);
      }
    }
  }

  // In wg mode the compiled program is dat(pg(Σ, D)): the grounding is a
  // function of the constant domain, so a shrinking domain invalidates
  // it (stale acdom/grounded constants would over-answer relative to a
  // fresh Prepare) and a retracted labeled null is outside what the
  // grounding reasons about at all.
  bool wg_domain_shrinks = false;
  if (mode_ == Mode::kWeaklyGuarded) {
    for (Term t : vanished) {
      if (t.IsConstant()) wg_domain_shrinks = true;
    }
  }
  bool recompile = mode_ == Mode::kWeaklyGuarded &&
                   (wg_domain_shrinks || null_retracted);
  bool fallback = recompile || mode_ == Mode::kChaseMaterialized ||
                  program_->has_negation() || !supports_valid_;

  size_t overdeleted = 0;
  size_t rederived = 0;
  bool dred_ok =
      !fallback && RetractDRed(targets, vanished, &overdeleted, &rederived);
  if (dred_ok) {
    out.overdeleted_atoms = overdeleted;
    out.rederived_atoms = rederived;
  }
  double transform_ms = 0.0;
  double materialize_ms = 0.0;
  if (!dred_ok) {
    // Fallback: rebuild the model from the surviving EDB (recompiling
    // the data-dependent stages first when the wg grounding is stale),
    // overwriting whatever a budget-tripped DRed left half edited. The
    // tripped budget degrades this pass too — the model stays a sound
    // under-approximation, never unsound.
    if (recompile) {
      Clock::time_point transform_start = Clock::now();
      Status s = CompileProgram();
      if (!s.ok()) return s;
      transform_ms = MsSince(transform_start);
    }
    Clock::time_point materialize_start = Clock::now();
    MaterializeModel();
    materialize_ms = MsSince(materialize_start);
    out.delta = false;
  }
  if (recompile) {
    cache_.Clear();
  } else {
    std::unordered_set<RelationId> written;
    for (const Atom& f : targets) written.insert(f.pred);
    EvictCacheForWrite(std::move(written), !vanished.empty());
  }
  DegradationReason reason = DegradationLocked();
  std::lock_guard<std::mutex> slock(stats_mu_);
  ++stats_.retracts;
  stats_.retracted_atoms += out.removed_atoms;
  if (out.delta) {
    ++stats_.retracts_dred;
    stats_.overdeleted_atoms += out.overdeleted_atoms;
    stats_.rederived_atoms += out.rederived_atoms;
  } else {
    ++stats_.retracts_rematerialized;
    ++stats_.rematerializations;
    if (recompile) ++stats_.prepares;
    stats_.prepare_transform_wall_ms += transform_ms;
    stats_.prepare_materialize_wall_ms += materialize_ms;
  }
  if (reason.degraded()) {
    ++stats_.degraded_prepares;
    stats_.last_degradation = reason;
  }
  stats_.model_atoms = model_.size();
  stats_.datalog_rules = DatalogRulesLocked();
  stats_.retract_wall_ms += MsSince(start);
  return out;
}

bool PreparedKb::RetractDRed(const std::unordered_set<Atom, AtomHash>& targets,
                             const std::vector<Term>& vanished,
                             size_t* overdeleted, size_t* rederived) {
  // Seed deletions: the retracted facts themselves (EDB ⊆ model) plus
  // the acdom atoms of terms leaving the active domain.
  std::vector<uint32_t> seeds;
  auto seed = [&](const Atom& a) {
    int64_t i = IndexOf(model_, a);
    if (i >= 0) seeds.push_back(static_cast<uint32_t>(i));
  };
  for (const Atom& f : targets) seed(f);  // EDB ⊆ model: always hits.
  for (Term t : vanished) seed(Atom(acdom_, {t}));
  if (seeds.empty()) return true;
  std::sort(seeds.begin(), seeds.end());
  seeds.erase(std::unique(seeds.begin(), seeds.end()), seeds.end());
  const size_t n = model_.size();
  const uint32_t first = seeds.front();
  std::vector<uint8_t> deleted(n - first, 0);  // Offset by `first`.
  for (uint32_t i : seeds) deleted[i - first] = 1;

  // Overdelete: one forward pass from the first seed suffices because
  // supports are well-founded — every recorded body index precedes the
  // derived atom's index, so deleted[] is final for all support members
  // by the time atom i is visited, and nothing before `first` can lose
  // a witness.
  if (!budget_->CheckRound(GovernedStage::kDatalog, 1, n)) return false;
  std::vector<uint32_t> dead;
  std::vector<Atom> candidates;
  for (size_t i = first; i < n; ++i) {
    if (!deleted[i - first]) {
      if (!budget_->CheckPoint(GovernedStage::kDatalog)) return false;
      SupportLog::Entry e = supports_.Of(i);
      if (e.rule == SupportLog::kNoRule) continue;  // Base fact.
      bool lost = false;
      for (uint32_t p = e.begin; p < e.end && !lost; ++p) {
        uint32_t body = supports_.pool[p];
        lost = body >= first && deleted[body - first];
      }
      // An atom that is still a base fact survives its lost witness.
      if (!lost || edb_.Contains(model_.atom(i))) continue;
      deleted[i - first] = 1;
    }
    dead.push_back(static_cast<uint32_t>(i));
    candidates.push_back(model_.atom(i));
  }
  *overdeleted = dead.size() - seeds.size();

  // Erase in place: survivors keep their order, remapped supports
  // follow them, and a survivor whose witness cites an erased atom (the
  // base-fact case above) degrades to a no-rule entry.
  std::vector<uint32_t> remap;
  model_.EraseAtoms(dead, &remap);
  supports_.EraseAtoms(first, remap);

  // Rederive: an overdeleted atom may still be entailed by the pruned
  // model (a second derivation the single-witness log did not record, or
  // via atoms rederived this round). For each candidate, unify it with a
  // rule head and join the rule's body over the model; repeat until a
  // pass restores nothing. This converges to exactly the least model of
  // the surviving EDB: every candidate is in the old model, so no new
  // atoms can appear, and any entailed candidate is eventually restored
  // once its body atoms are. Each (rule, head atom) pair compiles its
  // join plan once: the head's variables are exactly the pre-bound ones,
  // whatever candidate unified with it.
  struct HeadUse {
    uint32_t rule;
    uint32_t head;
    std::unique_ptr<JoinPlan> plan;  // Compiled on first use.
  };
  const Theory& th = program_->theory();
  std::unordered_map<RelationId, std::vector<HeadUse>> heads_by_pred;
  for (uint32_t ri = 0; ri < th.rules().size(); ++ri) {
    const Rule& r = th.rules()[ri];
    for (uint32_t hi = 0; hi < r.head.size(); ++hi) {
      heads_by_pred[r.head[hi].pred].push_back({ri, hi, nullptr});
    }
  }
  JoinExecutor exec;
  std::vector<std::pair<Term, Term>> binds;
  auto try_rederive = [&](const Atom& goal, uint32_t* out_rule,
                          std::vector<uint32_t>* out_body) -> bool {
    auto it = heads_by_pred.find(goal.pred);
    if (it == heads_by_pred.end()) return false;
    for (HeadUse& use : it->second) {
      const Rule& r = th.rules()[use.rule];
      const Atom& h = r.head[use.head];
      if (h.args.size() != goal.args.size() ||
          h.annotation.size() != goal.annotation.size()) {
        continue;
      }
      // Unify the ground goal against the head atom: constants must
      // match, variables bind consistently.
      binds.clear();
      bool ok = true;
      auto unify = [&](Term ht, Term gt) {
        if (!ok) return;
        if (!ht.IsVariable()) {
          if (ht != gt) ok = false;
          return;
        }
        for (const auto& [v, val] : binds) {
          if (v == ht) {
            if (val != gt) ok = false;
            return;
          }
        }
        binds.emplace_back(ht, gt);
      };
      for (size_t k = 0; k < h.args.size(); ++k) unify(h.args[k], goal.args[k]);
      for (size_t k = 0; k < h.annotation.size(); ++k) {
        unify(h.annotation[k], goal.annotation[k]);
      }
      if (!ok) continue;
      if (use.plan == nullptr) {
        std::vector<Atom> positives;
        for (const Literal& l : r.body) positives.push_back(l.atom);
        std::vector<Term> pre_bound;
        for (const auto& [v, val] : binds) pre_bound.push_back(v);
        use.plan = std::make_unique<JoinPlan>(positives, pre_bound);
      }
      exec.Reset(*use.plan);
      for (const auto& [v, val] : binds) exec.Bind(v, val);
      bool found = false;
      exec.Execute(
          *use.plan, model_,
          [&](const JoinExecutor& e) {
            *out_rule = use.rule;
            *out_body = e.MatchedAtomIndices();
            found = true;
            return false;  // The first witness suffices.
          },
          /*db_grows=*/false);
      if (found) return true;
    }
    return false;
  };
  std::vector<char> restored(candidates.size(), 0);
  std::vector<uint32_t> body;
  uint64_t round = 1;
  bool progress = true;
  while (progress) {
    progress = false;
    if (!budget_->CheckRound(GovernedStage::kDatalog, ++round,
                             model_.size())) {
      return false;
    }
    for (size_t ci = 0; ci < candidates.size(); ++ci) {
      if (restored[ci]) continue;
      if (!budget_->CheckPoint(GovernedStage::kDatalog)) return false;
      uint32_t rule = 0;
      if (!try_rederive(candidates[ci], &rule, &body)) continue;
      model_.Insert(candidates[ci]);
      supports_.Record(model_.size() - 1, rule, body.data(), body.size());
      restored[ci] = 1;
      ++*rederived;
      progress = true;
    }
  }
  return true;
}

std::vector<Atom> PreparedKb::ModelAtoms() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return model_.AtomsVector();
}

std::vector<Atom> PreparedKb::EdbAtoms() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return edb_.AtomsVector();
}

size_t PreparedKb::support_pool_size() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return supports_.pool.size();
}

ServiceStats PreparedKb::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

bool PreparedKb::prepare_complete() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return rewrite_complete_ && compile_complete_ && materialize_complete_;
}

DegradationReason PreparedKb::DegradationLocked() const {
  if (rewrite_degradation_.degraded()) return rewrite_degradation_;
  if (compile_degradation_.degraded()) return compile_degradation_;
  return materialize_degradation_;
}

DegradationReason PreparedKb::degradation() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return DegradationLocked();
}

size_t PreparedKb::model_size() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return model_.size();
}

size_t PreparedKb::datalog_rules() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return DatalogRulesLocked();
}

size_t PreparedKb::DatalogRulesLocked() const {
  return program_ == nullptr ? 0 : program_->theory().size();
}

}  // namespace gerel
