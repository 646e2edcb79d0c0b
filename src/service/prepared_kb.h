// Prepared knowledge bases: run the §7 pipeline once, serve many queries
// and incremental fact assertions (DESIGN.md §7).
//
// AnswerKbQuery (transform/pipeline.h) re-runs rewrite → partial
// grounding → saturation → stratification → join-plan compilation on
// every call. For a fixed weakly frontier-guarded theory all of these
// artifacts are query-independent, and most are data-independent too;
// PreparedKb computes them once:
//
//   Prepare:  normalize and classify Σ, rewrite to weakly guarded (Thm
//             2) if needed, then collapse the remaining stages by class:
//               - Datalog Σ: compile Σ directly (no grounding, no
//                 saturation — the least model is the chase);
//               - guarded Σ: dat(Σ) by saturation (Thm 3), which is
//                 database-independent;
//               - weakly guarded Σ: dat(pg(Σ, D)) (§7), which depends
//                 only on D's constant domain.
//             The compiled Datalog program is evaluated over D once and
//             the resulting model kept ("materialized").
//   Query:    evaluate the CQ's body join directly against the
//             materialized model — no recompilation, no re-evaluation.
//             Answers are always sound (every tuple is certain); the
//             `complete` flag certifies they are all of the certain
//             answers (see PreparedQueryResult).
//   Assert:   extend the model incrementally: new facts seed the
//             semi-naive evaluator's delta, so only their consequences
//             are derived. Falls back to re-running the data-dependent
//             stages only when a weakly guarded theory meets constants
//             outside the grounded domain (or the program has negation).
//   Retract:  remove EDB facts incrementally by DRed (delete/re-derive):
//             a per-atom derivation-support log recorded during
//             materialization overdeletes the support cascade in one
//             forward pass from the first deleted atom, the EDB, model
//             and log erase the dead atoms in place (order-preserving
//             compaction of the suffix only), and overdeleted atoms are
//             rederived into the model by rerunning their rules — the
//             result is exactly the least model of the surviving EDB.
//             Falls back to an epoch-bump full re-materialization
//             when the program has negation, the support log is invalid
//             (degraded materialization, snapshot load), a weakly
//             guarded theory's constant domain shrinks or the retracted
//             facts carry labeled nulls, or the budget trips mid-retract.
//
// Concurrency: Query takes a shared lock, Assert/Retract an exclusive
// one — any number of reader threads can query while writes serialize.
// All symbol table access happens under the lock, so sessions may keep
// parsing on the thread that asserts.
//
// Writes invalidate the answer cache by predicate dependency, not
// wholesale: CompileProgram records body→head edges of the compiled
// rules, each cached entry is tagged with the predicates its join read,
// and Assert/Retract evict only entries reading the dependency closure
// of the changed predicates (answer_cache.h).
#ifndef GEREL_SERVICE_PREPARED_KB_H_
#define GEREL_SERVICE_PREPARED_KB_H_

#include <memory>
#include <set>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analyze/analyze.h"
#include "core/budget.h"
#include "core/classify.h"
#include "core/database.h"
#include "core/rule.h"
#include "core/status.h"
#include "core/symbol_table.h"
#include "core/theory.h"
#include "datalog/program.h"
#include "datalog/support.h"
#include "service/answer_cache.h"
#include "service/stats.h"
#include "transform/pipeline.h"

namespace gerel {

struct PreparedKbOptions {
  // Caps for the rewrite/grounding/saturation stages (shared with the
  // one-shot pipeline).
  KbQueryOptions pipeline;
  // Evaluation options for materialization and delta rounds.
  DatalogOptions datalog;
  // Maximum number of cached query answer sets; 0 disables the cache.
  size_t answer_cache_capacity = 1024;
  // Run the static analyzers (analyze/analyze.h) over (Σ, D) during
  // Prepare. Diagnostics never fail the prepare — they are advisory
  // (the wfg membership check is what rejects theories) — but their
  // count lands in ServiceStats::diagnostics and the full list is kept
  // on the PreparedKb for callers that want to surface it.
  bool preflight = true;
  // Resource budget applied to Prepare, to every Assert, and (by
  // default) to every Query. Exhaustion never fails the operation: the
  // pipeline degrades to a sound-but-possibly-incomplete model and the
  // reason is recorded (degradation(), ServiceStats). Unlimited by
  // default.
  BudgetLimits budget;
  // Certificate-driven materialization planning: when the termination
  // analyzer (analyze/termination.h) certifies that the Skolem chase of
  // the theory terminates on every database, Prepare skips the rewrite/
  // grounding/saturation translation stack entirely and materializes a
  // *universal* model by chasing the EDB directly
  // (Mode::kChaseMaterialized). Queries against a universal model are
  // always complete — even through null witnesses the dat(·) route
  // cannot see. Existential-free theories and programs with negation
  // keep the Datalog route; an uncertified theory falls back to the
  // translations.
  bool planner = true;
  // Caps for the planner's certificate analysis and for the chase-mode
  // materializations (generous: the certificate bounds the chase, the
  // caps only stop pathologies; an unsaturated prepare-time chase falls
  // back to the translation pipeline).
  TerminationOptions termination;
  size_t chase_max_steps = 1 << 20;
  size_t chase_max_atoms = 1 << 21;
};

struct PreparedQueryResult {
  std::set<std::vector<Term>> answers;
  // Answers are always sound. They are certified complete when no
  // prepare stage hit a cap and the query cannot have null witnesses:
  // either the prepared theory is existential-free, or no body relation
  // of the CQ has an affected position (ap(Σ), Def 2 — only affected
  // positions ever hold chase nulls). Otherwise the certain answers may
  // strictly include these (the one-shot pipeline saturates the query
  // rule into the theory and can see null witnesses; see DESIGN.md §7).
  bool complete = true;
  bool cache_hit = false;
  // Why the result is possibly incomplete: the first prepare-stage
  // degradation, or a per-query budget trip. limit kNone when complete.
  DegradationReason degradation;
};

struct AssertResult {
  // EDB atoms that were actually new.
  size_t new_atoms = 0;
  // Derived consequences added to the materialized model (delta path
  // only; 0 after a re-materialization).
  size_t derived_atoms = 0;
  // False when the assert had to rebuild the model from the EDB.
  bool delta = true;
};

struct RetractResult {
  // Distinct EDB atoms removed.
  size_t removed_atoms = 0;
  // Derived atoms the DRed cascade overdeleted beyond the retracted
  // seeds (0 on the re-materialization fallback).
  size_t overdeleted_atoms = 0;
  // Overdeleted atoms the rederivation phase proved still entailed and
  // restored (0 on the fallback).
  size_t rederived_atoms = 0;
  // False when the retract rebuilt the model from the surviving EDB
  // instead of running DRed. The server maps this to an epoch bump (a
  // replica cannot apply the change as a delta).
  bool delta = true;
};

class PreparedKb {
 public:
  // Which stages the §7 pipeline collapsed to for this theory.
  enum class Mode {
    kDatalog,            // Direct evaluation; fully incremental.
    kGuarded,            // dat(Σ) once; fully incremental.
    kWeaklyGuarded,      // dat(pg(Σ, D)); re-grounds on new constants.
    kChaseMaterialized,  // Certified terminating: direct Skolem chase,
                         // no compiled program; writes re-chase.
  };

  // Runs the prepare phase over `theory` (must be weakly
  // frontier-guarded) and `db`. `symbols` must outlive the PreparedKb
  // and must not be mutated externally while Query/Assert run.
  static Result<std::unique_ptr<PreparedKb>> Prepare(
      const Theory& theory, const Database& db, SymbolTable* symbols,
      const PreparedKbOptions& options = PreparedKbOptions());

  // Answers the conjunctive query `cq` (a Datalog rule with a single
  // head atom and a positive, non-empty body) against the materialized
  // model. Thread-safe: takes a shared lock. Governed by a per-query
  // budget armed from PreparedKbOptions::budget.
  Result<PreparedQueryResult> Query(const Rule& cq) const;
  // As above under an explicit per-query budget (may be null). The
  // budget only bounds this query's join enumeration; a trip yields the
  // sound partial answer set with complete = false. Budget-truncated
  // answers are never cached.
  Result<PreparedQueryResult> Query(const Rule& cq,
                                    ExecutionBudget* budget) const;

  // Adds ground facts to the knowledge base and re-derives their
  // consequences. Thread-safe: takes an exclusive lock and evicts the
  // cached answers that depend on the changed predicates.
  Result<AssertResult> Assert(const std::vector<Atom>& facts);

  // Removes ground EDB facts and incrementally deletes the derived
  // consequences that lose their last recorded support (DRed), falling
  // back to full re-materialization when the incremental path cannot be
  // trusted (see the class comment). Every fact must be a current EDB
  // atom: an unknown or derived-only fact is a clean no-op error (no
  // state changes). A retracted fact may survive in the model when it is
  // still entailed by the remaining facts. Thread-safe: exclusive lock.
  Result<RetractResult> Retract(const std::vector<Atom>& facts);

  // Consistent snapshot of the serving counters.
  ServiceStats stats() const;

  // --- Crash-safe persistence (implemented in snapshot.cc) ---
  //
  // Binary format: magic + version + payload size + payload + FNV-1a
  // checksum, where the payload serializes the symbol table, theories,
  // mode, EDB, materialized model, and degradation certificate. Written
  // to `path` via temp file + atomic rename, so a crash mid-save leaves
  // any previous snapshot intact. The active fault plan (GEREL_FAULT /
  // SetFaultPlanForTest) can truncate or bit-flip the written image for
  // recovery drills.
  Status SaveSnapshot(const std::string& path) const;
  // Loads a snapshot into a PreparedKb over `symbols` (which must be
  // freshly constructed — names are re-interned at their original ids).
  // Returns an error on truncation, corruption, version/magic skew, or
  // fingerprint mismatch; callers recover by falling back to a fresh
  // Prepare (re-materialization).
  static Result<std::unique_ptr<PreparedKb>> LoadSnapshot(
      const std::string& path, SymbolTable* symbols,
      const PreparedKbOptions& options = PreparedKbOptions(),
      uint64_t expected_fingerprint = 0);
  // Caller-provided hash of the source program (0 = unchecked); stored
  // in snapshots and verified by LoadSnapshot so a snapshot is never
  // applied to a different theory's program file.
  void set_snapshot_fingerprint(uint64_t fp) { snapshot_fingerprint_ = fp; }
  uint64_t snapshot_fingerprint() const { return snapshot_fingerprint_; }

  // The first degradation recorded by the prepare/assert pipeline
  // stages (limit kNone when none).
  DegradationReason degradation() const;

  Mode mode() const { return mode_; }
  // Pre-flight analysis of the input (Σ, D); empty when
  // PreparedKbOptions::preflight was false. Immutable after Prepare.
  const AnalysisResult& preflight() const { return preflight_; }
  // The termination certificate the planner computed over the normalized
  // theory (kind kExistentialFree when the planner never ran — it only
  // analyzes negation-free theories with existentials). Immutable after
  // Prepare; not persisted in snapshots.
  const TerminationCertificate& certificate() const { return certificate_; }
  // Whether every prepare stage ran to completion (no cap hit); query
  // results degrade to complete=false otherwise.
  bool prepare_complete() const;
  size_t model_size() const;
  size_t datalog_rules() const;
  // Snapshot copies of the materialized model / base facts, for tests
  // and the differential harness (shared lock; order is insertion order).
  std::vector<Atom> ModelAtoms() const;
  std::vector<Atom> EdbAtoms() const;
  // Length of the support log's body-index pool; retraction compacts it,
  // so it tracks the recorded supports of the current model.
  size_t support_pool_size() const;

 private:
  PreparedKb(SymbolTable* symbols, const PreparedKbOptions& options);

  // Rebuilds the data-dependent stages (grounding + saturation +
  // program compilation) from the current EDB. Exclusive lock held.
  Status CompileProgram();
  // Rebuilds the materialized model from the EDB. Exclusive lock held.
  void MaterializeModel();
  // Records the compiled program's body→head predicate edges for
  // dependency-aware cache invalidation (also called by LoadSnapshot).
  void BuildDependencyIndex();
  // All predicates transitively derivable from `preds` (including
  // `preds` themselves). Exclusive lock held.
  std::unordered_set<RelationId> DependencyClosure(
      std::unordered_set<RelationId> preds) const;
  // Evicts cached entries reading the closure of `written` (plus acdom
  // when the active domain changed) and updates the selectivity
  // counters. Exclusive lock held; takes stats_mu_ internally.
  void EvictCacheForWrite(std::unordered_set<RelationId> written,
                          bool domain_changed);
  // The DRed core, run after edb_ has shed `targets`: overdeletes from
  // the first seed index on, erases the dead atoms from model_ and
  // supports_ in place (order-preserving), and rederives straight into
  // model_. Returns false when the budget tripped mid-retract, possibly
  // leaving model_/supports_ half edited; the caller then falls back to
  // re-materialization, which overwrites both. Exclusive lock held.
  bool RetractDRed(const std::unordered_set<Atom, AtomHash>& targets,
                   const std::vector<Term>& vanished, size_t* overdeleted,
                   size_t* rederived);
  // Completeness certificate for a query: the materialized model decides
  // the certain answers — either it is a universal model (chase mode) or
  // no body relation of `cq` can hold a labeled null in the chase.
  bool QueryCannotHaveNullWitnesses(const Rule& cq) const;
  // Compiled-program rule count; 0 in chase mode (no program). Caller
  // holds mu_.
  size_t DatalogRulesLocked() const;
  // First recorded stage degradation (rewrite, then compile, then
  // materialize). Caller holds mu_.
  DegradationReason DegradationLocked() const;

  SymbolTable* const symbols_;
  const PreparedKbOptions options_;

  // Query-independent artifacts, immutable after Prepare.
  Theory normal_;          // Normalize(Σ).
  Theory weakly_guarded_;  // rew(normal_) (Thm 2), or normal_ itself.
  PositionSet affected_;   // ap(normal_), for the completeness check.
  Mode mode_ = Mode::kDatalog;
  AnalysisResult preflight_;
  TerminationCertificate certificate_;
  bool planner_analyzed_ = false;
  bool rewrite_complete_ = true;
  bool theory_has_existentials_ = false;
  RelationId acdom_ = 0;
  DegradationReason rewrite_degradation_;
  uint64_t snapshot_fingerprint_ = 0;

  // Budget shared by Prepare/Assert pipelines; re-armed per operation
  // under the exclusive lock. Owned here because the compiled
  // DatalogProgram's options hold a pointer into it for the lifetime of
  // the program. Queries use local budgets instead (shared-lock
  // concurrency).
  std::unique_ptr<ExecutionBudget> budget_;

  // Everything below is guarded by mu_ (shared for Query, exclusive for
  // Assert and the prepare phase).
  mutable std::shared_mutex mu_;
  Database edb_;    // Base facts: the initial database plus all asserts.
  Database model_;  // edb_ plus every derived consequence (and acdom).
  std::unique_ptr<DatalogProgram> program_;
  // One derivation support per model atom, recorded by the program
  // during Materialize/ExtendWithDelta (the program's options point at
  // this log). Valid only when the last full pass completed and the
  // program is negation-free; an invalid log routes Retract to the
  // re-materialization fallback, which rebuilds it (self-healing — the
  // snapshot format does not persist supports).
  SupportLog supports_;
  bool supports_valid_ = false;
  // Direct body→head predicate edges of the compiled program, for the
  // cache-invalidation closure.
  std::unordered_map<RelationId, std::vector<RelationId>> dependents_;
  bool compile_complete_ = true;
  bool materialize_complete_ = true;
  DegradationReason compile_degradation_;
  DegradationReason materialize_degradation_;
  // kWeaklyGuarded only: constants the current grounding covers.
  std::unordered_set<uint32_t> grounded_constants_;

  mutable AnswerCache cache_;

  mutable std::mutex stats_mu_;
  mutable ServiceStats stats_;
};

}  // namespace gerel

#endif  // GEREL_SERVICE_PREPARED_KB_H_
