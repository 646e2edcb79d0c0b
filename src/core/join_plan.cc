#include "core/join_plan.h"

#include <algorithm>

#include "core/check.h"

namespace gerel {

uint32_t JoinPlan::SlotFor(Term var) {
  for (const auto& [bits, slot] : slot_of_) {
    if (bits == var.bits()) return slot;
  }
  uint32_t slot = static_cast<uint32_t>(var_of_slot_.size());
  slot_of_.emplace_back(var.bits(), slot);
  var_of_slot_.push_back(var);
  return slot;
}

void JoinPlan::Recompile(const std::vector<Atom>& pattern,
                         const std::vector<Term>& pre_bound,
                         int pinned_first) {
  slot_of_.clear();
  var_of_slot_.clear();
  for (Term v : pre_bound) {
    GEREL_CHECK(v.IsVariable());
    SlotFor(v);
  }
  // Pattern variables get slots in first-occurrence order; cache the slot
  // of every flattened position so the greedy ordering below does no
  // further lookups.
  if (pos_slots_.size() < pattern.size()) pos_slots_.resize(pattern.size());
  for (size_t i = 0; i < pattern.size(); ++i) {
    std::vector<int32_t>& slots = pos_slots_[i];
    slots.clear();
    auto intern = [&](const std::vector<Term>& terms) {
      for (Term t : terms) {
        slots.push_back(t.IsVariable() ? static_cast<int32_t>(SlotFor(t))
                                       : -1);
      }
    };
    intern(pattern[i].args);
    intern(pattern[i].annotation);
  }

  bound_scratch_.assign(var_of_slot_.size(), false);
  for (size_t s = 0; s < pre_bound.size(); ++s) bound_scratch_[s] = true;

  used_scratch_.assign(pattern.size(), false);
  order_scratch_.clear();
  auto take = [&](size_t i) {
    used_scratch_[i] = true;
    order_scratch_.push_back(static_cast<uint32_t>(i));
    for (int32_t s : pos_slots_[i]) {
      if (s >= 0) bound_scratch_[s] = true;
    }
  };
  // Statically bound positions of an atom: ground terms plus variables
  // whose slot is already bound. Mirrors the seed matcher's dynamic
  // BoundCount, which is determined by the chosen-atom prefix alone
  // (every successful atom match binds all of its variables).
  auto static_bound_count = [&](size_t i) {
    int n = 0;
    for (int32_t s : pos_slots_[i]) {
      if (s < 0 || bound_scratch_[s]) ++n;
    }
    return n;
  };
  if (pinned_first >= 0) {
    GEREL_CHECK(static_cast<size_t>(pinned_first) < pattern.size());
    take(static_cast<size_t>(pinned_first));
  }
  while (order_scratch_.size() < pattern.size()) {
    int best = -1;
    int best_bound = -1;
    for (size_t i = 0; i < pattern.size(); ++i) {
      if (used_scratch_[i]) continue;
      int b = static_bound_count(i);
      if (b > best_bound) {
        best_bound = b;
        best = static_cast<int>(i);
      }
    }
    take(static_cast<size_t>(best));
  }

  levels_.resize(pattern.size());
  for (size_t d = 0; d < order_scratch_.size(); ++d) {
    uint32_t pi = order_scratch_[d];
    const Atom& a = pattern[pi];
    const std::vector<int32_t>& slots = pos_slots_[pi];
    PlanLevel& level = levels_[d];
    level.pred = a.pred;
    level.num_args = static_cast<uint32_t>(a.args.size());
    level.num_annotation = static_cast<uint32_t>(a.annotation.size());
    level.specs.clear();
    level.specs.reserve(slots.size());
    uint32_t pos = 0;
    auto add = [&](Term t) {
      PositionSpec spec;
      spec.pos = pos;
      if (slots[pos] >= 0) {
        spec.kind = PositionSpec::kSlot;
        spec.slot = static_cast<uint32_t>(slots[pos]);
      } else {
        spec.kind = PositionSpec::kTerm;
        spec.term = t;
      }
      ++pos;
      level.specs.push_back(spec);
    };
    for (Term t : a.args) add(t);
    for (Term t : a.annotation) add(t);
  }
}

CompiledAtom JoinPlan::Compile(const Atom& atom) const {
  CompiledAtom out;
  out.pred = atom.pred;
  out.num_args = static_cast<uint32_t>(atom.args.size());
  out.entries.reserve(atom.args.size() + atom.annotation.size());
  auto add = [&](Term t) {
    CompiledAtom::Entry e;
    e.term = t;
    int slot = t.IsVariable() ? SlotOf(t) : -1;
    if (slot >= 0) {
      e.is_slot = true;
      e.slot = static_cast<uint32_t>(slot);
    }
    out.entries.push_back(e);
  };
  for (Term t : atom.args) add(t);
  for (Term t : atom.annotation) add(t);
  return out;
}

int JoinPlan::SlotOf(Term var) const {
  for (const auto& [bits, slot] : slot_of_) {
    if (bits == var.bits()) return static_cast<int>(slot);
  }
  return -1;
}

void JoinExecutor::Reset(const JoinPlan& plan) {
  plan_ = &plan;
  bindings_.assign(plan.num_slots(), Term());
  bound_.assign(plan.num_slots(), 0);
  trail_.clear();
  matched_.assign(plan.num_levels(), 0);
  if (scratch_.size() < plan.num_levels()) scratch_.resize(plan.num_levels());
}

void JoinExecutor::Bind(Term var, Term value) {
  int slot = plan_->SlotOf(var);
  if (slot < 0) return;
  bindings_[slot] = value;
  bound_[slot] = 1;
}

Term JoinExecutor::Value(Term t) const {
  if (!t.IsVariable()) return t;
  int slot = plan_->SlotOf(t);
  if (slot < 0 || !bound_[slot]) return t;
  return bindings_[slot];
}

Atom JoinExecutor::Apply(const CompiledAtom& atom) const {
  Atom out;
  out.pred = atom.pred;
  out.args.reserve(atom.num_args);
  out.annotation.reserve(atom.entries.size() - atom.num_args);
  for (size_t i = 0; i < atom.entries.size(); ++i) {
    const CompiledAtom::Entry& e = atom.entries[i];
    Term t = (e.is_slot && bound_[e.slot]) ? bindings_[e.slot] : e.term;
    if (i < atom.num_args) {
      out.args.push_back(t);
    } else {
      out.annotation.push_back(t);
    }
  }
  return out;
}

void JoinExecutor::AppendBindings(Substitution* out) const {
  for (size_t s = 0; s < bindings_.size(); ++s) {
    if (bound_[s]) out->Bind(plan_->VarOfSlot(static_cast<uint32_t>(s)),
                             bindings_[s]);
  }
}

bool JoinExecutor::MatchCandidate(const PlanLevel& level, const Atom& candidate,
                                  size_t trail_mark) {
  if (candidate.pred != level.pred ||
      candidate.args.size() != level.num_args ||
      candidate.annotation.size() != level.num_annotation) {
    return false;
  }
  for (const PositionSpec& spec : level.specs) {
    Term t = spec.pos < level.num_args
                 ? candidate.args[spec.pos]
                 : candidate.annotation[spec.pos - level.num_args];
    if (spec.kind == PositionSpec::kTerm) {
      if (t != spec.term) {
        UnwindTo(trail_mark);
        return false;
      }
    } else if (bound_[spec.slot]) {
      if (bindings_[spec.slot] != t) {
        UnwindTo(trail_mark);
        return false;
      }
    } else {
      bindings_[spec.slot] = t;
      bound_[spec.slot] = 1;
      trail_.push_back(spec.slot);
    }
  }
  return true;
}

void JoinExecutor::UnwindTo(size_t trail_mark) {
  while (trail_.size() > trail_mark) {
    bound_[trail_.back()] = 0;
    trail_.pop_back();
  }
}

bool JoinExecutor::RecurseDb(const JoinPlan& plan, const Database& db,
                             size_t depth, const Visitor& visitor,
                             bool db_grows) {
  if (depth == plan.num_levels()) return visitor(*this);
  const PlanLevel& level = plan.levels()[depth];
  // Pick the most selective index available: the per-relation postings,
  // or the shortest per-(relation, position, term) postings among the
  // positions whose value is known here.
  const std::vector<uint32_t>* postings = &db.AtomsOf(level.pred);
  for (const PositionSpec& spec : level.specs) {
    Term v;
    if (spec.kind == PositionSpec::kTerm) {
      v = spec.term;
    } else if (bound_[spec.slot]) {
      v = bindings_[spec.slot];
    } else {
      continue;
    }
    const std::vector<uint32_t>& cand = db.AtomsAt(level.pred, spec.pos, v);
    if (cand.size() < postings->size()) postings = &cand;
  }
  size_t mark = trail_.size();
  if (db_grows) {
    // The visitor may insert into the database mid-enumeration, which can
    // reallocate the postings; copy them into this level's scratch buffer
    // (capacity reused across rounds).
    std::vector<uint32_t>& snapshot = scratch_[depth];
    snapshot.assign(postings->begin(), postings->end());
    for (uint32_t ai : snapshot) {
      if (MatchCandidate(level, db.atom(ai), mark)) {
        matched_[depth] = ai;
        bool keep_going = RecurseDb(plan, db, depth + 1, visitor, db_grows);
        UnwindTo(mark);
        if (!keep_going) return false;
      }
    }
  } else {
    for (uint32_t ai : *postings) {
      if (MatchCandidate(level, db.atom(ai), mark)) {
        matched_[depth] = ai;
        bool keep_going = RecurseDb(plan, db, depth + 1, visitor, db_grows);
        UnwindTo(mark);
        if (!keep_going) return false;
      }
    }
  }
  return true;
}

bool JoinExecutor::Execute(const JoinPlan& plan, const Database& db,
                           const Visitor& visitor, bool db_grows) {
  GEREL_CHECK(plan_ == &plan);  // Reset(plan) first (then seed via Bind).
  trail_.clear();
  return RecurseDb(plan, db, 0, visitor, db_grows);
}

bool JoinExecutor::ExecuteSeeded(const JoinPlan& plan, const Database& db,
                                 const Atom& seed, const Visitor& visitor,
                                 bool db_grows, uint32_t seed_index) {
  Reset(plan);
  if (!MatchCandidate(plan.levels()[0], seed, 0)) return true;
  matched_[0] = seed_index;
  return RecurseDb(plan, db, 1, visitor, db_grows);
}

}  // namespace gerel
