#include "core/database.h"

#include <algorithm>

#include "core/check.h"
#include "core/parallel.h"
#include "core/theory.h"

namespace gerel {

namespace {
const std::vector<uint32_t> kEmptyPostings;
// Below this many pending atoms the parallel index build is not worth
// the task dispatch.
constexpr size_t kParallelIndexThreshold = 256;
}  // namespace

void Database::CopyFrom(const Database& other) {
  size_t n = other.size();
  segments_.clear();
  segments_.reserve(other.segments_.size());
  for (const auto& seg : other.segments_) {
    segments_.push_back(seg ? std::make_unique<Segment>(*seg) : nullptr);
  }
  size_.store(n, std::memory_order_relaxed);
  for (size_t s = 0; s < kSetShards; ++s) {
    set_shards_[s].set = other.set_shards_[s].set;
  }
  by_relation_ = other.by_relation_;
  by_position_ = other.by_position_;
  indexed_upto_ = other.indexed_upto_;
  position_index_enabled_ = other.position_index_enabled_;
}

void Database::MoveFrom(Database* other) {
  segments_ = std::move(other->segments_);
  size_.store(other->size_.load(std::memory_order_relaxed),
              std::memory_order_relaxed);
  for (size_t s = 0; s < kSetShards; ++s) {
    set_shards_[s].set = std::move(other->set_shards_[s].set);
  }
  by_relation_ = std::move(other->by_relation_);
  by_position_ = std::move(other->by_position_);
  indexed_upto_ = other->indexed_upto_;
  position_index_enabled_ = other->position_index_enabled_;
  other->segments_.clear();
  other->size_.store(0, std::memory_order_relaxed);
  other->indexed_upto_ = 0;
}

Database& Database::operator=(const Database& other) {
  if (this != &other) CopyFrom(other);
  return *this;
}

Database& Database::operator=(Database&& other) noexcept {
  if (this != &other) MoveFrom(&other);
  return *this;
}

uint32_t Database::Append(const Atom& atom, bool allow_grow) {
  size_t index = size_.load(std::memory_order_relaxed);
  size_t seg = index >> kSegmentBits;
  if (seg >= segments_.size()) {
    // Growing the directory moves its slots; forbidden while concurrent
    // readers may be traversing it (ReserveConcurrent pre-sizes it).
    GEREL_CHECK(allow_grow);
    segments_.push_back(std::make_unique<Segment>());
  } else if (!segments_[seg]) {
    segments_[seg] = std::make_unique<Segment>();
  }
  (*segments_[seg])[index & kSegmentMask] = atom;
  size_.store(index + 1, std::memory_order_release);
  return static_cast<uint32_t>(index);
}

void Database::IndexAtom(const Atom& atom, uint32_t index) {
  by_relation_[RelationShardOf(atom.pred)][atom.pred].push_back(index);
  if (position_index_enabled_) {
    uint32_t pos = 0;
    for (Term t : atom.args) {
      PositionKey key(atom.pred, pos++, t);
      by_position_[PositionShardOf(key)][key].push_back(index);
    }
    for (Term t : atom.annotation) {
      PositionKey key(atom.pred, pos++, t);
      by_position_[PositionShardOf(key)][key].push_back(index);
    }
  }
}

void Database::IndexShardRange(size_t shard, size_t begin, size_t end) {
  for (size_t i = begin; i < end; ++i) {
    const Atom& a = atom(i);
    uint32_t index = static_cast<uint32_t>(i);
    if (RelationShardOf(a.pred) == shard) {
      by_relation_[shard][a.pred].push_back(index);
    }
    if (position_index_enabled_) {
      uint32_t pos = 0;
      for (Term t : a.args) {
        PositionKey key(a.pred, pos++, t);
        if (PositionShardOf(key) == shard) {
          by_position_[shard][key].push_back(index);
        }
      }
      for (Term t : a.annotation) {
        PositionKey key(a.pred, pos++, t);
        if (PositionShardOf(key) == shard) {
          by_position_[shard][key].push_back(index);
        }
      }
    }
  }
}

void Database::TruncatePostings(const Atom& atom, uint32_t first) {
  auto cut = [first](auto& shard, const auto& key) {
    auto it = shard.find(key);
    if (it == shard.end() || it->second.back() < first) return;
    std::vector<uint32_t>& list = it->second;
    list.erase(std::lower_bound(list.begin(), list.end(), first), list.end());
    if (list.empty()) shard.erase(it);
  };
  cut(by_relation_[RelationShardOf(atom.pred)], atom.pred);
  if (position_index_enabled_) {
    uint32_t pos = 0;
    for (Term t : atom.args) {
      PositionKey key(atom.pred, pos++, t);
      cut(by_position_[PositionShardOf(key)], key);
    }
    for (Term t : atom.annotation) {
      PositionKey key(atom.pred, pos++, t);
      cut(by_position_[PositionShardOf(key)], key);
    }
  }
}

void Database::EraseAtoms(const std::vector<uint32_t>& dead,
                          std::vector<uint32_t>* remap) {
  remap->clear();
  if (dead.empty()) return;
  GEREL_CHECK(indexed_upto_ == size());  // IndexNewAtoms owed first.
  const size_t n = size();
  const uint32_t first = dead.front();
  for (size_t k = 1; k < dead.size(); ++k) {
    GEREL_CHECK(dead[k - 1] < dead[k]);
  }
  GEREL_CHECK(dead.back() < n);
  auto slot = [this](size_t i) -> Atom& {
    return (*segments_[i >> kSegmentBits])[i & kSegmentMask];
  };
  // Unhook the suffix: the dead atoms leave the dedup set, and every
  // postings list the suffix touches is cut back to its entries below
  // `first` (the prefix keeps its indices, so those entries stay valid).
  for (uint32_t d : dead) set_shards_[SetShardOf(slot(d))].set.erase(slot(d));
  for (size_t i = first; i < n; ++i) TruncatePostings(slot(i), first);
  // Close the gaps, keeping the survivors' order.
  remap->assign(n - first, kErased);
  size_t kept = first;
  size_t next = 0;
  for (size_t i = first; i < n; ++i) {
    if (next < dead.size() && dead[next] == i) {
      ++next;
      continue;
    }
    (*remap)[i - first] = static_cast<uint32_t>(kept);
    if (kept != i) slot(kept) = std::move(slot(i));
    ++kept;
  }
  // Release the vacated slots and segments.
  size_t segments = (kept + kSegmentMask) >> kSegmentBits;
  for (size_t i = kept; i < std::min(n, segments << kSegmentBits); ++i) {
    slot(i) = Atom();
  }
  segments_.resize(segments);
  size_.store(kept, std::memory_order_release);
  // Re-append the survivors' postings in index order: every list ends
  // up exactly as an in-order rebuild would leave it.
  indexed_upto_ = first;
  IndexNewAtoms(nullptr);
}

bool Database::Insert(const Atom& atom) {
  if (!InsertDeferIndex(atom)) return false;
  IndexNewAtoms(nullptr);
  return true;
}

bool Database::InsertDeferIndex(const Atom& atom) {
  GEREL_CHECK(atom.IsDatabaseAtom());
  if (!set_shards_[SetShardOf(atom)].set.insert(atom).second) return false;
  Append(atom, /*allow_grow=*/true);
  return true;
}

size_t Database::InsertBatchDeferIndex(const std::vector<Atom>& batch,
                                       WorkerPool* pool,
                                       std::vector<uint8_t>* is_new) {
  size_t n = batch.size();
  is_new->assign(n, 0);
  if (n == 0) return 0;
  if (pool == nullptr || pool->num_threads() <= 1) {
    size_t added = 0;
    for (size_t i = 0; i < n; ++i) {
      if (InsertDeferIndex(batch[i])) {
        (*is_new)[i] = 1;
        ++added;
      }
    }
    return added;
  }
  // Phase 1 — hash every atom in parallel; the shard id is the only
  // per-atom state the dedup phase needs.
  std::vector<uint8_t> shard_of(n);
  constexpr size_t kHashChunk = 1024;
  size_t chunks = (n + kHashChunk - 1) / kHashChunk;
  pool->Run(chunks, [&](size_t c) {
    size_t end = std::min((c + 1) * kHashChunk, n);
    for (size_t i = c * kHashChunk; i < end; ++i) {
      GEREL_CHECK(batch[i].IsDatabaseAtom());
      shard_of[i] = static_cast<uint8_t>(SetShardOf(batch[i]));
    }
  });
  // Phase 2 — partition candidate indices by shard, in batch order, so
  // each shard sees its candidates in the same order the sequential
  // loop would (first occurrence of an in-batch duplicate wins).
  std::array<std::vector<uint32_t>, kSetShards> members;
  for (size_t i = 0; i < n; ++i) {
    members[shard_of[i]].push_back(static_cast<uint32_t>(i));
  }
  // Phase 3 — per-shard dedup in parallel. Each shard's set is touched
  // by exactly one lane (no locks), and duplicate atoms always hash to
  // the same shard, so the newness marks match the sequential loop.
  pool->Run(kSetShards, [&](size_t s) {
    for (uint32_t i : members[s]) {
      if (set_shards_[s].set.insert(batch[i]).second) (*is_new)[i] = 1;
    }
  });
  // Phase 4 — assign final indices in batch order and pre-size storage
  // so the scatter below never grows the directory concurrently.
  size_t base = size();
  std::vector<uint32_t> new_list;
  for (size_t i = 0; i < n; ++i) {
    if ((*is_new)[i]) new_list.push_back(static_cast<uint32_t>(i));
  }
  if (new_list.empty()) return 0;
  size_t end = base + new_list.size();
  ReserveConcurrent(end);
  for (size_t seg = base >> kSegmentBits; seg < (end + kSegmentMask) >>
                                                    kSegmentBits;
       ++seg) {
    if (!segments_[seg]) segments_[seg] = std::make_unique<Segment>();
  }
  // Phase 5 — scatter the new atoms into their slots in parallel
  // (distinct slots per task; the single size_ publish below is the
  // only cross-thread handoff) and publish the new size once.
  size_t scatter_chunks = (new_list.size() + kHashChunk - 1) / kHashChunk;
  pool->Run(scatter_chunks, [&](size_t c) {
    size_t stop = std::min((c + 1) * kHashChunk, new_list.size());
    for (size_t r = c * kHashChunk; r < stop; ++r) {
      size_t index = base + r;
      (*segments_[index >> kSegmentBits])[index & kSegmentMask] =
          batch[new_list[r]];
    }
  });
  size_.store(end, std::memory_order_release);
  return new_list.size();
}

void Database::IndexNewAtoms(WorkerPool* pool) {
  size_t end = size();
  if (indexed_upto_ >= end) return;
  size_t begin = indexed_upto_;
  if (pool != nullptr && pool->num_threads() > 1 &&
      end - begin >= kParallelIndexThreshold) {
    // Shard ownership makes the parallel build deterministic: each shard
    // is written by exactly one lane, scanning atoms in index order, so
    // every postings list ends up byte-identical to a sequential build.
    pool->Run(kIndexShards,
              [&](size_t shard) { IndexShardRange(shard, begin, end); });
  } else {
    for (size_t i = begin; i < end; ++i) {
      IndexAtom(atom(i), static_cast<uint32_t>(i));
    }
  }
  indexed_upto_ = end;
}

bool Database::Contains(const Atom& atom) const {
  return set_shards_[SetShardOf(atom)].set.count(atom) > 0;
}

void Database::ReserveConcurrent(size_t max_atoms) {
  size_t slots = (max_atoms + kSegmentSize - 1) >> kSegmentBits;
  if (slots > segments_.size()) segments_.resize(slots);
}

bool Database::InsertConcurrent(const Atom& atom) {
  GEREL_CHECK(atom.IsDatabaseAtom());
  SetShard& shard = set_shards_[SetShardOf(atom)];
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (!shard.set.insert(atom).second) return false;
  }
  std::lock_guard<std::mutex> lock(append_mu_);
  uint32_t index = Append(atom, /*allow_grow=*/false);
  IndexAtom(atom, index);
  indexed_upto_ = index + 1;
  return true;
}

bool Database::ContainsConcurrent(const Atom& atom) const {
  const SetShard& shard = set_shards_[SetShardOf(atom)];
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.set.count(atom) > 0;
}

std::vector<uint32_t> Database::CopyAtomsOf(RelationId pred) const {
  std::lock_guard<std::mutex> lock(append_mu_);
  auto& shard = by_relation_[RelationShardOf(pred)];
  auto it = shard.find(pred);
  return it == shard.end() ? std::vector<uint32_t>() : it->second;
}

std::vector<Atom> Database::AtomsVector() const {
  std::vector<Atom> out;
  size_t n = size();
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) out.push_back(atom(i));
  return out;
}

const std::vector<uint32_t>& Database::AtomsOf(RelationId pred) const {
  GEREL_CHECK(indexed_upto_ == size());  // IndexNewAtoms owed first.
  const auto& shard = by_relation_[RelationShardOf(pred)];
  auto it = shard.find(pred);
  return it == shard.end() ? kEmptyPostings : it->second;
}

const std::vector<uint32_t>& Database::AtomsAt(RelationId pred, uint32_t pos,
                                               Term term) const {
  GEREL_CHECK(position_index_enabled_);
  GEREL_CHECK(indexed_upto_ == size());  // IndexNewAtoms owed first.
  PositionKey key(pred, pos, term);
  const auto& shard = by_position_[PositionShardOf(key)];
  auto it = shard.find(key);
  return it == shard.end() ? kEmptyPostings : it->second;
}

void Database::set_position_index_enabled(bool enabled) {
  GEREL_CHECK(empty());  // Must be configured before inserts.
  position_index_enabled_ = enabled;
}

std::vector<Term> Database::ActiveTerms(RelationId except) const {
  std::vector<Term> out;
  std::unordered_set<uint32_t> seen;
  for (const Atom& a : atoms()) {
    if (a.pred == except) continue;
    for (Term t : a.AllTerms()) {
      if (seen.insert(t.bits()).second) out.push_back(t);
    }
  }
  return out;
}

std::vector<Term> Database::ActiveTerms() const {
  return ActiveTerms(static_cast<RelationId>(-1));
}

std::vector<Term> Database::ActiveConstants() const {
  std::vector<Term> out;
  std::unordered_set<uint32_t> seen;
  for (const Atom& a : atoms()) {
    for (Term t : a.AllTerms()) {
      if (t.IsConstant() && seen.insert(t.bits()).second) out.push_back(t);
    }
  }
  return out;
}

Database Database::Restrict(const std::vector<RelationId>& preds) const {
  Database out;
  for (const Atom& a : atoms()) {
    if (std::find(preds.begin(), preds.end(), a.pred) != preds.end())
      out.Insert(a);
  }
  return out;
}

bool operator==(const Database& a, const Database& b) {
  if (a.size() != b.size()) return false;
  for (const Atom& atom : a.atoms()) {
    if (!b.Contains(atom)) return false;
  }
  return true;
}

RelationId AcdomRelation(SymbolTable* symbols) {
  return symbols->Relation(kAcdomName, 1);
}

void PopulateAcdom(const Theory& theory, SymbolTable* symbols, Database* db) {
  RelationId acdom = AcdomRelation(symbols);
  for (Term t : db->ActiveTerms(acdom)) {
    db->Insert(Atom(acdom, {t}));
  }
  for (Term c : theory.Constants()) {
    db->Insert(Atom(acdom, {c}));
  }
}

}  // namespace gerel
