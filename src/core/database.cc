#include "core/database.h"

#include <algorithm>

#include "core/check.h"
#include "core/theory.h"

namespace gerel {

namespace {
const std::vector<uint32_t> kEmptyPostings;
}  // namespace

void Database::CopyFrom(const Database& other) {
  segments_.clear();
  segments_.reserve(other.segments_.size());
  for (const auto& seg : other.segments_) {
    segments_.push_back(std::make_unique<Segment>(*seg));
  }
  size_ = other.size_;
  set_ = other.set_;
  by_relation_ = other.by_relation_;
  by_position_ = other.by_position_;
  indexed_upto_ = other.indexed_upto_;
}

void Database::MoveFrom(Database* other) {
  segments_ = std::move(other->segments_);
  size_ = other->size_;
  set_ = std::move(other->set_);
  by_relation_ = std::move(other->by_relation_);
  by_position_ = std::move(other->by_position_);
  indexed_upto_ = other->indexed_upto_;
  other->segments_.clear();
  other->size_ = 0;
  other->set_.clear();
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

void Database::Append(const Atom& atom) {
  if ((size_ >> kSegmentBits) == segments_.size()) {
    segments_.push_back(std::make_unique<Segment>());
  }
  (*segments_[size_ >> kSegmentBits])[size_ & kSegmentMask] = atom;
  ++size_;
}

void Database::IndexAtom(const Atom& atom, uint32_t index) {
  by_relation_[atom.pred].push_back(index);
  uint32_t pos = 0;
  for (Term t : atom.args) {
    by_position_[PositionKey(atom.pred, pos++, t)].push_back(index);
  }
  for (Term t : atom.annotation) {
    by_position_[PositionKey(atom.pred, pos++, t)].push_back(index);
  }
}

void Database::TruncatePostings(const Atom& atom, uint32_t first) {
  auto cut = [first](auto& index, const auto& key) {
    auto it = index.find(key);
    if (it == index.end() || it->second.back() < first) return;
    std::vector<uint32_t>& list = it->second;
    list.erase(std::lower_bound(list.begin(), list.end(), first), list.end());
    if (list.empty()) index.erase(it);
  };
  cut(by_relation_, atom.pred);
  uint32_t pos = 0;
  for (Term t : atom.args) {
    cut(by_position_, PositionKey(atom.pred, pos++, t));
  }
  for (Term t : atom.annotation) {
    cut(by_position_, PositionKey(atom.pred, pos++, t));
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
  for (uint32_t d : dead) set_.erase(slot(d));
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
  size_ = kept;
  // Re-append the survivors' postings in index order: every list ends
  // up exactly as an in-order rebuild would leave it.
  indexed_upto_ = first;
  IndexNewAtoms();
}

bool Database::Insert(const Atom& atom) {
  if (!InsertDeferIndex(atom)) return false;
  IndexNewAtoms();
  return true;
}

bool Database::InsertDeferIndex(const Atom& atom) {
  GEREL_CHECK(atom.IsDatabaseAtom());
  if (!set_.insert(atom).second) return false;
  Append(atom);
  return true;
}

void Database::IndexNewAtoms() {
  for (size_t i = indexed_upto_; i < size_; ++i) {
    IndexAtom(atom(i), static_cast<uint32_t>(i));
  }
  indexed_upto_ = size_;
}

bool Database::Contains(const Atom& atom) const {
  return set_.count(atom) > 0;
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
  auto it = by_relation_.find(pred);
  return it == by_relation_.end() ? kEmptyPostings : it->second;
}

const std::vector<uint32_t>& Database::AtomsAt(RelationId pred, uint32_t pos,
                                               Term term) const {
  GEREL_CHECK(indexed_upto_ == size());  // IndexNewAtoms owed first.
  auto it = by_position_.find(PositionKey(pred, pos, term));
  return it == by_position_.end() ? kEmptyPostings : it->second;
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
