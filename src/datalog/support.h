// Per-atom derivation supports for incremental retraction (DRed).
//
// While a DatalogProgram materializes or extends a fixpoint it can
// record, for every atom it inserts, one witnessing derivation: the rule
// that fired and the database indices of the matched positive body
// atoms. Atoms inserted by the caller (EDB facts, acdom population,
// assert deltas) keep the default no-rule entry and count as base facts.
// Atoms are recorded as they are appended, so every recorded body index
// is strictly smaller than the derived atom's own index (supports are
// well-founded) and the pool holds the groups in atom-index order. The
// only way atoms leave the store, Database::EraseAtoms, runs in owner
// mode and preserves order, and EraseAtoms below applies the same remap
// to the log, so both properties survive retraction: a single forward
// pass in index order settles overdeletion (PreparedKb::Retract).
//
// One support per atom is enough for soundness: overdeletion with a
// single witness may delete more than a multi-support variant would,
// but the rederivation phase restores exactly the surviving least-model
// atoms, so the final model is independent of which witness was kept.
#ifndef GEREL_DATALOG_SUPPORT_H_
#define GEREL_DATALOG_SUPPORT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/database.h"

namespace gerel {

struct SupportLog {
  static constexpr uint32_t kNoRule = 0xffffffffu;

  struct Entry {
    uint32_t rule = kNoRule;  // Theory rule index, kNoRule for base facts.
    uint32_t begin = 0;       // [begin, end) into pool: body atom indices.
    uint32_t end = 0;
  };

  // entries[i] supports database atom i; indices past the recorded range
  // are base facts. pool holds the flattened body index groups.
  std::vector<Entry> entries;
  std::vector<uint32_t> pool;

  void Clear() {
    entries.clear();
    pool.clear();
  }

  // Records a witness for the atom at `atom_index`. The first recorded
  // derivation wins; an entry left at kNoRule (caller-inserted atom)
  // stays a base fact and is never overdeleted by support propagation.
  void Record(size_t atom_index, uint32_t rule, const uint32_t* body,
              size_t body_len) {
    if (entries.size() <= atom_index) entries.resize(atom_index + 1);
    Entry& e = entries[atom_index];
    if (e.rule != kNoRule) return;
    e.rule = rule;
    e.begin = static_cast<uint32_t>(pool.size());
    pool.insert(pool.end(), body, body + body_len);
    e.end = static_cast<uint32_t>(pool.size());
  }

  Entry Of(size_t atom_index) const {
    return atom_index < entries.size() ? entries[atom_index] : Entry();
  }

  // The log-side twin of Database::EraseAtoms(dead, &remap): remap[k] is
  // the new index of atom first + k, or Database::kErased. Truncates the
  // log at `first` and re-records the survivors of the suffix at their
  // new indices with remapped bodies, compacting the pool in place (the
  // groups are in atom-index order, so a rewritten group never overtakes
  // an unread one) so it holds no garbage. A survivor whose witness cites
  // an erased atom becomes a base entry.
  void EraseAtoms(size_t first, const std::vector<uint32_t>& remap) {
    constexpr uint32_t kErased = Database::kErased;
    if (first >= entries.size()) return;
    size_t old_size = entries.size();
    uint32_t write = static_cast<uint32_t>(pool.size());
    for (size_t i = first; i < old_size; ++i) {
      if (entries[i].rule != kNoRule) {
        write = entries[i].begin;
        break;
      }
    }
    size_t new_size = first;
    for (size_t i = first; i < old_size; ++i) {
      uint32_t to = remap[i - first];
      if (to == kErased) continue;
      Entry e = entries[i];
      Entry kept;
      if (e.rule != kNoRule) {
        uint32_t begin = write;
        bool stale = false;
        for (uint32_t p = e.begin; p < e.end && !stale; ++p) {
          uint32_t body = pool[p];
          if (body >= first) body = remap[body - first];
          stale = body == kErased;
          pool[write++] = body;
        }
        if (stale) {
          write = begin;
        } else {
          kept = {e.rule, begin, write};
        }
      }
      entries[to] = kept;
      new_size = to + 1;
    }
    entries.resize(new_size);
    pool.resize(write);
  }
};

}  // namespace gerel

#endif  // GEREL_DATALOG_SUPPORT_H_
