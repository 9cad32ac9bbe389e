/// \file key_table.h
/// \brief The engine's one hash table: row keys to dense key ids.
///
/// A KeyTable gives every distinct key a dense id 0, 1, 2, ... in
/// first-insertion order. It is one flat open-addressing array (linear
/// probing, power-of-two capacity, at most half full) of 8-byte slots, each
/// holding the upper half of a key's canonical 64-bit hash (vec::HashKeyRange)
/// and its id. The table stores no key values: a lookup passes `same(id)`,
/// which compares its row with the key stored for `id` wherever the caller
/// keeps it; KeyEq is that comparison. Two rows therefore share an id iff
/// their EncodeRowKey strings are equal: Int(3) is Float(3.0), and NULL
/// equals NULL (GROUP BY puts NULL keys in one group; joins drop NULL-keyed
/// rows before they reach a table).
///
/// Users: the equi join's build table and the prebuilt base-table indexes
/// (HashJoinTable, HashIndex), the grace join's per-partition tables, and
/// group-by (HashAggregator).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "db/column.h"
#include "db/exec/vector_kernels.h"

namespace dl2sql::db {

class KeyTable {
 public:
  static constexpr uint32_t kAbsent = 0xffffffffu;

  /// Sized to hold `expected_keys` without growing.
  explicit KeyTable(int64_t expected_keys = 0)
      : slots_(SlotsFor(expected_keys), 0), mask_(slots_.size() - 1) {}

  /// Number of distinct keys (the next id).
  int64_t size() const { return static_cast<int64_t>(hashes_.size()); }
  /// Canonical hash of key `id`.
  uint64_t hash(uint32_t id) const { return hashes_[id]; }

  /// The id of the key with `hash` for which `same(id)` holds, or kAbsent.
  template <typename Same>
  uint32_t Find(uint64_t hash, const Same& same) const {
    return Locate(hash, same).second;
  }

  /// Find, except that an absent key is added as id size() and `*inserted`
  /// is set.
  template <typename Same>
  uint32_t FindOrInsert(uint64_t hash, const Same& same, bool* inserted) {
    const auto [pos, found] = Locate(hash, same);
    *inserted = found == kAbsent;
    if (!*inserted) return found;
    const uint32_t id = static_cast<uint32_t>(hashes_.size());
    hashes_.push_back(hash);
    slots_[pos] = Slot(hash, id);
    if (2 * hashes_.size() > slots_.size()) Grow();
    return id;
  }

  /// Resident bytes: the slot array and the per-key hashes.
  int64_t bytes() const {
    return static_cast<int64_t>((slots_.capacity() + hashes_.capacity()) *
                                sizeof(uint64_t));
  }

 private:
  static constexpr uint64_t kTagMask = 0xffffffff00000000ull;

  static size_t SlotsFor(int64_t keys) {
    size_t n = 16;
    while (static_cast<int64_t>(n) < 2 * keys) n *= 2;
    return n;
  }

  /// 0 marks an empty slot.
  static uint64_t Slot(uint64_t hash, uint32_t id) {
    return (hash & kTagMask) | (static_cast<uint64_t>(id) + 1);
  }

  /// (slot position, id) of the matching key, or (the empty slot that ends
  /// its probe sequence, kAbsent).
  template <typename Same>
  std::pair<uint64_t, uint32_t> Locate(uint64_t hash, const Same& same) const {
    for (uint64_t pos = hash & mask_;; pos = (pos + 1) & mask_) {
      const uint64_t slot = slots_[pos];
      if (slot == 0) return {pos, kAbsent};
      const uint32_t id = static_cast<uint32_t>(slot) - 1;
      if (((slot ^ hash) & kTagMask) == 0 && same(id)) return {pos, id};
    }
  }

  /// Doubles the slot array and re-places every key, in id order.
  void Grow();

  std::vector<uint64_t> slots_;
  uint64_t mask_;
  /// Full canonical hash per id, for Grow.
  std::vector<uint64_t> hashes_;
};

/// Exact canonical key equality between row `ra` of key columns `a` and row
/// `rb` of key columns `b` (same arity): vec::CanonicalKeyRowsEqual, with
/// one or two INT64 columns on both sides hoisted into raw value compares.
/// It holds the columns' data pointers, so bind one per batch and rebind
/// after either side grows. `null_free` promises that no row it is asked
/// about holds a NULL key part.
class KeyEq {
 public:
  KeyEq(const std::vector<const Column*>& a,
        const std::vector<const Column*>& b, bool null_free);

  bool operator()(int64_t ra, int64_t rb) const {
    switch (ints_) {
      case 1:
        return a0_[ra] == b0_[rb];
      case 2:
        return a0_[ra] == b0_[rb] && a1_[ra] == b1_[rb];
      default:
        return vec::CanonicalKeyRowsEqual(*a_, ra, *b_, rb);
    }
  }

 private:
  const std::vector<const Column*>* a_;
  const std::vector<const Column*>* b_;
  /// Number of raw-compared INT64 columns (1 or 2), or 0.
  size_t ints_ = 0;
  const int64_t* a0_ = nullptr;
  const int64_t* a1_ = nullptr;
  const int64_t* b0_ = nullptr;
  const int64_t* b1_ = nullptr;
};

}  // namespace dl2sql::db
