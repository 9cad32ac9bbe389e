/// \file hash_join.h
/// \brief The build side of an equi hash join, probed one window at a time.
///
/// A HashJoinTable is built once over the resident build side's key columns
/// and then probed with any number of probe windows, in order. Each Probe
/// emits its window's matches probe-ascending, and build-ascending within a
/// probe row (build rows keep insertion order), so probing a table's windows
/// in order reproduces the whole-table pair order exactly; a resident probe
/// side is the one-window case.
///
/// The key representation is picked from the build keys and the probe key
/// types: a prebuilt base-table index or a direct int64 map for one integer
/// key, an (int64, int64) map for two, and otherwise batched canonical key
/// hashes with exact canonical-key verification (vectorized mode) or
/// EncodeRowKey strings (row mode). All of them match exactly the rows whose
/// EncodeRowKey strings are equal, and NULL keys never match.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/result.h"
#include "db/eval.h"
#include "db/index.h"

namespace dl2sql::db {

class HashJoinTable {
 public:
  /// (probe row within the window, build row) matches.
  using Pairs = std::vector<std::pair<int64_t, int64_t>>;

  ~HashJoinTable();

  /// Builds over `build_keys` (evaluated on the resident build side).
  /// `probe_types` are the probe key columns' types. `index`, when non-null,
  /// is a prebuilt index over the single build key column; it is used when
  /// the keys take the single-int64 representation.
  static Result<std::unique_ptr<HashJoinTable>> Build(
      std::vector<ColumnHandle> build_keys,
      const std::vector<DataType>& probe_types,
      std::shared_ptr<HashIndex> index, EvalContext* ctx);

  /// Appends the matches of every row of one probe window (keys evaluated on
  /// that window) to `out`, morsel-parallel over the context's pool. Fails
  /// with ResourceExhausted once more than `max_pairs` would be appended.
  Status Probe(const std::vector<ColumnHandle>& probe_keys, EvalContext* ctx,
               int64_t max_pairs, Pairs* out) const;

  /// Estimated resident bytes of the built table.
  int64_t bytes() const { return bytes_; }
  /// True when probes go through the prebuilt base-table index.
  bool uses_index() const { return kind_ == Kind::kIndex; }

 private:
  enum class Kind : uint8_t { kIndex, kInt1, kInt2, kHashed, kEncoded };
  struct Maps;

  HashJoinTable();

  Kind kind_ = Kind::kHashed;
  std::vector<ColumnHandle> build_keys_;
  std::shared_ptr<HashIndex> index_;
  std::unique_ptr<Maps> maps_;
  int64_t bytes_ = 0;
};

}  // namespace dl2sql::db
