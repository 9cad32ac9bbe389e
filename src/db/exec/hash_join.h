/// \file hash_join.h
/// \brief The build side of an equi hash join, probed one window at a time.
///
/// A HashJoinTable is built once over the resident build side's key columns
/// and then probed with any number of probe windows, in order. Each Probe
/// emits its window's matches probe-ascending, and build-ascending within a
/// probe row, so probing a table's windows in order reproduces the
/// whole-table pair order exactly; a resident probe side is the one-window
/// case.
///
/// The build keys go into one KeyTable (key_table.h) and the build rows are
/// laid out CSR-style by key id, ascending within a key; a base-table
/// HashIndex is a prebuilt table. The one other representation is the
/// EncodeRowKey string map, the row-path reference (DL2SQL_VECTOR=OFF) for
/// keys that are not NULL-free INT64 on both sides. Both match exactly the
/// rows whose EncodeRowKey strings are equal, and NULL keys never match.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "db/eval.h"
#include "db/exec/key_table.h"

namespace dl2sql::db {

class HashJoinTable {
 public:
  /// (probe row within the window, build row) matches.
  using Pairs = std::vector<std::pair<int64_t, int64_t>>;

  /// Builds the flat key table over `build_keys`.
  static Result<std::shared_ptr<const HashJoinTable>> Build(
      std::vector<ColumnHandle> build_keys, EvalContext* ctx);

  /// The table for one equi join over `build_keys` (evaluated on the
  /// resident build side) probed by keys of `probe_types`: `index` when
  /// given and the keys are one NULL-free INT64 column probed by INT64, the
  /// EncodeRowKey map when vectorization is off and the keys are not
  /// NULL-free INT64 on both sides, and Build otherwise.
  static Result<std::shared_ptr<const HashJoinTable>> ForJoin(
      std::vector<ColumnHandle> build_keys,
      const std::vector<DataType>& probe_types,
      std::shared_ptr<const HashJoinTable> index, EvalContext* ctx);

  /// Appends the matches of every row of one probe window (keys evaluated on
  /// that window) to `out`, morsel-parallel over the context's pool. Fails
  /// with ResourceExhausted once more than `max_pairs` would be appended.
  Status Probe(const std::vector<ColumnHandle>& probe_keys, EvalContext* ctx,
               int64_t max_pairs, Pairs* out) const;

  /// Estimated resident bytes of the table (not of the build keys).
  int64_t bytes() const;
  /// Rows of the build side (an index's stale-snapshot guard).
  int64_t build_rows() const {
    return build_keys_.empty() ? 0 : build_keys_[0]->size();
  }

 private:
  HashJoinTable() = default;

  std::vector<ColumnHandle> build_keys_;
  KeyTable keys_;
  /// rows_[offsets_[id], offsets_[id + 1]) hold key `id`, ascending.
  std::vector<int64_t> offsets_;
  std::vector<int64_t> rows_;
  /// EncodeRowKey -> build rows, set instead of the above for the row-path
  /// reference.
  std::unique_ptr<std::unordered_map<std::string, std::vector<int64_t>>>
      encoded_;
  int64_t encoded_bytes_ = 0;
};

}  // namespace dl2sql::db
