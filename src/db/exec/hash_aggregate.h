/// \file hash_aggregate.h
/// \brief Incremental hash aggregation: windows in, one group state, result
/// out.
///
/// A HashAggregator folds any number of input windows (group keys and
/// aggregate arguments already evaluated over the window) into one group
/// state, in window order. Every group keeps its key values and its first
/// global row id, so a window need not stay resident once it is consumed;
/// a resident table is the one-window case.
///
/// Group assignment happens morsel-at-a-time through one KeyTable
/// (key_table.h): batched canonical key hashes, verified against the stored
/// group keys (raw INT64 compares while no key has been NULL), producing a
/// gid-per-row buffer; a global aggregate is the one-group case.
/// Each aggregate then accumulates either through a typed batch kernel over
/// a contiguous per-group state array (vectorized mode, numeric or no
/// argument, no NULLs in the window) or through the boxed row accumulator
/// (AccumulateAggValue). An aggregate whose kernel declines a later window
/// converts its states to the boxed form and stays there. Both forms fold a
/// group's rows in row order with the same float operations, so serial
/// results are bit-identical to whole-table row-at-a-time aggregation.
///
/// With a multi-threaded pool, a window of more than one morsel is grouped
/// into worker-local states that are folded into the global state in
/// ascending first row (additive fold, min/max by comparison): group order
/// is first-seen for every thread count.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "db/eval.h"
#include "db/plan.h"
#include "db/table.h"
#include "db/value.h"

namespace dl2sql::db {

/// Boxed running state for one aggregate over one group.
struct AggState {
  int64_t count = 0;
  double sum = 0;
  double sumsq = 0;
  Value min;
  Value max;
};

/// Folds one argument value into an aggregate state. Shared by the
/// incremental aggregator and the external (spilling) aggregation so both
/// accumulate in exactly the same order with exactly the same float
/// operations — the bit-identity contract between the two rests on this.
Status AccumulateAggValue(AggFunc f, const Value& v, AggState* st);

/// Folds a worker-local state into another. Count/sum/sumsq are additive;
/// min/max combine by comparison (NULL = no value seen yet).
void MergeAggState(AggState* dst, const AggState& src);

/// Output column type of aggregate `f` over an argument of `arg_type`
/// (kNull when the aggregate takes no argument).
DataType AggOutputType(AggFunc f, DataType arg_type);

/// Final value of aggregate `f` from an accumulated state.
Value AggOutputValue(AggFunc f, const AggState& st);

class HashAggregator {
 public:
  /// `vectorized` enables the typed batch kernels (DL2SQL_VECTOR).
  HashAggregator(const PlanNode& node, bool vectorized);
  ~HashAggregator();
  HashAggregator(const HashAggregator&) = delete;
  HashAggregator& operator=(const HashAggregator&) = delete;

  /// Global row ids of a window's rows: consecutive from `base`, or the
  /// ascending `ids` array when set (a spill partition's rows).
  struct RowIds {
    int64_t base = 0;
    const int64_t* ids = nullptr;
    int64_t operator[](int64_t row) const {
      return ids != nullptr ? ids[row] : base + row;
    }
  };

  /// Folds one window of `n` rows. `key_cols` are the group keys and
  /// `arg_cols` the aggregate arguments (null for COUNT(*)), evaluated over
  /// the window; windows must arrive in global row order. Column types must
  /// not change between windows.
  Status Consume(const std::vector<ColumnHandle>& key_cols,
                 const std::vector<ColumnHandle>& arg_cols, int64_t n,
                 RowIds row_ids, EvalContext* ctx);

  /// Estimated resident bytes of the group state (for memory accounting).
  int64_t StateBytes() const;

  /// The result: group keys then aggregates, one row per group in
  /// first-seen order. A global aggregate over no rows yields one row.
  /// `first_rows`, when set, receives each group's first global row id.
  Result<Table> Finish(std::vector<int64_t>* first_rows = nullptr);

 private:
  struct State;
  std::unique_ptr<State> state_;
};

}  // namespace dl2sql::db
