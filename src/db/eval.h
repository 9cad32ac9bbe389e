/// \file eval.h
/// \brief Vectorized expression evaluation over columnar tables.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common/timer.h"
#include "db/expr.h"
#include "db/table.h"
#include "db/udf.h"

namespace dl2sql {
class ShardedLruCache;
class ThreadPool;
}

namespace dl2sql::db {

/// \brief Interception point for batched neural-UDF invocations.
///
/// When a sink is wired into the EvalContext, the batched-nUDF evaluator
/// hands every cache-miss batch to the sink instead of calling the UDF body
/// directly; the sink decides how to actually invoke `fn` (the serving
/// layer's cross-query coalescer merges rows from concurrently running
/// queries into shared batches). Only neural UDFs that are `parallel_safe`
/// and carry a non-zero model fingerprint are routed — those are exactly the
/// bodies that are pure per-row functions, so regrouping rows across queries
/// cannot change any per-row result.
///
/// Contract: the sink returns exactly rows.size() values, in row order, each
/// identical to what `fn` would have produced for that row. The sink owns the
/// nudf.batches accounting for the invocations it performs (the evaluator
/// counts batches only on the direct path).
class NudfBatchSink {
 public:
  virtual ~NudfBatchSink() = default;

  /// Per-call attribution a sink reports back to the submitting query
  /// (resource accounting; zeros when the sink does not track them).
  /// `billed_seconds` is this query's proportional share — by contributed row
  /// count — of the `fn` invocations its rows rode in; summed over every
  /// participant of a coalesced batch it equals the batch's total fn time.
  /// `wait_seconds` is time spent blocked in the sink beyond the billed
  /// share (waiting for the batch window to close or for another query's
  /// leader to flush).
  struct NudfBatchStats {
    double wait_seconds = 0.0;
    double billed_seconds = 0.0;
  };

  virtual Result<std::vector<Value>> RunBatch(
      uint64_t fingerprint, const BatchFn& fn,
      std::vector<std::vector<Value>>&& rows,
      NudfBatchStats* stats = nullptr) = 0;
};

/// \brief Shared evaluation state threaded through expression evaluation.
struct EvalContext {
  const UdfRegistry* udfs = nullptr;
  /// Executes a scalar subquery (wired to the Database executor); must return
  /// a single value.
  std::function<Result<Value>(const SelectStmt&)> subquery_exec;
  /// When set, neural-UDF wall time is charged to the "inference" bucket so
  /// operators can report relational vs. inference cost separately.
  CostAccumulator* costs = nullptr;
  /// Accumulated nUDF seconds (all calls through this context).
  double inference_seconds = 0.0;
  /// Number of nUDF invocations (rows actually sent to a model); the hint
  /// benchmarks assert pruning through this counter.
  int64_t neural_calls = 0;
  /// Of those, rows answered from the cross-query nUDF result cache (a
  /// subset of neural_calls; per-query introspection, system.queries).
  int64_t nudf_cache_hits = 0;
  /// Worker pool for morsel-parallel kernels; nullptr (or a 1-thread pool)
  /// degenerates every loop to the serial path. Not owned.
  ThreadPool* pool = nullptr;
  /// Rows per morsel for parallel loops (ThreadPool::kDefaultMorselSize).
  int64_t morsel_size = 4096;
  /// Cross-query nUDF result cache (owned by the Database). Only consulted
  /// for neural UDFs whose NUdfInfo carries a non-zero model fingerprint;
  /// nullptr disables memoization entirely. Cache hits still count toward
  /// neural_calls and nudf.invocations — those tally rows *answered* by a
  /// model, whether freshly computed or memoized — so existing accounting is
  /// unchanged; only compute time and nudf.batches shrink.
  ShardedLruCache* nudf_cache = nullptr;
  /// Cross-query batch coalescer (owned by the serving layer, wired through
  /// Database::set_nudf_batch_sink). Only consulted for parallel-safe neural
  /// UDFs with a non-zero fingerprint; nullptr keeps the direct invocation
  /// path bit-for-bit unchanged.
  NudfBatchSink* batch_sink = nullptr;
  /// When true, operators attempt the batch-at-a-time vectorized kernels
  /// (db/exec/vector_*.h) before the row path; kernels that cannot compile
  /// the expression/key shape fall back silently with identical results.
  /// Off (DL2SQL_VECTOR=OFF) forces the row path everywhere.
  bool vectorized = false;
  /// \name Vectorized-kernel accounting (folded by DrainEvalContext)
  /// Batches processed, rows entering kernels, and rows surviving selection;
  /// `vec_rows_selected / vec_rows_in` is the average selection-vector
  /// density ExplainAnalyze reports per operator.
  /// @{
  int64_t vec_batches = 0;
  int64_t vec_rows_in = 0;
  int64_t vec_rows_selected = 0;
  /// @}
  /// \name Coalesced-batch attribution (folded by DrainEvalContext)
  /// Seconds this query's rows waited in the batch sink, and the share of
  /// shared batch_fn time billed back to this query (NudfBatchStats).
  /// @{
  double nudf_wait_seconds = 0.0;
  double nudf_billed_seconds = 0.0;
  /// @}
};

/// Shared, possibly non-owning column handle (column refs alias the input
/// table's columns to avoid deep copies).
using ColumnHandle = std::shared_ptr<const Column>;

/// Non-owning views of evaluated columns: the form the key and aggregate
/// kernels take.
inline std::vector<const Column*> ColumnPtrs(
    const std::vector<ColumnHandle>& cols) {
  std::vector<const Column*> out;
  out.reserve(cols.size());
  for (const auto& c : cols) out.push_back(c.get());
  return out;
}

/// Evaluates `e` over every row of `input`, producing a column of
/// input.num_rows() values. Aggregate calls must have been planned away.
Result<ColumnHandle> EvalExpr(const Expr& e, const Table& input,
                              EvalContext* ctx);

/// Evaluates a row-independent expression (literals, subqueries, functions of
/// those) to a single value.
Result<Value> EvalScalar(const Expr& e, EvalContext* ctx);

/// Applies a binary operator to two scalars with SQL NULL propagation.
Result<Value> EvalValueBinary(BinaryOp op, const Value& l, const Value& r);

/// Static result type of an expression against a schema.
Result<DataType> InferExprType(const Expr& e, const TableSchema& schema,
                               const UdfRegistry* udfs);

/// Evaluates a predicate and returns the passing row indices.
Result<std::vector<int64_t>> FilterRows(const Expr& predicate,
                                        const Table& input, EvalContext* ctx);

}  // namespace dl2sql::db
