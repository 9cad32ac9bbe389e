#include "db/exec/hash_aggregate.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "accel/thread_pool.h"
#include "db/exec/key_table.h"
#include "db/exec/vector_batch.h"
#include "db/exec/vector_kernels.h"

namespace dl2sql::db {

namespace {

/// COUNT/SUM/AVG/STDDEV_SAMP from their running count, sum and sum of
/// squares (both state forms hold exactly these).
Value NumericOutputValue(AggFunc f, int64_t count, double sum, double sumsq) {
  switch (f) {
    case AggFunc::kCount:
    case AggFunc::kCountStar:
      return Value::Int(count);
    case AggFunc::kSum:
      return count == 0 ? Value::Null() : Value::Float(sum);
    case AggFunc::kAvg:
      return count == 0 ? Value::Null()
                        : Value::Float(sum / static_cast<double>(count));
    case AggFunc::kStddevSamp: {
      if (count < 2) return Value::Null();
      const double mean = sum / static_cast<double>(count);
      const double var = (sumsq - static_cast<double>(count) * mean * mean) /
                         static_cast<double>(count - 1);
      return Value::Float(std::sqrt(std::max(0.0, var)));
    }
    case AggFunc::kMin:
    case AggFunc::kMax:
      break;
  }
  return Value::Null();
}

}  // namespace

Status AccumulateAggValue(AggFunc f, const Value& v, AggState* st) {
  if (f == AggFunc::kCountStar) {
    ++st->count;
    return Status::OK();
  }
  if (v.is_null()) return Status::OK();
  switch (f) {
    case AggFunc::kCount:
      // COUNT over a boolean expression counts TRUE rows (the intent of
      // the paper's count(nUDF(...) = TRUE); ClickHouse would use
      // countIf). COUNT over other types counts non-NULL rows.
      if (v.type() == DataType::kBool) {
        if (v.bool_value()) ++st->count;
      } else {
        ++st->count;
      }
      break;
    case AggFunc::kSum:
    case AggFunc::kAvg:
    case AggFunc::kStddevSamp: {
      DL2SQL_ASSIGN_OR_RETURN(double d, v.AsDouble());
      ++st->count;
      st->sum += d;
      st->sumsq += d * d;
      break;
    }
    case AggFunc::kMin:
      if (st->min.is_null() || v.Compare(st->min) < 0) st->min = v;
      break;
    case AggFunc::kMax:
      if (st->max.is_null() || v.Compare(st->max) > 0) st->max = v;
      break;
    case AggFunc::kCountStar:
      break;
  }
  return Status::OK();
}

void MergeAggState(AggState* dst, const AggState& src) {
  dst->count += src.count;
  dst->sum += src.sum;
  dst->sumsq += src.sumsq;
  if (!src.min.is_null() &&
      (dst->min.is_null() || src.min.Compare(dst->min) < 0)) {
    dst->min = src.min;
  }
  if (!src.max.is_null() &&
      (dst->max.is_null() || src.max.Compare(dst->max) > 0)) {
    dst->max = src.max;
  }
}

DataType AggOutputType(AggFunc f, DataType arg_type) {
  switch (f) {
    case AggFunc::kCount:
    case AggFunc::kCountStar:
      return DataType::kInt64;
    case AggFunc::kMin:
    case AggFunc::kMax:
      return arg_type != DataType::kNull ? arg_type : DataType::kFloat64;
    default:
      return DataType::kFloat64;
  }
}

Value AggOutputValue(AggFunc f, const AggState& st) {
  if (f == AggFunc::kMin) return st.min;
  if (f == AggFunc::kMax) return st.max;
  return NumericOutputValue(f, st.count, st.sum, st.sumsq);
}

namespace {

using vec::SelIndex;
using vec::VAggState;

/// How one aggregate accumulates: a typed batch kernel over VAggState, or
/// the boxed row accumulator over AggState.
enum class AccKind : uint8_t {
  kUnset,
  kBoxed,
  kCountStar,
  kCountAll,   ///< COUNT over a no-null non-bool column: every row counts
  kCountBool,  ///< COUNT over a no-null bool column: TRUE rows count
  kSumInt,     ///< SUM/AVG/STDDEV int64 source
  kSumFloat,
  kMinMaxInt,
  kMinMaxFloat,
};

/// The kernel that folds `arg` for aggregate `f`, or kBoxed when the kernels
/// do not cover it: NULL-bearing arguments (skip-NULL semantics), string
/// MIN/MAX (Value comparison), non-numeric sums, kNull-typed arguments.
AccKind KernelFor(AggFunc f, const Column* arg) {
  if (f == AggFunc::kCountStar) return AccKind::kCountStar;
  if (arg == nullptr || arg->HasNulls() || arg->type() == DataType::kNull) {
    return AccKind::kBoxed;
  }
  const DataType t = arg->type();
  switch (f) {
    case AggFunc::kCount:
      return t == DataType::kBool ? AccKind::kCountBool : AccKind::kCountAll;
    case AggFunc::kSum:
    case AggFunc::kAvg:
    case AggFunc::kStddevSamp:
      if (t == DataType::kInt64) return AccKind::kSumInt;
      if (t == DataType::kFloat64) return AccKind::kSumFloat;
      return AccKind::kBoxed;
    case AggFunc::kMin:
    case AggFunc::kMax:
      if (t == DataType::kInt64) return AccKind::kMinMaxInt;
      if (t == DataType::kFloat64) return AccKind::kMinMaxFloat;
      return AccKind::kBoxed;
    case AggFunc::kCountStar:
      break;
  }
  return AccKind::kBoxed;
}

/// The boxed form of a kernel state (same count/sum/sumsq; min/max boxed).
AggState Boxed(const VAggState& st, AccKind kind, AggFunc f) {
  AggState out;
  out.count = st.count;
  out.sum = st.sum;
  out.sumsq = st.sumsq;
  if (st.has_minmax) {
    Value v = kind == AccKind::kMinMaxInt ? Value::Int(st.imin_max)
                                          : Value::Float(st.fmin_max);
    (f == AggFunc::kMin ? out.min : out.max) = std::move(v);
  }
  return out;
}

/// Final value of a kernel state; exactly what the boxed form emits.
Value TypedOutputValue(AggFunc f, AccKind kind, const VAggState& st) {
  if (f != AggFunc::kMin && f != AggFunc::kMax) {
    return NumericOutputValue(f, st.count, st.sum, st.sumsq);
  }
  if (!st.has_minmax) return Value::Null();
  return kind == AccKind::kMinMaxInt ? Value::Int(st.imin_max)
                                     : Value::Float(st.fmin_max);
}

/// Groups in first-seen order: key values, first global row id, and
/// per-aggregate state arrays (typed[a][gid] for kernel aggregates,
/// boxed[a][gid] otherwise) — the layout the kernels stream over.
struct GroupSet {
  std::vector<int64_t> first_row;
  std::vector<Column> keys;
  std::vector<std::vector<VAggState>> typed;
  std::vector<std::vector<AggState>> boxed;
  /// Payload bytes of the string and blob key values held in `keys`.
  int64_t key_payload_bytes = 0;

  GroupSet(const std::vector<DataType>& key_types, size_t num_aggs)
      : typed(num_aggs), boxed(num_aggs) {
    for (DataType t : key_types) keys.emplace_back(t);
  }
  GroupSet(const GroupSet&) = delete;
  GroupSet& operator=(const GroupSet&) = delete;

  size_t size() const { return first_row.size(); }

  std::vector<const Column*> KeyPtrs() const {
    std::vector<const Column*> out;
    for (const Column& c : keys) out.push_back(&c);
    return out;
  }

  /// Adds a group keyed like row `idx` of `cols` (same types as `keys`).
  void Add(const std::vector<const Column*>& cols, int64_t idx, int64_t first) {
    first_row.push_back(first);
    for (size_t k = 0; k < keys.size(); ++k) {
      AppendKeys(k, *cols[k], idx, idx + 1);
    }
  }

  /// Adds one group per row of `rows` (window rows of `cols`, in order), with
  /// one typed gather per key column.
  void AddAll(const std::vector<const Column*>& cols,
              const std::vector<int64_t>& rows, HashAggregator::RowIds ids) {
    for (int64_t r : rows) first_row.push_back(ids[r]);
    for (size_t k = 0; k < keys.size(); ++k) {
      const Column taken = cols[k]->Take(rows);
      AppendKeys(k, taken, 0, taken.size());
    }
  }

  // Types are checked per window, so `src` has key k's type.
  void AppendKeys(size_t k, const Column& src, int64_t begin, int64_t end) {
    keys[k].AppendRange(src, begin, end);
    if (src.type() == DataType::kString || src.type() == DataType::kBlob) {
      for (int64_t i = begin; i < end; ++i) {
        key_payload_bytes += static_cast<int64_t>(
            src.strings()[static_cast<size_t>(i)].size());
      }
    }
  }

  void SyncStates(const std::vector<AccKind>& kinds) {
    for (size_t a = 0; a < kinds.size(); ++a) {
      if (kinds[a] == AccKind::kBoxed) {
        boxed[a].resize(size());
      } else {
        typed[a].resize(size());
      }
    }
  }
};

/// Maps group keys to gids: one KeyTable, or the single group of a global
/// aggregate (no keys). The table verifies candidates against the group
/// set's stored keys; the keys of groups first seen in the current morsel
/// are still window rows (`new_rows_`) and join the group set in one gather
/// at the end of the morsel.
class Grouper {
 public:
  explicit Grouper(bool global) : global_(global) {}

  /// Assigns the gid of every row of [bgn, end) of `cols`, adding new
  /// groups (first row `ids[row]`) to `gs`. `null_free` promises that
  /// neither `cols` nor the stored keys hold a NULL.
  void AssignGids(const std::vector<const Column*>& cols, int64_t bgn,
                  int64_t end, HashAggregator::RowIds ids, bool null_free,
                  SelIndex* gids, GroupSet* gs) {
    const SelIndex rows = static_cast<SelIndex>(end - bgn);
    if (global_) {
      if (gs->size() == 0 && rows > 0) gs->Add(cols, bgn, ids[bgn]);
      std::fill(gids, gids + rows, 0);
      return;
    }
    hash_buf_.resize(static_cast<size_t>(rows));
    vec::HashKeyRange(cols, bgn, end, hash_buf_.data());
    const std::vector<const Column*> stored_keys = gs->KeyPtrs();
    const KeyEq stored(cols, stored_keys, null_free);
    const KeyEq fresh(cols, cols, null_free);
    const uint32_t committed = static_cast<uint32_t>(gs->size());
    new_rows_.clear();
    for (SelIndex i = 0; i < rows; ++i) {
      const int64_t row = bgn + i;
      bool inserted = false;
      gids[i] = static_cast<SelIndex>(table_.FindOrInsert(
          hash_buf_[static_cast<size_t>(i)],
          [&](uint32_t g) {
            return g < committed ? stored(row, g)
                                 : fresh(row, new_rows_[g - committed]);
          },
          &inserted));
      if (inserted) new_rows_.push_back(row);
    }
    gs->AddAll(cols, new_rows_, ids);
  }

  /// Merge-time lookup of group `g` of a worker's group set (keys
  /// `from_keys`, grouped by `from`), added to `gs` with first row `first`
  /// when new.
  SelIndex Merge(const Grouper& from,
                 const std::vector<const Column*>& from_keys, int64_t g,
                 int64_t first, GroupSet* gs) {
    if (global_) {
      if (gs->size() == 0) gs->Add(from_keys, g, first);
      return 0;
    }
    const std::vector<const Column*> keys = gs->KeyPtrs();
    bool inserted = false;
    const SelIndex gid = static_cast<SelIndex>(table_.FindOrInsert(
        from.table_.hash(static_cast<uint32_t>(g)),
        [&](uint32_t k) {
          return vec::CanonicalKeyRowsEqual(from_keys, g, keys, k);
        },
        &inserted));
    if (inserted) gs->Add(from_keys, g, first);
    return gid;
  }

  int64_t bytes() const { return global_ ? 0 : table_.bytes(); }

 private:
  bool global_;
  KeyTable table_;
  std::vector<uint64_t> hash_buf_;
  std::vector<int64_t> new_rows_;
};

/// Folds one morsel: `gids[i]` is the group of window row `bgn + i`. States
/// must already be sized (SyncStates).
Status AccumulateMorsel(const std::vector<AggFunc>& funcs,
                        const std::vector<AccKind>& kinds,
                        const std::vector<const Column*>& args, int64_t bgn,
                        SelIndex rows, const SelIndex* gids, GroupSet* gs) {
  for (size_t a = 0; a < kinds.size(); ++a) {
    const Column* arg = args[a];
    VAggState* states = gs->typed[a].data();
    const bool want_min = funcs[a] == AggFunc::kMin;
    switch (kinds[a]) {
      case AccKind::kCountStar:
      case AccKind::kCountAll:
        vec::AccumulateCount(gids, rows, states);
        break;
      case AccKind::kCountBool:
        vec::AccumulateCountBool(arg->bools().data() + bgn, gids, rows, states);
        break;
      case AccKind::kSumInt:
        vec::AccumulateSumInt(arg->ints().data() + bgn, gids, rows, states);
        break;
      case AccKind::kSumFloat:
        vec::AccumulateSumFloat(arg->floats().data() + bgn, gids, rows, states);
        break;
      case AccKind::kMinMaxInt:
        vec::AccumulateMinMaxInt(arg->ints().data() + bgn, gids, rows, want_min,
                                 states);
        break;
      case AccKind::kMinMaxFloat:
        vec::AccumulateMinMaxFloat(arg->floats().data() + bgn, gids, rows,
                                   want_min, states);
        break;
      case AccKind::kBoxed: {
        AggState* boxed = gs->boxed[a].data();
        for (SelIndex i = 0; i < rows; ++i) {
          DL2SQL_RETURN_NOT_OK(AccumulateAggValue(
              funcs[a], arg == nullptr ? Value::Null() : arg->GetValue(bgn + i),
              &boxed[gids[i]]));
        }
        break;
      }
      case AccKind::kUnset:
        break;
    }
  }
  return Status::OK();
}

}  // namespace

struct HashAggregator::State {
  const PlanNode& node;
  const bool vectorized;
  std::vector<AggFunc> funcs;
  std::vector<AccKind> kinds;
  std::vector<DataType> arg_types;
  std::vector<DataType> key_types;
  /// Created by the first window, which fixes the key types.
  std::unique_ptr<GroupSet> groups;
  std::unique_ptr<Grouper> grouper;
  /// No window so far held a NULL group key.
  bool keys_null_free = true;
  std::vector<SelIndex> gids;

  State(const PlanNode& n, bool vec) : node(n), vectorized(vec) {
    for (const auto& call : node.agg_calls) funcs.push_back(call->agg_func);
    kinds.assign(funcs.size(), AccKind::kUnset);
    arg_types.assign(funcs.size(), DataType::kNull);
  }
};

HashAggregator::HashAggregator(const PlanNode& node, bool vectorized)
    : state_(std::make_unique<State>(node, vectorized)) {}

HashAggregator::~HashAggregator() = default;

Status HashAggregator::Consume(const std::vector<ColumnHandle>& key_cols,
                               const std::vector<ColumnHandle>& arg_cols,
                               int64_t n, RowIds row_ids, EvalContext* ctx) {
  State& s = *state_;
  const size_t num_aggs = s.funcs.size();
  const std::vector<const Column*> kptrs = ColumnPtrs(key_cols);
  const std::vector<const Column*> args = ColumnPtrs(arg_cols);

  if (s.groups == nullptr) {
    for (const Column* k : kptrs) s.key_types.push_back(k->type());
    for (size_t a = 0; a < num_aggs; ++a) {
      if (args[a] != nullptr) s.arg_types[a] = args[a]->type();
    }
    s.groups = std::make_unique<GroupSet>(s.key_types, num_aggs);
    s.grouper = std::make_unique<Grouper>(kptrs.empty());
  } else {
    for (size_t k = 0; k < kptrs.size(); ++k) {
      if (kptrs[k]->type() != s.key_types[k]) {
        return Status::InternalError("group key ", k,
                                     " changed type between input windows");
      }
    }
  }
  for (const Column* k : kptrs) {
    s.keys_null_free = s.keys_null_free && !k->HasNulls();
  }
  GroupSet& groups = *s.groups;
  for (size_t a = 0; a < num_aggs; ++a) {
    const AccKind want =
        s.vectorized ? KernelFor(s.funcs[a], args[a]) : AccKind::kBoxed;
    if (s.kinds[a] == AccKind::kUnset) {
      s.kinds[a] = want;
    } else if (s.kinds[a] != AccKind::kBoxed && want != s.kinds[a]) {
      // The kernel declines this window: box the states and stay boxed.
      groups.boxed[a].clear();
      groups.boxed[a].reserve(groups.size());
      for (const VAggState& st : groups.typed[a]) {
        groups.boxed[a].push_back(Boxed(st, s.kinds[a], s.funcs[a]));
      }
      groups.typed[a].clear();
      s.kinds[a] = AccKind::kBoxed;
    }
  }
  groups.SyncStates(s.kinds);
  if (n == 0) return Status::OK();

  const int64_t m = ctx != nullptr && ctx->morsel_size > 0
                        ? ctx->morsel_size
                        : ThreadPool::kDefaultMorselSize;
  const bool parallel = ctx != nullptr && ctx->pool != nullptr &&
                        ctx->pool->num_threads() > 1 && n > m;
  if (!parallel) {
    auto body = [&](int64_t bgn, int64_t end, int) -> Status {
      s.gids.resize(static_cast<size_t>(end - bgn));
      s.grouper->AssignGids(kptrs, bgn, end, row_ids, s.keys_null_free,
                            s.gids.data(), &groups);
      groups.SyncStates(s.kinds);
      return AccumulateMorsel(s.funcs, s.kinds, args, bgn,
                              static_cast<SelIndex>(end - bgn), s.gids.data(),
                              &groups);
    };
    if (ctx != nullptr && ctx->pool != nullptr) {
      // With a pool wired, drive the loop through ParallelForMorsel for pool
      // accounting and trace parity. The !parallel conditions (single-
      // threaded pool or n <= m) guarantee it executes inline,
      // morsel-at-a-time, so the shared grouper state stays serial.
      DL2SQL_RETURN_NOT_OK(ctx->pool->ParallelForMorsel(n, m, body));
    } else {
      for (int64_t bgn = 0; bgn < n; bgn += m) {
        DL2SQL_RETURN_NOT_OK(body(bgn, std::min(n, bgn + m), 0));
      }
    }
  } else {
    const int workers = ctx->pool->num_threads();
    std::vector<std::unique_ptr<GroupSet>> wsets;
    std::vector<Grouper> wgroupers;
    for (int w = 0; w < workers; ++w) {
      wsets.push_back(std::make_unique<GroupSet>(s.key_types, num_aggs));
      wgroupers.emplace_back(kptrs.empty());
    }
    std::vector<std::vector<SelIndex>> wgids(static_cast<size_t>(workers));
    DL2SQL_RETURN_NOT_OK(ctx->pool->ParallelForMorsel(
        n, m, [&](int64_t bgn, int64_t end, int w) -> Status {
          GroupSet& gs = *wsets[static_cast<size_t>(w)];
          std::vector<SelIndex>& gids = wgids[static_cast<size_t>(w)];
          gids.resize(static_cast<size_t>(end - bgn));
          wgroupers[static_cast<size_t>(w)].AssignGids(
              kptrs, bgn, end, row_ids, s.keys_null_free, gids.data(), &gs);
          gs.SyncStates(s.kinds);
          return AccumulateMorsel(s.funcs, s.kinds, args, bgn,
                                  static_cast<SelIndex>(end - bgn),
                                  gids.data(), &gs);
        }));
    // Fold the worker states in ascending first row (each row belongs to one
    // worker, so first rows are distinct): new groups append in first-seen
    // order for any thread count, and a group's first row is the first
    // worker group that inserts it.
    struct WorkerGroup {
      int64_t first_row;
      size_t worker;
      size_t gid;
    };
    std::vector<WorkerGroup> order;
    std::vector<std::vector<const Column*>> wkeys;
    for (size_t w = 0; w < wsets.size(); ++w) {
      wkeys.push_back(wsets[w]->KeyPtrs());
      for (size_t g = 0; g < wsets[w]->size(); ++g) {
        order.push_back({wsets[w]->first_row[g], w, g});
      }
    }
    std::sort(order.begin(), order.end(),
              [](const WorkerGroup& a, const WorkerGroup& b) {
                return a.first_row < b.first_row;
              });
    for (const WorkerGroup& wg : order) {
      const GroupSet& ws = *wsets[wg.worker];
      const size_t before = groups.size();
      const size_t dst = static_cast<size_t>(s.grouper->Merge(
          wgroupers[wg.worker], wkeys[wg.worker], static_cast<int64_t>(wg.gid),
          wg.first_row, &groups));
      groups.SyncStates(s.kinds);
      const bool inserted = groups.size() > before;
      for (size_t a = 0; a < num_aggs; ++a) {
        if (s.kinds[a] == AccKind::kBoxed) {
          if (inserted) {
            groups.boxed[a][dst] = ws.boxed[a][wg.gid];
          } else {
            MergeAggState(&groups.boxed[a][dst], ws.boxed[a][wg.gid]);
          }
        } else if (inserted) {
          groups.typed[a][dst] = ws.typed[a][wg.gid];
        } else {
          vec::MergeVAggState(&groups.typed[a][dst], ws.typed[a][wg.gid],
                              s.funcs[a] == AggFunc::kMin);
        }
      }
    }
  }
  if (ctx != nullptr && s.vectorized) {
    ctx->vec_batches += (n + m - 1) / m;
    ctx->vec_rows_in += n;
    ctx->vec_rows_selected += n;
  }
  return Status::OK();
}

int64_t HashAggregator::StateBytes() const {
  const State& s = *state_;
  if (s.groups == nullptr) return 0;
  // Estimates, not malloc-exact: the grouper's key table, and per group its
  // first row, its key values (string and blob keys add their payload) and
  // its per-aggregate state.
  size_t per_group = sizeof(int64_t);
  for (DataType t : s.key_types) {
    per_group += t == DataType::kString || t == DataType::kBlob
                     ? sizeof(std::string)
                     : sizeof(int64_t);
  }
  for (AccKind kind : s.kinds) {
    per_group += kind == AccKind::kBoxed ? sizeof(AggState) : sizeof(VAggState);
  }
  return static_cast<int64_t>(s.groups->size() * per_group) +
         s.groups->key_payload_bytes + s.grouper->bytes();
}

Result<Table> HashAggregator::Finish(std::vector<int64_t>* first_rows) {
  State& s = *state_;
  if (s.groups == nullptr) {
    return Status::InternalError("aggregation finished before any input");
  }
  GroupSet& groups = *s.groups;
  // Global aggregate over empty input still yields one row.
  if (s.key_types.empty() && groups.size() == 0) {
    groups.first_row.push_back(-1);
    groups.SyncStates(s.kinds);
  }
  std::vector<Column> out_cols;
  TableSchema out_schema;
  for (size_t k = 0; k < groups.keys.size(); ++k) {
    out_schema.AddField({s.node.group_names[k], s.key_types[k]});
    out_cols.push_back(std::move(groups.keys[k]));
  }
  const size_t num_groups = groups.size();
  if (first_rows != nullptr) *first_rows = groups.first_row;
  for (size_t a = 0; a < s.funcs.size(); ++a) {
    const AggFunc f = s.funcs[a];
    Column c(AggOutputType(f, s.arg_types[a]));
    c.Reserve(static_cast<int64_t>(num_groups));
    for (size_t g = 0; g < num_groups; ++g) {
      DL2SQL_RETURN_NOT_OK(
          c.Append(s.kinds[a] == AccKind::kBoxed
                       ? AggOutputValue(f, groups.boxed[a][g])
                       : TypedOutputValue(f, s.kinds[a], groups.typed[a][g])));
    }
    out_schema.AddField({s.node.agg_names[a], c.type()});
    out_cols.push_back(std::move(c));
  }
  return Table::FromColumns(std::move(out_schema), std::move(out_cols));
}

}  // namespace dl2sql::db
