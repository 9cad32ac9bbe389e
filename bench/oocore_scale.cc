/// \file oocore_scale.cc
/// \brief Out-of-core scale demonstration: a fig8-style relational mix
/// (hash join, grouped + global aggregation, filter/project) over a fact
/// table ~10x larger than the configured buffer-pool budget.
///
/// The paged run happens FIRST, before any in-memory copy of the data
/// exists, so the sampled resident-set growth genuinely reflects the paged
/// working set (pool frames + spill scratch + the served result), not the
/// dataset. The mix's join probes and aggregation inputs stream window by
/// window and fit the budget; one extra statement, GROUP BY id, holds a
/// group per fact row and must spill through external aggregation. The run
/// must
///   - keep the RSS delta below the logical data size (bounded peak RSS),
///   - record spills in system.query_profiles (the over-budget statement),
///   - and produce bit-identical results: every query's row-key checksum is
///     compared against a serial in-memory Database over the same data.
///
/// Emits BENCH_oocore.json (mix_paged_sec / mix_inmem_sec /
/// overbudget_paged_sec / peak_rss_delta_mb / spill counters plus
/// hardware_concurrency) for scripts/check_bench_regression.py. `--quick`
/// shrinks the dataset for CI; the scale ratio stays >= 10x either way.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "common/cache.h"
#include "common/logging.h"
#include "common/mem_tracker.h"
#include "common/timer.h"
#include "db/database.h"
#include "db/exec/row_key.h"
#include "db/storage/paged_table.h"
#include "db/storage/storage_engine.h"

using namespace dl2sql;      // NOLINT
using namespace dl2sql::db;  // NOLINT

namespace {

constexpr int64_t kDimRows = 96;
constexpr int64_t kSliceRows = 8192;  // load granularity (stays resident)

// The fig8-style statement shapes: join, grouped aggregation, global
// aggregation, filter+project. The join has no pushable single-side filter,
// so the whole fact table reaches the join's probe side.
const char* const kMixSql[] = {
    "SELECT F.id, F.grp, D.w FROM fact F INNER JOIN dim D ON F.grp = D.id",
    "SELECT grp, count(*) AS c, sum(val) AS s, avg(val) AS a, "
    "min(val) AS lo, max(val) AS hi FROM fact GROUP BY grp",
    "SELECT count(*) AS c, sum(val) AS s FROM fact",
    "SELECT id * 2 AS d, val + 1.0 AS v FROM fact WHERE grp < 7",
};

// One group per fact row: the group state outgrows the query budget
// mid-stream, so the aggregation restarts as external aggregation. Timed
// apart from the mix.
const char* const kOverBudgetSql =
    "SELECT id, count(*) AS c FROM fact GROUP BY id";

struct ScaleConfig {
  int64_t fact_rows;
  size_t pool_bytes;
  int64_t query_mem_limit;
};

/// Default exercises ~29 MB of data against a 2 MB pool (~14x); --quick
/// shrinks to ~12 MB against 1 MB (~12x) for CI. The query memory limit sits
/// below the fact table and below GROUP BY id's group state.
ScaleConfig PickScale(bool quick) {
  if (quick) return {160000, 1u << 20, 4 << 20};
  return {400000, 2u << 20, 12 << 20};
}

/// One fact row i, shared by the paged and the in-memory loader so both
/// databases hold bit-identical data.
std::vector<Value> FactRow(int64_t i, const std::string& payload) {
  return {Value::Int(i), Value::Int((i * 7919) % kDimRows),
          Value::Float(static_cast<double>((i * 104729 + 13) % 100000) / 7.0),
          Value::String(payload)};
}

TableSchema FactSchema() {
  return TableSchema({{"id", DataType::kInt64},
                      {"grp", DataType::kInt64},
                      {"val", DataType::kFloat64},
                      {"payload", DataType::kString}});
}

void FillDim(Database* db) {
  TableSchema dim_schema({{"id", DataType::kInt64}, {"w", DataType::kInt64}});
  Table dim{dim_schema};
  for (int64_t i = 0; i < kDimRows; ++i) {
    DL2SQL_CHECK(dim.AppendRow({Value::Int(i), Value::Int(i * i)}).ok());
  }
  DL2SQL_CHECK(db->RegisterTable("dim", std::move(dim)).ok());
}

/// Streams the fact table into the paged database in kSliceRows slices so
/// the full dataset is never resident; returns its logical byte size.
int64_t FillFactPaged(Database* db, int64_t rows) {
  const std::string payload(48, 'p');
  storage::PagedTableBuilder builder(db->storage_engine(), FactSchema());
  int64_t logical_bytes = 0;
  for (int64_t base = 0; base < rows; base += kSliceRows) {
    Table slice{FactSchema()};
    const int64_t end = std::min(rows, base + kSliceRows);
    for (int64_t i = base; i < end; ++i) {
      DL2SQL_CHECK(slice.AppendRow(FactRow(i, payload)).ok());
    }
    logical_bytes += static_cast<int64_t>(slice.ByteSize());
    DL2SQL_CHECK(builder.Append(slice).ok());
  }
  auto data = builder.Finish();
  DL2SQL_CHECK(data.ok()) << data.status().ToString();
  DL2SQL_CHECK(
      db->RegisterTable("fact", Table::FromPaged(FactSchema(), std::move(*data)))
          .ok());
  return logical_bytes;
}

void FillFactResident(Database* db, int64_t rows) {
  const std::string payload(48, 'p');
  Table fact{FactSchema()};
  for (int64_t i = 0; i < rows; ++i) {
    DL2SQL_CHECK(fact.AppendRow(FactRow(i, payload)).ok());
  }
  DL2SQL_CHECK(db->RegisterTable("fact", std::move(fact)).ok());
}

/// Order-sensitive bit-level checksum over every row of `t`, via the same
/// canonical value encoding the executor uses for join/group keys.
uint64_t TableChecksum(const Table& t) {
  std::vector<const Column*> cols;
  cols.reserve(static_cast<size_t>(t.num_columns()));
  for (int c = 0; c < t.num_columns(); ++c) cols.push_back(&t.column(c));
  uint64_t h = 0xec0eca11u;
  std::string key;
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    key.clear();
    for (const Column* col : cols) AppendKeyPart(*col, r, &key);
    h = Hash64(key.data(), key.size(), h);
  }
  return h ^ (static_cast<uint64_t>(t.num_rows()) << 32);
}

struct MixResult {
  double seconds = 0;
  double overbudget_seconds = 0;
  int64_t max_rss_delta = 0;
  /// The mix's checksums, then the over-budget statement's.
  std::vector<uint64_t> checksums;
};

MixResult RunMix(Database* db) {
  const int64_t rss_base = storage::StorageEngine::UpdateProcessRssMetrics();
  MixResult out;
  auto run = [&](const char* sql) {
    auto r = db->Execute(sql);
    DL2SQL_CHECK(r.ok()) << sql << ": " << r.status().ToString();
    out.checksums.push_back(TableChecksum(*r));
    const int64_t rss = storage::StorageEngine::UpdateProcessRssMetrics();
    out.max_rss_delta = std::max(out.max_rss_delta, rss - rss_base);
  };
  Stopwatch mix_watch;
  for (const char* sql : kMixSql) run(sql);
  out.seconds = mix_watch.ElapsedSeconds();
  Stopwatch overbudget_watch;
  run(kOverBudgetSql);
  out.overbudget_seconds = overbudget_watch.ElapsedSeconds();
  return out;
}

int64_t SumProfileColumn(Database* db, const char* column) {
  auto r = db->Execute(std::string("SELECT sum(") + column +
                       ") AS s FROM system.query_profiles");
  DL2SQL_CHECK(r.ok()) << r.status().ToString();
  // sum() yields Float64 (or NULL over an empty profile ring).
  auto v = r->column(0).GetValue(0).AsDouble();
  return v.ok() ? static_cast<int64_t>(*v) : 0;
}

double ToMb(int64_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  const ScaleConfig cfg = PickScale(quick);

  MemTracker::SetEnabled(true);
  const bool tracking = MemTracker::Enabled();
  if (!tracking) {
    std::printf(
        "note: resource accounting compiled out; spill paths cannot "
        "trigger, measuring paged iteration only\n");
  }

  // ---- paged phase first: no in-memory copy of the data exists yet, so the
  // sampled RSS growth is the paged working set, not the dataset.
  Database paged;
  storage::StorageOptions opts = storage::StorageOptions::FromEnv();
  opts.pool_bytes = cfg.pool_bytes;
  opts.page_min_bytes = 64 * 1024;
  DL2SQL_CHECK(paged.set_storage_mode(StorageMode::kPaged, opts).ok());
  FillDim(&paged);
  const int64_t data_bytes = FillFactPaged(&paged, cfg.fact_rows);
  if (tracking) paged.set_query_mem_limit(cfg.query_mem_limit);

  const double ratio = static_cast<double>(data_bytes) /
                       static_cast<double>(cfg.pool_bytes);
  std::printf("fact rows: %lld, data %.1f MB, pool %.1f MB (%.1fx), "
              "query mem limit %.1f MB\n",
              static_cast<long long>(cfg.fact_rows), ToMb(data_bytes),
              ToMb(static_cast<int64_t>(cfg.pool_bytes)), ratio,
              ToMb(cfg.query_mem_limit));
  if (ratio < 10.0) {
    std::fprintf(stderr, "FAIL: scale ratio %.1fx below the 10x target\n",
                 ratio);
    return 1;
  }

  const MixResult paged_run = RunMix(&paged);
  const int64_t spill_bytes =
      tracking ? SumProfileColumn(&paged, "spill_bytes") : 0;
  const int64_t spill_partitions =
      tracking ? SumProfileColumn(&paged, "spill_partitions") : 0;
  std::printf("paged mix: %.3fs, over-budget GROUP BY id: %.3fs, max RSS "
              "delta %.1f MB, spill %.1f MB across %lld partitions\n",
              paged_run.seconds, paged_run.overbudget_seconds,
              ToMb(paged_run.max_rss_delta), ToMb(spill_bytes),
              static_cast<long long>(spill_partitions));

  // ---- serial in-memory reference over identical data.
  Database ref;
  DL2SQL_CHECK(ref.set_storage_mode(StorageMode::kInMemory).ok());
  FillDim(&ref);
  FillFactResident(&ref, cfg.fact_rows);
  const MixResult ref_run = RunMix(&ref);
  std::printf("in-memory mix: %.3fs\n", ref_run.seconds);

  bool ok = true;
  for (size_t q = 0; q < paged_run.checksums.size(); ++q) {
    if (paged_run.checksums[q] != ref_run.checksums[q]) {
      std::fprintf(stderr, "FAIL: result mismatch for %s\n",
                   q < std::size(kMixSql) ? kMixSql[q] : kOverBudgetSql);
      ok = false;
    }
  }
  if (tracking && spill_bytes <= 0) {
    std::fprintf(stderr,
                 "FAIL: no spills recorded; the over-budget statement never "
                 "left memory\n");
    ok = false;
  }
  // Bounded peak RSS: the paged working set must stay below the logical data
  // size (an in-memory run needs at least all of it resident). The bound is
  // deliberately loose — it covers the pool, spill scratch, the served
  // result, and allocator slack — but it is the line between "out of core"
  // and "quietly loaded everything".
  if (paged_run.max_rss_delta >= data_bytes) {
    std::fprintf(stderr,
                 "FAIL: paged RSS delta %.1f MB >= data size %.1f MB\n",
                 ToMb(paged_run.max_rss_delta), ToMb(data_bytes));
    ok = false;
  }

  std::FILE* out = std::fopen("BENCH_oocore.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "FATAL: cannot open BENCH_oocore.json\n");
    return 1;
  }
  std::fprintf(out,
               "{\n  \"bench\": \"oocore_scale\",\n"
               "  \"hardware_concurrency\": %u,\n"
               "  \"quick\": %s,\n"
               "  \"fact_rows\": %lld,\n"
               "  \"data_mb\": %.2f,\n"
               "  \"pool_mb\": %.2f,\n"
               "  \"scale_ratio\": %.2f,\n"
               "  \"mix_paged_sec\": %.6f,\n"
               "  \"mix_inmem_sec\": %.6f,\n"
               "  \"overbudget_paged_sec\": %.6f,\n"
               "  \"peak_rss_delta_mb\": %.2f,\n"
               "  \"spill_bytes\": %lld,\n"
               "  \"spill_partitions\": %lld\n}\n",
               std::thread::hardware_concurrency(), quick ? "true" : "false",
               static_cast<long long>(cfg.fact_rows), ToMb(data_bytes),
               ToMb(static_cast<int64_t>(cfg.pool_bytes)), ratio,
               paged_run.seconds, ref_run.seconds,
               paged_run.overbudget_seconds, ToMb(paged_run.max_rss_delta),
               static_cast<long long>(spill_bytes),
               static_cast<long long>(spill_partitions));
  std::fclose(out);
  std::printf("wrote BENCH_oocore.json\n");

  if (!ok) return 1;
  std::printf("OK: %.1fx out-of-core mix bit-identical with bounded RSS\n",
              ratio);
  return 0;
}
