/// \file spill_exec_test.cc
/// \brief Bit-identity of the out-of-core executor paths against the
/// in-memory executor, across several pool/query-memory budgets: streamed
/// hash-join probes and aggregation inputs (no spill), and the grace hash
/// join and external aggregation for build sides and group states that do
/// not fit the budget.
///
/// All databases here run serially (no device pool), because the parallel
/// in-memory aggregation merges float state in worker order; the spill
/// contract is bit-identity with the SERIAL in-memory execution.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "accel/device.h"
#include "common/logging.h"
#include "db/storage/paged_table.h"
#include "common/mem_tracker.h"
#include "db/database.h"
#include "db/storage/storage_engine.h"

namespace dl2sql::db {
namespace {

constexpr int64_t kRows = 30000;
constexpr int64_t kDimRows = 96;

class ScopedTrackingEnabled {
 public:
  ScopedTrackingEnabled() : prior_(MemTracker::Enabled()) {
    MemTracker::SetEnabled(true);
  }
  ~ScopedTrackingEnabled() { MemTracker::SetEnabled(prior_); }
  bool active() const { return MemTracker::Enabled(); }

 private:
  const bool prior_;
};

#define REQUIRE_TRACKING(guard)                         \
  if (!(guard).active()) {                              \
    GTEST_SKIP() << "resource accounting compiled out"; \
  }

void FillTables(Database* db) {
  // ~2.8 MB fact table: big enough that a ~1 MB query budget refuses to
  // materialize it, small enough that the test stays fast.
  TableSchema fact_schema({{"id", DataType::kInt64},
                           {"grp", DataType::kInt64},
                           {"val", DataType::kFloat64},
                           {"payload", DataType::kString}});
  Table fact{fact_schema};
  const std::string payload(48, 'p');
  for (int64_t i = 0; i < kRows; ++i) {
    DL2SQL_CHECK(
        fact.AppendRow({Value::Int(i), Value::Int((i * 7919) % kDimRows),
                        Value::Float(static_cast<double>((i * 104729 + 13) %
                                                         100000) /
                                     7.0),
                        Value::String(payload)})
            .ok());
  }
  DL2SQL_CHECK(db->RegisterTable("fact", std::move(fact)).ok());

  TableSchema dim_schema({{"id", DataType::kInt64}, {"w", DataType::kInt64}});
  Table dim{dim_schema};
  for (int64_t i = 0; i < kDimRows; ++i) {
    DL2SQL_CHECK(dim.AppendRow({Value::Int(i), Value::Int(i * i)}).ok());
  }
  DL2SQL_CHECK(db->RegisterTable("dim", std::move(dim)).ok());
}

// The join probe side is the whole fact table (nothing pushable below the
// join): it streams window by window against the resident 96-row dim build.
const char* const kJoinSql =
    "SELECT F.id, F.grp, D.w FROM fact F INNER JOIN dim D ON F.grp = D.id";
// The residual references both sides, so it must survive as a join_condition
// applied after pair emission (window-local when the probe streams).
const char* const kJoinResidualSql =
    "SELECT F.id, D.w FROM fact F INNER JOIN dim D "
    "ON F.grp = D.id AND F.id % 7 < D.id";
const char* const kAggSql =
    "SELECT grp, count(*) AS c, sum(val) AS s, avg(val) AS a, "
    "min(val) AS lo, max(val) AS hi, stddev_samp(val) AS sd "
    "FROM fact GROUP BY grp";
const char* const kGlobalAggSql =
    "SELECT count(*) AS c, sum(val) AS s, avg(val) AS a FROM fact";
const char* const kFilterProjectSql =
    "SELECT id * 2 AS d, val + 1.0 AS v FROM fact WHERE grp < 7";
// Over-budget state: the self-join's build side is the whole fact table
// (grace join), and GROUP BY id holds one group per fact row, so its state
// outgrows the budget mid-stream and the operator restarts as external
// aggregation.
const char* const kSelfJoinSql =
    "SELECT A.id, B.grp FROM fact A INNER JOIN fact B ON A.id = B.id";
const char* const kGroupByIdSql =
    "SELECT id, count(*) AS c FROM fact GROUP BY id";

std::vector<std::string> RunAll(Database* db,
                                const std::vector<const char*>& queries) {
  std::vector<std::string> renders;
  for (const char* sql : queries) {
    auto r = db->Execute(sql);
    DL2SQL_CHECK(r.ok()) << sql << ": " << r.status().ToString();
    renders.push_back(r->ToString(r->num_rows()));
  }
  return renders;
}

/// Reference renders from a serial in-memory database.
std::vector<std::string> ReferenceRenders(
    const std::vector<const char*>& queries) {
  Database ref;
  DL2SQL_CHECK(ref.set_storage_mode(StorageMode::kInMemory).ok());
  FillTables(&ref);
  return RunAll(&ref, queries);
}

/// Largest spill_bytes recorded for `sql` in system.query_profiles.
int64_t SpillBytesFor(Database* db, const std::string& sql) {
  auto profiles = db->Execute(
      "SELECT sql, spill_bytes FROM system.query_profiles");
  DL2SQL_CHECK(profiles.ok()) << profiles.status().ToString();
  int64_t spill = -1;
  for (int64_t i = 0; i < profiles->num_rows(); ++i) {
    if (profiles->column(0).GetValue(i).string_value() != sql) continue;
    spill = std::max(spill, profiles->column(1).GetValue(i).int_value());
  }
  return spill;
}

struct PagedConfig {
  size_t pool_bytes;
  size_t block_bytes;
  int shards;
  int spill_partitions;
  int64_t query_mem_limit;
};

void ExpectBitIdentical(const PagedConfig& cfg) {
  const std::vector<const char*> queries = {
      kJoinSql,          kJoinResidualSql, kAggSql,      kGlobalAggSql,
      kFilterProjectSql, kSelfJoinSql,     kGroupByIdSql};
  const std::vector<std::string> expected = ReferenceRenders(queries);

  Database db;
  storage::StorageOptions opts;
  opts.pool_bytes = cfg.pool_bytes;
  opts.block_bytes = cfg.block_bytes;
  opts.shards = cfg.shards;
  opts.spill_partitions = cfg.spill_partitions;
  opts.page_min_bytes = 4096;  // page everything non-trivial
  ASSERT_TRUE(db.set_storage_mode(StorageMode::kPaged, opts).ok());
  FillTables(&db);
  db.set_query_mem_limit(cfg.query_mem_limit);

  for (size_t q = 0; q < queries.size(); ++q) {
    auto r = db.Execute(queries[q]);
    ASSERT_TRUE(r.ok()) << queries[q] << ": " << r.status().ToString();
    EXPECT_EQ(r->ToString(r->num_rows()), expected[q]) << queries[q];
  }

  // The fact table (~2.8 MB) does not fit the query budget, but the join
  // probes it window by window against the resident dim table and the
  // aggregations fold it window by window into small group states: none of
  // them spills.
  for (const char* sql :
       {kJoinSql, kJoinResidualSql, kAggSql, kGlobalAggSql}) {
    EXPECT_EQ(SpillBytesFor(&db, sql), 0) << sql;
  }
  // A fact-sized build side and a fact-sized group state do not fit: they
  // take the grace join and external aggregation.
  EXPECT_GT(SpillBytesFor(&db, kSelfJoinSql), 0);
  EXPECT_GT(SpillBytesFor(&db, kGroupByIdSql), 0);
}

TEST(SpillExecTest, StreamedAndSpilledOperatorsMatchInMemory) {
  ScopedTrackingEnabled guard;
  REQUIRE_TRACKING(guard);
  // Comfortable pool, a query budget below the fact table's footprint.
  ExpectBitIdentical({/*pool_bytes=*/4u << 20, /*block_bytes=*/64 * 1024,
                      /*shards=*/4, /*spill_partitions=*/4,
                      /*query_mem_limit=*/1 << 20});
}

TEST(SpillExecTest, TinyPoolForcesAllPartitionsThroughDisk) {
  ScopedTrackingEnabled guard;
  REQUIRE_TRACKING(guard);
  // Pool far below the data size (floor: shards * block_bytes = 32 KB), so
  // every spill partition round-trips through the block file; more
  // partitions than the pool can hold frames for.
  ExpectBitIdentical({/*pool_bytes=*/64 * 1024, /*block_bytes=*/16 * 1024,
                      /*shards=*/2, /*spill_partitions=*/8,
                      /*query_mem_limit=*/1 << 20});
}

TEST(SpillExecTest, LargerBudgetStillSpillsIdentically) {
  ScopedTrackingEnabled guard;
  REQUIRE_TRACKING(guard);
  ExpectBitIdentical({/*pool_bytes=*/1u << 20, /*block_bytes=*/32 * 1024,
                      /*shards=*/4, /*spill_partitions=*/16,
                      /*query_mem_limit=*/2 << 20});
}

TEST(SpillExecTest, PagedModeWithoutPressureIsStillBitIdentical) {
  // No query memory limit: paged inputs are admitted (materialized) rather
  // than spilled, which must also reproduce the in-memory results exactly.
  const std::vector<const char*> queries = {kJoinSql, kAggSql,
                                            kFilterProjectSql};
  const std::vector<std::string> expected = ReferenceRenders(queries);
  Database db;
  storage::StorageOptions opts;
  opts.pool_bytes = 2u << 20;
  opts.page_min_bytes = 4096;
  ASSERT_TRUE(db.set_storage_mode(StorageMode::kPaged, opts).ok());
  FillTables(&db);
  const std::vector<std::string> got = RunAll(&db, queries);
  for (size_t q = 0; q < queries.size(); ++q) {
    EXPECT_EQ(got[q], expected[q]) << queries[q];
  }
}

/// Paged database over FillTables' data: everything non-trivial is paged,
/// with a query budget below the fact table's footprint.
void OpenPaged(Database* db) {
  storage::StorageOptions opts;
  opts.pool_bytes = 1u << 20;
  opts.page_min_bytes = 4096;
  DL2SQL_CHECK(db->set_storage_mode(StorageMode::kPaged, opts).ok());
  FillTables(db);
  db->set_query_mem_limit(1 << 20);
}

const PlanNode* FindJoin(const PlanNode& node) {
  if (node.kind == PlanKind::kJoin) return &node;
  for (const auto& c : node.children) {
    if (const PlanNode* j = FindJoin(*c)) return j;
  }
  return nullptr;
}

TEST(SpillExecTest, BuildOnLeftStreamsTheRightHandProbeInOrder) {
  ScopedTrackingEnabled guard;
  REQUIRE_TRACKING(guard);
  // dim is the smaller, left input, so the optimizer builds on the left and
  // the output follows the paged right-hand fact table's row order.
  const char* const sql =
      "SELECT D.w, F.id, F.val FROM dim D INNER JOIN fact F "
      "ON D.id = F.grp AND F.id % 5 <> 2";
  const std::vector<std::string> expected = ReferenceRenders({sql});
  Database db;
  OpenPaged(&db);
  auto r = db.Execute(sql);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->ToString(r->num_rows()), expected[0]);
  const PlanNode* join = FindJoin(*db.last_plan());
  ASSERT_NE(join, nullptr);
  EXPECT_TRUE(join->join_build_left);
  EXPECT_EQ(SpillBytesFor(&db, sql), 0);
}

TEST(SpillExecTest, EmptyPagedInputAggregates) {
  ScopedTrackingEnabled guard;
  REQUIRE_TRACKING(guard);
  const TableSchema schema({{"grp", DataType::kInt64},
                            {"val", DataType::kFloat64}});
  Database db;
  OpenPaged(&db);
  storage::PagedTableBuilder builder(db.storage_engine(), schema);
  auto data = builder.Finish();
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  ASSERT_TRUE(
      db.RegisterTable("empty", Table::FromPaged(schema, std::move(*data)))
          .ok());

  auto global = db.Execute(
      "SELECT count(*) AS c, sum(val) AS s, min(val) AS lo FROM empty");
  ASSERT_TRUE(global.ok()) << global.status().ToString();
  ASSERT_EQ(global->num_rows(), 1);
  EXPECT_EQ(global->column(0).GetValue(0).int_value(), 0);
  EXPECT_TRUE(global->column(1).GetValue(0).is_null());
  EXPECT_TRUE(global->column(2).GetValue(0).is_null());

  auto grouped =
      db.Execute("SELECT grp, count(*) AS c FROM empty GROUP BY grp");
  ASSERT_TRUE(grouped.ok()) << grouped.status().ToString();
  EXPECT_EQ(grouped->num_rows(), 0);
  EXPECT_EQ(grouped->num_columns(), 2);
}

TEST(SpillExecTest, PagedBuildSideThatFitsIsMaterializedAndProbed) {
  ScopedTrackingEnabled guard;
  REQUIRE_TRACKING(guard);
  // A 3000-row build side (~48 KB) is paged at page_min_bytes = 4096 but
  // fits the 1 MB budget: it is materialized, then probed by the streamed
  // fact windows without spilling.
  auto add_mid = [](Database* db) {
    Table mid{TableSchema({{"id", DataType::kInt64}, {"w", DataType::kInt64}})};
    for (int64_t i = 0; i < 3000; ++i) {
      DL2SQL_CHECK(mid.AppendRow({Value::Int(i * 10), Value::Int(i)}).ok());
    }
    DL2SQL_CHECK(db->RegisterTable("mid", std::move(mid)).ok());
  };
  const char* const sql =
      "SELECT F.id, M.w FROM fact F INNER JOIN mid M ON F.id = M.id";
  Database ref;
  ASSERT_TRUE(ref.set_storage_mode(StorageMode::kInMemory).ok());
  FillTables(&ref);
  add_mid(&ref);
  auto want = ref.Execute(sql);
  ASSERT_TRUE(want.ok()) << want.status().ToString();

  Database db;
  OpenPaged(&db);
  add_mid(&db);
  auto mid = db.catalog().GetTable("mid");
  ASSERT_TRUE(mid.ok());
  ASSERT_TRUE((*mid)->is_paged());
  auto got = db.Execute(sql);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->num_rows(), 3000);
  EXPECT_EQ(got->ToString(got->num_rows()), want->ToString(want->num_rows()));
  EXPECT_EQ(SpillBytesFor(&db, sql), 0);
}

/// Renders `sql` on a serial in-memory database and on OpenPaged's paged one,
/// both holding FillTables' data plus whatever `add` registers.
void ExpectPagedMatchesInMemory(void (*add)(Database*), const char* sql,
                                Database* db) {
  Database ref;
  ASSERT_TRUE(ref.set_storage_mode(StorageMode::kInMemory).ok());
  FillTables(&ref);
  add(&ref);
  auto want = ref.Execute(sql);
  ASSERT_TRUE(want.ok()) << want.status().ToString();

  OpenPaged(db);
  add(db);
  auto got = db->Execute(sql);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->num_rows(), want->num_rows());
  EXPECT_EQ(got->ToString(got->num_rows()), want->ToString(want->num_rows()));
}

TEST(SpillExecTest, BuildSideWhoseHashTableDoesNotFitTakesTheGraceJoin) {
  ScopedTrackingEnabled guard;
  REQUIRE_TRACKING(guard);
  // 20000 rows of two int64s (~320 KB) fit the 1 MB budget by input bytes,
  // but the hash table over 20000 unique keys is estimated at ~1.1 MB: the
  // build charge is refused before anything is emitted and the join hands
  // over to the grace join.
  const auto add_big = [](Database* db) {
    Table big{TableSchema({{"id", DataType::kInt64}, {"w", DataType::kInt64}})};
    for (int64_t i = 0; i < 20000; ++i) {
      DL2SQL_CHECK(big.AppendRow({Value::Int(i), Value::Int(i % 13)}).ok());
    }
    DL2SQL_CHECK(db->RegisterTable("big", std::move(big)).ok());
  };
  const char* const sql =
      "SELECT F.id, B.w FROM fact F INNER JOIN big B ON F.id = B.id";
  Database db;
  ExpectPagedMatchesInMemory(add_big, sql, &db);
  const PlanNode* join = FindJoin(*db.last_plan());
  ASSERT_NE(join, nullptr);
  EXPECT_FALSE(join->join_build_left);  // builds on big
  EXPECT_GT(SpillBytesFor(&db, sql), 0);
}

TEST(SpillExecTest, LongStringGroupKeysSpillWhenTheirPayloadOverflows) {
  ScopedTrackingEnabled guard;
  REQUIRE_TRACKING(guard);
  // 4000 distinct ~400-byte keys: the group state holds ~1.6 MB of key
  // payload, over the 1 MB budget, so the paged GROUP BY falls back to
  // external aggregation mid-stream.
  const auto add_words = [](Database* db) {
    Table words{TableSchema({{"s", DataType::kString},
                             {"v", DataType::kInt64}})};
    for (int64_t i = 0; i < 5000; ++i) {
      const int64_t k = (i * 7919) % 4000;
      DL2SQL_CHECK(
          words
              .AppendRow({Value::String(std::string(400, 'a' + k % 26) +
                                        std::to_string(k)),
                          Value::Int(i)})
              .ok());
    }
    DL2SQL_CHECK(db->RegisterTable("words", std::move(words)).ok());
  };
  const char* const sql =
      "SELECT s, count(*) AS c, sum(v) AS t FROM words GROUP BY s";
  Database db;
  ExpectPagedMatchesInMemory(add_words, sql, &db);
  EXPECT_GT(SpillBytesFor(&db, sql), 0);
}

TEST(SpillExecTest, LaterWindowsWithNullsSwitchAccumulatorsMidStream) {
  // The first chunks hold no NULLs, so key verification starts on raw
  // INT64 compares and the aggregates on the typed kernels. Later chunks
  // bring NULL keys and NULL arguments: the same key table carries on with
  // canonical verification (a NULL key is one more group), and the kernel
  // states convert to the boxed row form mid-stream. Results must equal
  // whole-table aggregation either way.
  const TableSchema schema({{"grp", DataType::kInt64},
                            {"ival", DataType::kInt64},
                            {"val", DataType::kFloat64}});
  auto fill = [&](Database* db) {
    Table t{schema};
    for (int64_t i = 0; i < 20000; ++i) {
      const bool late = i >= 12000;
      const Value val =
          Value::Float(static_cast<double>((i * 7919) % 1000) / 3.0);
      DL2SQL_CHECK(
          t.AppendRow({late && i % 11 == 0 ? Value::Null() : Value::Int(i % 37),
                       late && i % 13 == 0 ? Value::Null()
                                           : Value::Int(i % 101 - 50),
                       late && i % 7 == 0 ? Value::Null() : val})
              .ok());
    }
    DL2SQL_CHECK(db->RegisterTable("nulls", std::move(t)).ok());
  };
  const std::vector<const char*> queries = {
      "SELECT grp, count(*) AS n, count(val) AS c, sum(val) AS s, "
      "avg(val) AS a, min(val) AS lo, max(ival) AS hi, "
      "stddev_samp(ival) AS sd FROM nulls GROUP BY grp",
      "SELECT count(val) AS c, sum(val) AS s, min(ival) AS lo FROM nulls"};
  for (bool vectorized : {true, false}) {
    Database ref;
    ASSERT_TRUE(ref.set_storage_mode(StorageMode::kInMemory).ok());
    ref.set_vectorized(vectorized);
    fill(&ref);
    Database db;
    storage::StorageOptions opts;
    opts.pool_bytes = 1u << 20;
    opts.page_min_bytes = 4096;
    ASSERT_TRUE(db.set_storage_mode(StorageMode::kPaged, opts).ok());
    db.set_vectorized(vectorized);
    fill(&db);
    auto paged = db.catalog().GetTable("nulls");
    ASSERT_TRUE(paged.ok());
    ASSERT_TRUE((*paged)->is_paged());
    for (const char* sql : queries) {
      auto want = ref.Execute(sql);
      auto got = db.Execute(sql);
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(got->ToString(got->num_rows()),
                want->ToString(want->num_rows()))
          << sql << " vectorized=" << vectorized;
    }
  }
}

TEST(SpillExecTest, ParallelStreamedWindowsKeepSerialOrder) {
  ScopedTrackingEnabled guard;
  REQUIRE_TRACKING(guard);
  // Morsel-parallel probes and worker-local group states, window after
  // window: pair order and first-seen group order must stay serial. The
  // aggregates are exact in any fold order (counts, min/max), so values
  // match too.
  const std::vector<const char*> queries = {
      kJoinSql,
      // New groups in every morsel of the first windows, met again later.
      "SELECT id % 3000 AS k, count(*) AS c, min(val) AS lo FROM fact "
      "GROUP BY id % 3000",
      "SELECT grp, count(*) AS c, min(val) AS lo FROM fact GROUP BY grp"};
  const std::vector<std::string> expected = ReferenceRenders(queries);
  DeviceProfile profile = Device::ServerCpuProfile();
  profile.num_threads = 4;
  Device device(profile);
  Database db;
  OpenPaged(&db);
  db.set_exec_options({&device, /*morsel_size=*/64});
  for (size_t q = 0; q < queries.size(); ++q) {
    auto r = db.Execute(queries[q]);
    ASSERT_TRUE(r.ok()) << queries[q] << ": " << r.status().ToString();
    EXPECT_EQ(r->ToString(r->num_rows()), expected[q]) << queries[q];
    EXPECT_EQ(SpillBytesFor(&db, queries[q]), 0) << queries[q];
  }
}

TEST(SpillExecTest, OrderByOverBudgetReportsMissingSpillSort) {
  ScopedTrackingEnabled guard;
  REQUIRE_TRACKING(guard);
  Database db;
  storage::StorageOptions opts;
  opts.pool_bytes = 2u << 20;
  opts.page_min_bytes = 4096;
  ASSERT_TRUE(db.set_storage_mode(StorageMode::kPaged, opts).ok());
  FillTables(&db);
  db.set_query_mem_limit(1 << 20);
  auto r = db.Execute("SELECT id, payload FROM fact ORDER BY id DESC");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
      << r.status().ToString();
  EXPECT_NE(r.status().ToString().find("spillable sort"), std::string::npos)
      << r.status().ToString();
}

TEST(SpillExecTest, CrossJoinResidualFiltersSliceBySliceUnderBudget) {
  ScopedTrackingEnabled guard;
  REQUIRE_TRACKING(guard);
  // 3000 x 3000 = 9M pairs, ~144 MB as (left, right) row-id pairs, of which
  // the non-equi residual keeps 8. Gathered and filtered in bounded slices,
  // the join fits an 8 MB budget and matches the unlimited result.
  const auto fill = [](Database* db) {
    Table a{TableSchema({{"x", DataType::kInt64}})};
    Table b{TableSchema({{"y", DataType::kInt64}})};
    for (int64_t i = 0; i < 3000; ++i) {
      DL2SQL_CHECK(a.AppendRow({Value::Int(i)}).ok());
      DL2SQL_CHECK(b.AppendRow({Value::Int(i)}).ok());
    }
    DL2SQL_CHECK(db->RegisterTable("a", std::move(a)).ok());
    DL2SQL_CHECK(db->RegisterTable("b", std::move(b)).ok());
  };
  const char* const sql = "SELECT a.x, b.y FROM a, b WHERE a.x + b.y = 7";
  Database ref;
  fill(&ref);
  auto want = ref.Execute(sql);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  EXPECT_EQ(want->num_rows(), 8);

  Database db;
  fill(&db);
  db.set_query_mem_limit(8 << 20);
  auto got = db.Execute(sql);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->ToString(got->num_rows()), want->ToString(want->num_rows()));
  const PlanNode* join = FindJoin(*db.last_plan());
  ASSERT_NE(join, nullptr);
  EXPECT_TRUE(join->equi_keys.empty());
}

TEST(SpillExecTest, DmlHealsAndRepagesTables) {
  Database db;
  storage::StorageOptions opts;
  opts.pool_bytes = 2u << 20;
  opts.page_min_bytes = 4096;
  ASSERT_TRUE(db.set_storage_mode(StorageMode::kPaged, opts).ok());
  FillTables(&db);
  ASSERT_TRUE(
      db.Execute("UPDATE fact SET val = val + 1.0 WHERE id % 2 = 0").ok());
  ASSERT_TRUE(db.Execute("DELETE FROM fact WHERE id % 3 = 0").ok());
  ASSERT_TRUE(
      db.Execute("INSERT INTO fact VALUES (1000000, 5, 2.5, 'x')").ok());
  auto count = db.Execute("SELECT count(*) AS c FROM fact");
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  // 30000 rows minus the 10000 multiples of 3, plus the inserted row.
  EXPECT_EQ(count->column(0).GetValue(0).int_value(), kRows - kRows / 3 + 1);

  // The same DML against an in-memory database yields the same table.
  Database ref;
  DL2SQL_CHECK(ref.set_storage_mode(StorageMode::kInMemory).ok());
  FillTables(&ref);
  ASSERT_TRUE(
      ref.Execute("UPDATE fact SET val = val + 1.0 WHERE id % 2 = 0").ok());
  ASSERT_TRUE(ref.Execute("DELETE FROM fact WHERE id % 3 = 0").ok());
  ASSERT_TRUE(
      ref.Execute("INSERT INTO fact VALUES (1000000, 5, 2.5, 'x')").ok());
  const char* const all = "SELECT * FROM fact WHERE id % 11 = 0";
  auto got = db.Execute(all);
  auto want = ref.Execute(all);
  ASSERT_TRUE(got.ok() && want.ok());
  EXPECT_EQ(got->ToString(got->num_rows()), want->ToString(want->num_rows()));
}

}  // namespace
}  // namespace dl2sql::db
