/// \file key_table_test.cc
/// \brief The engine's one hash table (KeyTable) and the join table built on
/// it: exact verification under hash collisions, dense ids that survive
/// growth, CSR build rows in row order, the NULL and cross-type key rules
/// shared by join and group-by, string and blob keys, morsel-parallel probe
/// order, and the grace join over per-partition tables.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "accel/thread_pool.h"
#include "common/logging.h"
#include "common/mem_tracker.h"
#include "db/database.h"
#include "db/exec/hash_join.h"
#include "db/exec/key_table.h"
#include "db/exec/vector_kernels.h"
#include "db/storage/storage_engine.h"

namespace dl2sql::db {
namespace {

ColumnHandle Handle(Column c) {
  return std::make_shared<const Column>(std::move(c));
}

Column IntsWithNulls(const std::vector<int64_t>& vals,
                     const std::vector<uint8_t>& valid) {
  Column c = Column::Ints(vals);
  c.SetValidity(valid);
  return c;
}

/// Inserts row `row` of `cols` under its canonical hash.
uint32_t Insert(KeyTable* t, const std::vector<const Column*>& cols,
                int64_t row, const std::vector<const Column*>& stored,
                const std::vector<int64_t>& stored_rows, bool* inserted) {
  return t->FindOrInsert(
      vec::HashKeyRow(cols, row),
      [&](uint32_t id) {
        return vec::CanonicalKeyRowsEqual(cols, row, stored, stored_rows[id]);
      },
      inserted);
}

/// Serial probe of `probe` against a flat table built over `build`.
HashJoinTable::Pairs ProbeAll(const Column& build, const Column& probe,
                              EvalContext* ctx) {
  auto table = HashJoinTable::Build({Handle(build)}, ctx);
  DL2SQL_CHECK(table.ok()) << table.status().ToString();
  HashJoinTable::Pairs pairs;
  DL2SQL_CHECK((*table)->Probe({Handle(probe)}, ctx, 1 << 30, &pairs).ok());
  return pairs;
}

TEST(KeyTableTest, CollidingHashesAreSeparatedByExactVerification) {
  const Column keys = Column::Ints({10, 20, 30, 40, 50});
  KeyTable t;
  // Every key passed in under the same hash: only equality tells them apart.
  constexpr uint64_t kHash = 0x1234567800000042ull;
  for (int64_t r = 0; r < keys.size(); ++r) {
    bool inserted = false;
    const uint32_t id = t.FindOrInsert(
        kHash, [&](uint32_t k) { return keys.ints()[k] == keys.ints()[r]; },
        &inserted);
    EXPECT_TRUE(inserted);
    EXPECT_EQ(id, static_cast<uint32_t>(r));
  }
  EXPECT_EQ(t.size(), 5);
  for (int64_t r = 0; r < keys.size(); ++r) {
    const auto same = [&](uint32_t k) {
      return keys.ints()[k] == keys.ints()[r];
    };
    EXPECT_EQ(t.Find(kHash, same), static_cast<uint32_t>(r));
  }
  EXPECT_EQ(t.Find(kHash, [](uint32_t) { return false; }), KeyTable::kAbsent);
  // A hash with the same position bits but another tag never reaches the
  // equality test.
  EXPECT_EQ(t.Find(kHash ^ (1ull << 40), [](uint32_t) { return true; }),
            KeyTable::kAbsent);
}

TEST(KeyTableTest, IdsAreDenseInFirstInsertionOrderAndSurviveGrowth) {
  std::vector<int64_t> vals;
  for (int64_t i = 0; i < 20000; ++i) vals.push_back((i * 7919) % 5000);
  const Column keys = Column::Ints(vals);
  const std::vector<const Column*> cols = {&keys};
  KeyTable t;
  std::vector<int64_t> first_row;
  std::vector<uint32_t> id_of(vals.size());
  for (int64_t r = 0; r < keys.size(); ++r) {
    bool inserted = false;
    id_of[static_cast<size_t>(r)] =
        Insert(&t, cols, r, cols, first_row, &inserted);
    if (inserted) {
      EXPECT_EQ(id_of[static_cast<size_t>(r)], first_row.size());
      first_row.push_back(r);
    }
  }
  ASSERT_EQ(t.size(), 5000);
  // After every growth step, each row still finds the id it got first.
  for (int64_t r = 0; r < keys.size(); ++r) {
    const uint32_t id = t.Find(vec::HashKeyRow(cols, r), [&](uint32_t k) {
      return vec::CanonicalKeyRowsEqual(cols, r, cols, first_row[k]);
    });
    EXPECT_EQ(id, id_of[static_cast<size_t>(r)]);
    EXPECT_EQ(vals[static_cast<size_t>(first_row[id])],
              vals[static_cast<size_t>(r)]);
  }
}

TEST(KeyTableTest, BuildRowsAreAscendingWithinAKey) {
  EvalContext ctx;
  const Column build = Column::Ints({7, 3, 7, 9, 3, 7, 1});
  const Column probe = Column::Ints({7, 2, 3, 7});
  const HashJoinTable::Pairs want = {{0, 0}, {0, 2}, {0, 5}, {2, 1},
                                     {2, 4}, {3, 0}, {3, 2}, {3, 5}};
  EXPECT_EQ(ProbeAll(build, probe, &ctx), want);
}

TEST(KeyTableTest, NullKeysNeverJoinButGroupTogether) {
  EvalContext ctx;
  const Column build = IntsWithNulls({1, 0, 2, 0}, {1, 0, 1, 0});
  const Column probe = IntsWithNulls({0, 2, 0}, {0, 1, 0});
  const HashJoinTable::Pairs want = {{1, 2}};
  EXPECT_EQ(ProbeAll(build, probe, &ctx), want);

  for (bool vectorized : {true, false}) {
    Database db;
    db.set_vectorized(vectorized);
    ASSERT_TRUE(db.Execute("CREATE TABLE t (k INT, v INT)").ok());
    ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (1, 1), (NULL, 2), (1, 3), "
                           "(NULL, 4), (2, 5)")
                    .ok());
    auto grouped = db.Execute("SELECT k, count(*) AS n FROM t GROUP BY k");
    ASSERT_TRUE(grouped.ok()) << grouped.status().ToString();
    ASSERT_EQ(grouped->num_rows(), 3);
    EXPECT_TRUE(grouped->column(0).GetValue(1).is_null());
    EXPECT_EQ(grouped->column(1).GetValue(1).int_value(), 2);
    auto joined = db.Execute(
        "SELECT a.v, b.v FROM t a INNER JOIN t b ON a.k = b.k");
    ASSERT_TRUE(joined.ok()) << joined.status().ToString();
    EXPECT_EQ(joined->num_rows(), 5);  // 2 x 2 for key 1, 1 for key 2
  }
}

TEST(KeyTableTest, IntegralFloatKeysMatchIntKeys) {
  EvalContext ctx;
  ctx.vectorized = true;
  const Column ints = Column::Ints({3, 4, 5});
  const Column floats = Column::Floats({3.0, 4.5, 5.0});
  const HashJoinTable::Pairs want = {{0, 0}, {2, 2}};
  EXPECT_EQ(ProbeAll(ints, floats, &ctx), want);

  // Grouping: Int(3) and Float(3.0) take one id, Float(4.5) its own.
  const std::vector<const Column*> icols = {&ints};
  const std::vector<const Column*> fcols = {&floats};
  KeyTable t;
  bool inserted = false;
  const std::vector<int64_t> first = {0};
  EXPECT_EQ(Insert(&t, icols, 0, icols, {}, &inserted), 0u);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(Insert(&t, fcols, 0, icols, first, &inserted), 0u);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(Insert(&t, fcols, 1, icols, first, &inserted), 1u);
  EXPECT_TRUE(inserted);

  // KeyEq's raw INT64 compare only serves INT64 on both sides.
  const KeyEq eq(fcols, icols, /*null_free=*/true);
  EXPECT_TRUE(eq(0, 0));
  EXPECT_FALSE(eq(1, 1));
}

TEST(KeyTableTest, StringAndBlobKeys) {
  EvalContext ctx;
  const Column build = Column::Strings({"b", "a", "b", ""});
  const Column probe = Column::Strings({"a", "b", "", "c"});
  const HashJoinTable::Pairs want = {{0, 1}, {1, 0}, {1, 2}, {2, 3}};
  EXPECT_EQ(ProbeAll(build, probe, &ctx), want);
  const Column bblob = Column::Blobs({std::string("\x00\x01", 2), "x"});
  const Column pblob = Column::Blobs({"x", std::string("\x00\x01", 2),
                                      std::string("\x00\x02", 2)});
  const HashJoinTable::Pairs bwant = {{0, 1}, {1, 0}};
  EXPECT_EQ(ProbeAll(bblob, pblob, &ctx), bwant);

  for (bool vectorized : {true, false}) {
    Database db;
    db.set_vectorized(vectorized);
    Table t{TableSchema(
        {{"name", DataType::kString}, {"v", DataType::kInt64}})};
    for (const auto& [name, v] : std::vector<std::pair<std::string, int64_t>>{
             {"x", 1}, {"y", 2}, {"x", 3}, {"z", 4}}) {
      ASSERT_TRUE(t.AppendRow({Value::String(name), Value::Int(v)}).ok());
    }
    ASSERT_TRUE(db.RegisterTable("s", std::move(t)).ok());
    auto grouped =
        db.Execute("SELECT name, count(*) AS n FROM s GROUP BY name");
    ASSERT_TRUE(grouped.ok()) << grouped.status().ToString();
    ASSERT_EQ(grouped->num_rows(), 3);
    const std::vector<std::pair<std::string, int64_t>> want_groups = {
        {"x", 2}, {"y", 1}, {"z", 1}};
    for (int64_t g = 0; g < 3; ++g) {
      const auto& [name, n] = want_groups[static_cast<size_t>(g)];
      EXPECT_EQ(grouped->column(0).GetValue(g).string_value(), name);
      EXPECT_EQ(grouped->column(1).GetValue(g).int_value(), n);
    }
  }
}

TEST(KeyTableTest, FourThreadProbeEqualsSerialProbe) {
  std::vector<int64_t> bvals, pvals;
  for (int64_t i = 0; i < 3000; ++i) bvals.push_back((i * 31) % 997);
  for (int64_t i = 0; i < 20000; ++i) pvals.push_back((i * 7919) % 1200);
  const Column build = Column::Ints(bvals);
  const Column probe = Column::Ints(pvals);
  EvalContext serial;
  serial.morsel_size = 256;
  ThreadPool pool(4);
  EvalContext parallel = serial;
  parallel.pool = &pool;
  const HashJoinTable::Pairs want = ProbeAll(build, probe, &serial);
  const HashJoinTable::Pairs got = ProbeAll(build, probe, &parallel);
  ASSERT_GT(want.size(), 20000u);
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        want.size() * sizeof(want[0])),
            0);
}

TEST(KeyTableTest, GraceJoinWithOneRowPerPartitionMatchesInMemory) {
  struct TrackingOn {
    const bool prior = MemTracker::Enabled();
    TrackingOn() { MemTracker::SetEnabled(true); }
    ~TrackingOn() { MemTracker::SetEnabled(prior); }
  } tracking;
  if (!MemTracker::Enabled()) {
    GTEST_SKIP() << "resource accounting compiled out";
  }
  // 64 rows of 32 KB a side (~2 MB) do not fit the 1 MB budget, so the
  // join takes the grace path; 256 spill partitions leave at most one key
  // (and mostly one row) per partition table.
  const auto fill = [](Database* db) {
    for (const char* name : {"l", "r"}) {
      Table t{TableSchema({{"id", DataType::kInt64},
                           {"k", DataType::kInt64},
                           {"p", DataType::kString}})};
      for (int64_t i = 0; i < 64; ++i) {
        DL2SQL_CHECK(t.AppendRow({Value::Int(i), Value::Int((i * 5) % 48),
                                  Value::String(std::string(32 << 10, 'p'))})
                         .ok());
      }
      DL2SQL_CHECK(db->RegisterTable(name, std::move(t)).ok());
    }
  };
  const char* const sql =
      "SELECT l.id, r.id, r.p FROM l INNER JOIN r ON l.k = r.k";
  Database ref;
  ASSERT_TRUE(ref.set_storage_mode(StorageMode::kInMemory).ok());
  fill(&ref);
  auto want = ref.Execute(sql);
  ASSERT_TRUE(want.ok()) << want.status().ToString();

  Database db;
  storage::StorageOptions opts;
  opts.pool_bytes = 1u << 20;
  opts.page_min_bytes = 4096;
  opts.spill_partitions = 256;
  ASSERT_TRUE(db.set_storage_mode(StorageMode::kPaged, opts).ok());
  fill(&db);
  db.set_query_mem_limit(1 << 20);
  auto got = db.Execute(sql);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->num_rows(), want->num_rows());
  EXPECT_EQ(got->ToString(got->num_rows()), want->ToString(want->num_rows()));
  auto spills = db.Execute(
      "SELECT spill_partitions FROM system.query_profiles WHERE sql = '" +
      std::string(sql) + "'");
  ASSERT_TRUE(spills.ok()) << spills.status().ToString();
  ASSERT_EQ(spills->num_rows(), 1);
  // Each side spills one run per non-empty partition, and the 48 distinct
  // keys land in 48 distinct partitions.
  EXPECT_EQ(spills->column(0).GetValue(0).int_value(), 2 * 48);
}

}  // namespace
}  // namespace dl2sql::db
