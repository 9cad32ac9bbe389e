/// \file oocore.cc
/// \brief oocore_spill: the join / group-by / aggregate / filter mix over a
/// fact table about 12x the buffer-pool budget, in paged storage, under a
/// query memory limit that forces the grace-join and external-aggregation
/// spill paths. Every pass's results must be bit-identical to an in-memory
/// database over the same data.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/cache.h"
#include "common/mem_tracker.h"
#include "db/database.h"
#include "db/exec/row_key.h"
#include "db/storage/paged_table.h"
#include "db/storage/storage_engine.h"
#include "perfbench/common.h"

namespace perfbench {
namespace {

using dl2sql::Status;
using dl2sql::db::DataType;
using dl2sql::db::Database;
using dl2sql::db::Table;
using dl2sql::db::TableSchema;
using dl2sql::db::Value;

constexpr int64_t kFactRows = 160000;
constexpr int64_t kDimRows = 96;
constexpr int64_t kSliceRows = 8192;  // load granularity of the paged table
constexpr size_t kPoolBytes = 1u << 20;
constexpr int64_t kQueryMemLimit = 4 << 20;
constexpr int kSetups = 5;
/// Reference-kernel runs before each pass of the mix.
constexpr int kSpeedBurst = 2;

/// Join, grouped aggregation, global aggregation, filter + project. The join
/// has no single-side filter, so the whole fact table reaches it and spills.
const char* const kMix[] = {
    "SELECT F.id, F.grp, D.w FROM fact F INNER JOIN dim D ON F.grp = D.id",
    "SELECT grp, count(*) AS c, sum(val) AS s, avg(val) AS a, "
    "min(val) AS lo, max(val) AS hi FROM fact GROUP BY grp",
    "SELECT count(*) AS c, sum(val) AS s FROM fact",
    "SELECT id * 2 AS d, val + 1.0 AS v FROM fact WHERE grp < 7",
};
constexpr int kMixSize = 4;

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

TableSchema FactSchema() {
  return TableSchema({{"id", DataType::kInt64},
                      {"grp", DataType::kInt64},
                      {"val", DataType::kFloat64},
                      {"payload", DataType::kString}});
}

/// Fact row i of the seed's dataset; the same function feeds the paged and
/// the in-memory database.
std::vector<Value> FactRow(uint64_t seed, int64_t i) {
  const uint64_t h = Mix64(seed * 0x100000001b3ull + static_cast<uint64_t>(i));
  return {Value::Int(i), Value::Int(static_cast<int64_t>(h % kDimRows)),
          Value::Float(static_cast<double>((h >> 16) % 100000) / 7.0),
          Value::String(std::string(48, static_cast<char>('a' + h % 26)))};
}

Status LoadDim(Database* db) {
  Table dim{TableSchema({{"id", DataType::kInt64}, {"w", DataType::kInt64}})};
  for (int64_t i = 0; i < kDimRows; ++i) {
    DL2SQL_RETURN_NOT_OK(dim.AppendRow({Value::Int(i), Value::Int(i * i)}));
  }
  return db->RegisterTable("dim", std::move(dim));
}

/// Streams the fact table into paged storage slice by slice, so the whole
/// table is never resident. Returns its logical byte size.
dl2sql::Result<int64_t> LoadPaged(Database* db, uint64_t seed) {
  dl2sql::db::storage::PagedTableBuilder builder(db->storage_engine(),
                                                 FactSchema());
  int64_t bytes = 0;
  for (int64_t base = 0; base < kFactRows; base += kSliceRows) {
    Table slice{FactSchema()};
    for (int64_t i = base; i < std::min(kFactRows, base + kSliceRows); ++i) {
      DL2SQL_RETURN_NOT_OK(slice.AppendRow(FactRow(seed, i)));
    }
    bytes += static_cast<int64_t>(slice.ByteSize());
    DL2SQL_RETURN_NOT_OK(builder.Append(slice));
  }
  DL2SQL_ASSIGN_OR_RETURN(auto data, builder.Finish());
  DL2SQL_RETURN_NOT_OK(db->RegisterTable(
      "fact", Table::FromPaged(FactSchema(), std::move(data))));
  DL2SQL_RETURN_NOT_OK(LoadDim(db));
  return bytes;
}

dl2sql::Result<std::unique_ptr<Database>> OpenPaged(uint64_t seed,
                                                    int64_t* bytes) {
  auto db = std::make_unique<Database>();
  dl2sql::db::storage::StorageOptions opts =
      dl2sql::db::storage::StorageOptions::FromEnv();
  opts.pool_bytes = kPoolBytes;
  opts.page_min_bytes = 64 * 1024;
  DL2SQL_RETURN_NOT_OK(
      db->set_storage_mode(dl2sql::db::StorageMode::kPaged, opts));
  DL2SQL_ASSIGN_OR_RETURN(*bytes, LoadPaged(db.get(), seed));
  db->set_query_mem_limit(kQueryMemLimit);
  return db;
}

/// Order-sensitive bit-level checksum of a result, over the executor's own
/// canonical value encoding.
uint64_t Checksum(const Table& t) {
  uint64_t h = 0xec0eca11u;
  std::string key;
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    key.clear();
    for (int c = 0; c < t.num_columns(); ++c) {
      dl2sql::db::AppendKeyPart(t.column(c), r, &key);
    }
    h = dl2sql::Hash64(key.data(), key.size(), h);
  }
  return h ^ (static_cast<uint64_t>(t.num_rows()) << 32);
}

}  // namespace

Report RunOocoreSpill(const Options& options, Tracer* tracer) {
  Report report;
  // Spilling is driven by the memory tracker; the bench needs it on.
  dl2sql::MemTracker::SetEnabled(true);

  std::vector<double> setups;
  std::unique_ptr<Database> db;
  int64_t data_bytes = 0;
  for (int s = 0; s < kSetups; ++s) {
    db.reset();
    const double t0 = NowSeconds();
    auto opened = OpenPaged(options.seed, &data_bytes);
    setups.push_back(NowSeconds() - t0);
    if (!opened.ok()) {
      report.attempted = 1;
      report.Fail("paged load: " + opened.status().ToString());
      return report;
    }
    db = std::move(opened).ValueOrDie();
  }
  report.metrics["setup_s"] = Median(setups);
  std::fprintf(stderr, "oocore_spill: fact %.1f MB against a %.1f MB pool (%.1fx)\n",
               static_cast<double>(data_bytes) / (1 << 20),
               static_cast<double>(kPoolBytes) / (1 << 20),
               static_cast<double>(data_bytes) / kPoolBytes);

  // checksums[q] of every pass, compared with the in-memory reference below.
  std::vector<std::vector<uint64_t>> checksums(kMixSize);
  uint64_t next_id = 1;

  auto measure = [&](double seconds, Tracer* tr, Report* out) {
    const auto before = dl2sql::MetricsRegistry::Global().Snapshot();
    const auto pool_before = db->storage_engine()->pool().stats();
    std::vector<OpSample> per_query[kMixSize];
    dl2sql::CostAccumulator costs;
    const double start = NowSeconds();
    int passes = 0;
    HostSpeed speed;
    while (passes == 0 || NowSeconds() - start < seconds) {
      {
        Tracer::Scope span(tr, "reference", next_id);
        speed.Sample(kSpeedBurst);
      }
      for (int q = 0; q < kMixSize; ++q) {
        const uint64_t id = next_id++;
        ++out->attempted;
        db->set_cost_accumulator(&costs);
        const double t0 = NowSeconds();
        auto result = [&] {
          Tracer::Scope span(tr, "db", id);
          return db->Execute(kMix[q]);
        }();
        per_query[q].push_back({t0, NowSeconds() - t0});
        db->set_cost_accumulator(nullptr);
        Tracer::Scope span(tr, "check", id);
        if (!result.ok()) {
          out->Fail(std::string(kMix[q]) + ": " + result.status().ToString());
          continue;
        }
        checksums[static_cast<size_t>(q)].push_back(Checksum(*result));
      }
      ++passes;
    }
    const double loop = NowSeconds() - start;
    if (tr != nullptr) tr->AddLoopSeconds(loop);
    const MetricsDelta delta(before,
                             dl2sql::MetricsRegistry::Global().Snapshot());
    const auto pool_after = db->storage_engine()->pool().stats();

    auto& m = out->metrics;
    std::vector<double> mean_s(kMixSize);
    for (int q = 0; q < kMixSize; ++q) {
      for (const OpSample& s : per_query[q]) mean_s[q] += s.secs;
      mean_s[q] /= static_cast<double>(per_query[q].size());
    }
    const double mix = mean_s[0] + mean_s[1] + mean_s[2] + mean_s[3];
    std::vector<OpClass> classes;
    for (const auto& samples : per_query) classes.push_back({samples});
    AddRelativeRows(classes, speed, out);
    m["oocore.mix_s"] = mix;
    const int64_t hits = pool_after.hits - pool_before.hits;
    const int64_t misses = pool_after.misses - pool_before.misses;
    m["storage.pool.hit_ratio"] =
        Ratio(static_cast<double>(hits), static_cast<double>(hits + misses));
    m["storage.pool.misses"] = static_cast<double>(misses) / passes;
    m["storage.pool.evictions"] =
        static_cast<double>(pool_after.evictions - pool_before.evictions) /
        passes;
    m["storage.pool.writebacks"] =
        static_cast<double>(pool_after.writebacks - pool_before.writebacks) /
        passes;
    m["db.spill.bytes_per_input_byte"] =
        Ratio(static_cast<double>(delta.Counter("db.spill.bytes")) / passes,
              static_cast<double>(data_bytes));
    m["db.spill.partitions"] =
        static_cast<double>(delta.Counter("db.spill.partitions")) / passes;
    for (const char* op : {"scan", "filter", "project", "join", "groupby"}) {
      m[std::string("db.op.") + op + "_s"] = costs.Get(op) / passes;
    }
    std::fprintf(stderr,
                 "oocore_spill: %d passes, %.4f s/pass (join %.4f, group-by "
                 "%.4f, aggregate %.4f, filter %.4f), spill %.2f B/B\n",
                 passes, mix, mean_s[0], mean_s[1], mean_s[2], mean_s[3],
                 m["db.spill.bytes_per_input_byte"]);
  };
  MeasurePhases(options, tracer, &report, measure);
  // Peak RSS of the workload, before the correctness check allocates.
  report.metrics["peak_rss_mb"] = PeakRssMb();
  db.reset();

  // Gate: every pass equals a serial in-memory database over the same data.
  Database ref;
  Status st = ref.set_storage_mode(dl2sql::db::StorageMode::kInMemory);
  Table fact{FactSchema()};
  for (int64_t i = 0; st.ok() && i < kFactRows; ++i) {
    st = fact.AppendRow(FactRow(options.seed, i));
  }
  if (st.ok()) st = ref.RegisterTable("fact", std::move(fact));
  if (st.ok()) st = LoadDim(&ref);
  for (int q = 0; q < kMixSize; ++q) {
    auto r = st.ok() ? ref.Execute(kMix[q]) : dl2sql::Result<Table>(st);
    const uint64_t want = r.ok() ? Checksum(*r) : 0;
    for (uint64_t got : checksums[static_cast<size_t>(q)]) {
      if (!r.ok() || got != want) {
        report.wrong = true;
        report.Fail(std::string("paged result differs from in-memory: ") +
                    kMix[q]);
        break;
      }
    }
  }
  return report;
}

}  // namespace perfbench
