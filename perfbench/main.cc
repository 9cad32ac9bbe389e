/// \file main.cc
/// \brief The repo benchmark's binary.
///
///   perfbench --workload <fig8_edge|fig8_server|serve_rw|oocore_spill>
///             --seed <n> --seconds <s> --trace <0|1>
///   perfbench --shapes --seed <n> --seconds <s>
///
/// --out-dir <dir> (default ".") is where a traced run writes its spans.
///
/// Prints human-readable progress on stderr and, as the last line of
/// stdout, one JSON object {"correct", "attempted", "failed", "metrics"}:
/// the end-to-end metrics with --trace 0, the per-layer metrics with
/// --trace 1. Every metric is printed on every workload; a layer a workload
/// does not exercise reads 0. --shapes prints the Fig. 8 shape report.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "perfbench/common.h"

namespace perfbench {
namespace {

struct MetricDef {
  std::string name;
  std::string unit;
};

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> kDefs = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"geomean_rel", "x"},
  };
  return kDefs;
}

std::vector<MetricDef> PerLayerMetrics() {
  std::vector<MetricDef> d;
  const char* const approaches[] = {"dl2sql", "dl2sql_op", "db_udf",
                                    "db_pytorch"};
  // The workloads' headline numbers.
  for (const char* a : approaches) d.push_back({std::string(a) + ".s_per_query", "s"});
  d.push_back({"serve.qps", "1/s"});
  d.push_back({"serve.read_p50_ms", "ms"});
  d.push_back({"serve.read_p99_ms", "ms"});
  d.push_back({"serve.write_p50_ms", "ms"});
  d.push_back({"serve.write_p95_ms", "ms"});
  d.push_back({"oocore.mix_s", "s"});
  // geomean_rel's two factors: raw typical wall time and host speed.
  d.push_back({"geomean_ms", "ms"});
  d.push_back({"reference_ms", "ms"});
  // engines: the program's modeled QueryCost split (Fig. 8 buckets).
  for (const char* a : approaches) {
    for (const char* b : {"load", "infer", "rel"}) {
      d.push_back({"engines." + std::string(a) + "." + b + "_s", "s"});
    }
  }
  // dl2sql: pipeline split, Fig. 10 clauses and Fig. 9 op kinds.
  for (const char* a : {"dl2sql", "dl2sql_op"}) {
    const std::string p = "dl2sql." + std::string(a) + ".";
    d.push_back({p + "pipeline_load_s", "s"});
    d.push_back({p + "pipeline_infer_s", "s"});
    for (const char* c : {"scan", "join", "groupby", "project", "filter", "sort"}) {
      d.push_back({p + "clause." + c + "_s", "s"});
    }
    for (const char* k :
         {"conv2d", "batchnorm", "relu", "maxpool", "linear", "other"}) {
      d.push_back({p + "op." + k + "_s", "s"});
    }
  }
  d.push_back({"nudf.invocations", "count/op"});
  d.push_back({"nudf.rows_per_batch", "count"});
  d.push_back({"pool.busy_share", "share"});
  d.push_back({"pool.queue_wait_ms", "ms/op"});
  d.push_back({"server.admission_wait_ms", "ms"});
  d.push_back({"server.admission_wait_p99_ms", "ms"});
  d.push_back({"server.lock_wait_ms", "ms"});
  d.push_back({"server.exec_ms", "ms"});
  d.push_back({"server.coalesce_wait_ms", "ms"});
  d.push_back({"server.coalesce.rows_per_batch", "count"});
  d.push_back({"server.rejected", "count"});
  d.push_back({"cache.plan.hit_ratio", "share"});
  d.push_back({"cache.plan.lookups", "count"});
  d.push_back({"cache.nudf.hit_ratio", "share"});
  d.push_back({"cache.nudf.lookups", "count"});
  d.push_back({"wire.overhead_ms", "ms"});
  d.push_back({"generator.late_ms", "ms"});
  d.push_back({"storage.pool.hit_ratio", "share"});
  d.push_back({"storage.pool.misses", "count"});
  d.push_back({"storage.pool.evictions", "count"});
  d.push_back({"storage.pool.writebacks", "count"});
  d.push_back({"db.spill.bytes_per_input_byte", "share"});
  d.push_back({"db.spill.partitions", "count"});
  for (const char* k : {"scan", "filter", "project", "join", "groupby"}) {
    d.push_back({"db.op." + std::string(k) + "_s", "s"});
  }
  // Self time per layer of the benchmark's spans; they plus the
  // unattributed row sum to trace.loop_s.
  for (const char* l :
       {"workload", "reference", "schedule", "engines", "server", "db",
        "check"}) {
    d.push_back({"self." + std::string(l) + "_s", "s"});
  }
  d.push_back({"self.unattributed_s", "s"});
  d.push_back({"trace.loop_s", "s"});
  d.push_back({"trace.spans", "count"});
  d.push_back({"trace.overhead_share", "share"});
  return d;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--out-dir <dir>]\n"
               "       perfbench --shapes --seed <n> --seconds <s>\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;  // NOLINT
  Options options;
  bool shapes = false;
  std::string out_dir = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--shapes") {
      shapes = true;
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::atof(argv[++i]);
    } else if (arg == "--out-dir" && has_value) {
      out_dir = argv[++i];
    } else if (arg == "--trace" && has_value) {
      options.trace = std::strcmp(argv[++i], "0") != 0;
    } else {
      return Usage();
    }
  }
  if (options.seconds <= 0) return Usage();
  if (shapes) return RunFig8Shapes(options);

  Tracer tracer(options.trace);
  Report report;
  if (options.workload == "fig8_edge") {
    report = RunFig8(options, dl2sql::DeviceKind::kEdgeCpu, &tracer);
  } else if (options.workload == "fig8_server") {
    report = RunFig8(options, dl2sql::DeviceKind::kServerCpu, &tracer);
  } else if (options.workload == "serve_rw") {
    report = RunServeRw(options, &tracer);
  } else if (options.workload == "oocore_spill") {
    report = RunOocoreSpill(options, &tracer);
  } else {
    return Usage();
  }
  if (report.attempted < 1) report.attempted = 1;

  if (options.trace) {
    // Spans are kept in memory during the run and written out at the end.
    const std::string path = out_dir + "/trace-" + options.workload + "-" +
                             std::to_string(options.seed) + ".jsonl";
    if (!tracer.WriteJsonLines(path)) {
      std::fprintf(stderr, "note: could not write %s\n", path.c_str());
    }
  }

  const std::vector<MetricDef> defs =
      options.trace ? PerLayerMetrics() : EndToEndMetrics();
  std::string json = "{\"correct\": ";
  json += report.wrong ? "false" : "true";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < defs.size(); ++i) {
    auto it = report.metrics.find(defs[i].name);
    const double value = it == report.metrics.end() ? 0.0 : it->second;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0.0);
    if (i > 0) json += ", ";
    json += "\"" + defs[i].name + "\": {\"value\": " + buf + ", \"unit\": \"" +
            defs[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
