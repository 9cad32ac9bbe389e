/// \file serve.cc
/// \brief serve_rw: an in-process TcpServer + QueryService with shipped
/// defaults (coalescer on, admission limit 4, plan and nUDF caches on)
/// serving a frames table with the demo student nUDF to 4 client
/// connections speaking the line protocol.
///
/// Phase 1 is a closed loop (each connection sends its next request when the
/// previous one is answered) that measures capacity. Phase 2 is an open loop
/// at kOpenLoopRate requests/s, sent on a fixed schedule over the same 4
/// connections; each request is timed from when it was due. Both phases mix
/// ~90% reads over skewed id-range buckets with ~10% INSERTs into a table no
/// read touches.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "examples/demo_model.h"
#include "perfbench/common.h"
#include "server/session.h"
#include "server/tcp_server.h"
#include "server/wire.h"

namespace perfbench {
namespace {

using dl2sql::Status;
template <typename T>
using Result = dl2sql::Result<T>;

constexpr int kClients = 4;
/// kTables frames tables of kTableRows rows: a universe of rows several
/// times larger than a run touches, so the nUDF cache keeps missing on the
/// cold tail while the hot buckets hit.
constexpr int kTables = 8;
constexpr int64_t kTableRows = 65536;
constexpr int64_t kBucketRows = 64;
constexpr int64_t kBuckets = kTables * (kTableRows / kBucketRows);
/// Zipf exponent of bucket popularity.
constexpr double kZipf = 1.0;
constexpr double kWriteShare = 0.1;
/// Open-loop rate: about half the closed-loop capacity of a shared 4-vCPU
/// VM in its slower speed regime, a third to a fifth of it in the faster.
constexpr double kOpenLoopRate = 1000.0;
/// Closed-loop requests sent before any timing, to fill the caches' hot set.
constexpr int kWarmupRequests = 4000;
constexpr double kClosedShare = 0.2;
/// The open loop runs in segments of about this many seconds; between
/// segments, with no request in flight, kSpeedBurst reference-kernel runs
/// sample the host's speed.
constexpr double kSegmentSeconds = 1.5;
constexpr int kSpeedBurst = 8;
constexpr int kSetups = 5;
constexpr int kCheckThreads = 4;

/// The four fig8-analog read shapes over one id-range bucket.
std::string ReadSql(int shape, int64_t bucket) {
  const int64_t per_table = kTableRows / kBucketRows;
  const std::string frames = "frames_" + std::to_string(bucket / per_table);
  const int64_t first = (bucket % per_table) * kBucketRows;
  const std::string range = "id >= " + std::to_string(first) + " AND id < " +
                            std::to_string(first + kBucketRows);
  switch (shape) {
    case 0:  // Type 2 analog: inference predicate. The derived table keeps
             // the nUDF off rows outside the bucket: a single WHERE would
             // evaluate it on every row of the table.
      return "SELECT count(*) AS hits FROM (SELECT seed FROM " + frames +
             " WHERE " + range + ") b WHERE nudf_student(seed) = 1";
    case 1:  // Type 1 analog: retrieval + inference projection.
      return "SELECT id, nudf_student(seed) AS cls FROM " + frames +
             " WHERE " + range + " AND id % 5 = 2 ORDER BY id";
    case 2:  // Type 3 analog: inference aggregation.
      return "SELECT sum(nudf_student(seed)) AS s, count(*) AS n FROM " +
             frames + " WHERE " + range;
    default:  // Type 4 analog: pure relational.
      return "SELECT count(*) AS n, sum(seed) AS s FROM " + frames +
             " WHERE " + range + " AND id % 3 = 0";
  }
}

Status LoadFrames(dl2sql::db::Database* db) {
  using dl2sql::db::DataType;
  using dl2sql::db::Value;
  dl2sql::db::TableSchema schema(
      {{"id", DataType::kInt64}, {"seed", DataType::kInt64}});
  for (int f = 0; f < kTables; ++f) {
    dl2sql::db::Table t{schema};
    for (int64_t i = 0; i < kTableRows; ++i) {
      // Distinct seeds over every table (40503 is a unit mod the prime
      // 1000003), so every row is its own nUDF cache key.
      const int64_t seed = ((f * kTableRows + i) * 40503) % 1000003;
      DL2SQL_RETURN_NOT_OK(t.AppendRow({Value::Int(i), Value::Int(seed)}));
    }
    DL2SQL_RETURN_NOT_OK(
        db->RegisterTable("frames_" + std::to_string(f), std::move(t)));
  }
  return db->Execute("CREATE TABLE events (id INT64, client INT64, v FLOAT64)")
      .status();
}

/// Request classes: the four read shapes, then writes.
constexpr int kWrite = 4;
constexpr int kClasses = 5;

/// One pre-generated request of the mix.
struct Request {
  int cls = 0;  ///< read shape 0-3 or kWrite
  std::string sql;
};

/// Seeded request generator: reads pick a shape uniformly and a bucket by
/// Zipf popularity (over a seed-shuffled bucket order); writes insert one
/// row with a unique id.
class RequestGen {
 public:
  explicit RequestGen(uint64_t seed) : rng_(seed) {
    double total = 0;
    for (int64_t b = 0; b < kBuckets; ++b) {
      total += 1.0 / std::pow(static_cast<double>(b + 1), kZipf);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
    for (int64_t b = 0; b < kBuckets; ++b) order_.push_back(b);
    for (size_t i = order_.size(); i > 1; --i) {
      std::swap(order_[i - 1], order_[static_cast<size_t>(rng_.UniformInt(
                                   0, static_cast<int64_t>(i) - 1))]);
    }
  }

  Request Next(int client) {
    Request r;
    if (rng_.UniformReal(0, 1) < kWriteShare) {
      r.cls = kWrite;
      r.sql = "INSERT INTO events VALUES (" + std::to_string(next_write_++) +
              ", " + std::to_string(client) + ", " +
              std::to_string(rng_.UniformInt(0, 999999)) + ".5)";
      return r;
    }
    const double u = rng_.UniformReal(0, 1);
    const size_t rank = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    r.cls = static_cast<int>(rng_.UniformInt(0, 3));
    r.sql = ReadSql(r.cls, order_[std::min(rank, order_.size() - 1)]);
    return r;
  }

 private:
  dl2sql::Rng rng_;
  std::vector<double> cdf_;
  std::vector<int64_t> order_;
  int64_t next_write_ = 0;
};

/// A blocking line-protocol client connection.
class Connection {
 public:
  Connection() = default;
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Connect(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return Status::IoError("socket failed");
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      return Status::IoError("connect to port ", port, " failed");
    }
    return Status::OK();
  }

  /// Sends one statement and returns its complete framed response.
  Result<std::string> RoundTrip(const std::string& sql) {
    const std::string line = sql + "\n";
    size_t sent = 0;
    while (sent < line.size()) {
      const ssize_t n = ::send(fd_, line.data() + sent, line.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return Status::IoError("send failed");
      sent += static_cast<size_t>(n);
    }
    char chunk[8192];
    for (;;) {
      const size_t len = dl2sql::server::CompleteFrameLength(buffer_);
      if (len > 0) {
        std::string frame = buffer_.substr(0, len);
        buffer_.erase(0, len);
        return frame;
      }
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return Status::IoError("connection closed");
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// Database, model, service, listener and the client connections. The
/// database runs without an execution device, as lindb_server runs it.
struct ServingEnv {
  std::unique_ptr<dl2sql::db::Database> db;
  std::shared_ptr<dl2sql::demo::ServedModel> model;
  std::unique_ptr<dl2sql::server::QueryService> service;
  std::unique_ptr<dl2sql::server::TcpServer> tcp;
  std::vector<std::unique_ptr<Connection>> conns;

  ServingEnv() = default;
  ServingEnv(const ServingEnv&) = delete;
  ServingEnv& operator=(const ServingEnv&) = delete;
  ~ServingEnv() {
    conns.clear();
    if (tcp != nullptr) tcp->Stop();
  }
};

Result<std::unique_ptr<ServingEnv>> StartServing() {
  auto env = std::make_unique<ServingEnv>();
  env->db = std::make_unique<dl2sql::db::Database>();
  DL2SQL_RETURN_NOT_OK(LoadFrames(env->db.get()));
  env->model = dl2sql::demo::RegisterDemoModel(env->db.get());
  env->service = std::make_unique<dl2sql::server::QueryService>(
      env->db.get(), dl2sql::server::ServiceOptions{});
  env->tcp = std::make_unique<dl2sql::server::TcpServer>(
      env->service.get(), dl2sql::server::TcpServerOptions{});
  DL2SQL_RETURN_NOT_OK(env->tcp->Start());
  for (int c = 0; c < kClients; ++c) {
    auto conn = std::make_unique<Connection>();
    DL2SQL_RETURN_NOT_OK(conn->Connect(env->tcp->port()));
    env->conns.push_back(std::move(conn));
  }
  return env;
}

/// Per-client samples of one phase.
struct ClientLog {
  // Per request class: latency from the due time (open loop) or the send
  // (closed loop).
  std::vector<OpSample> ops[kClasses];
  std::vector<double> rtt_ms;             // send -> response, every request
  std::vector<double> late_ms;            // open loop: send - due
  int64_t attempted = 0, failed = 0, acked_writes = 0;
  std::vector<std::pair<std::string, std::string>> reads;  // sql, frame
};

}  // namespace

Report RunServeRw(const Options& options, Tracer* tracer) {
  Report report;
  std::vector<double> setups;
  std::unique_ptr<ServingEnv> env;
  for (int s = 0; s < kSetups; ++s) {
    env.reset();
    const double t0 = NowSeconds();
    auto started = StartServing();
    setups.push_back(NowSeconds() - t0);
    if (!started.ok()) {
      report.attempted = 1;
      report.Fail("serving setup: " + started.status().ToString());
      return report;
    }
    env = std::move(started).ValueOrDie();
  }
  report.metrics["setup_s"] = Median(setups);

  // Requests are generated per client from the seed, before any timing.
  std::vector<RequestGen> gens;
  for (int c = 0; c < kClients; ++c) {
    gens.emplace_back(options.seed * 1000003 + static_cast<uint64_t>(c));
  }
  std::atomic<uint64_t> next_id{1};
  std::unordered_map<std::string, std::string> first_frame;
  int64_t acked_writes = 0;

  // Runs one phase on all clients. closed: back to back for `seconds` or
  // until `max_requests` have been sent; open: request k of the merged
  // schedule is due at start + k / rate.
  auto run_phase = [&](bool closed, double seconds, int64_t max_requests,
                       Tracer* tr, std::vector<ClientLog>* logs,
                       double* wall) {
    logs->assign(kClients, ClientLog{});
    std::atomic<int64_t> next_slot{0};
    const double start = NowSeconds() + 0.01;
    const double end = start + seconds;
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        ClientLog& log = (*logs)[static_cast<size_t>(c)];
        Connection& conn = *env->conns[static_cast<size_t>(c)];
        while (NowSeconds() < start) std::this_thread::yield();
        const double loop_start = NowSeconds();
        for (;;) {
          const int64_t k = next_slot.fetch_add(1);
          double due = closed ? NowSeconds()
                              : start + static_cast<double>(k) / kOpenLoopRate;
          if (due >= end || k >= max_requests) break;
          const uint64_t id = next_id.fetch_add(1);
          Request req;
          {
            Tracer::Scope span(tr, "workload", id);
            req = gens[static_cast<size_t>(c)].Next(c);
          }
          if (!closed) {
            Tracer::Scope span(tr, "schedule", id);
            for (double left = due - NowSeconds(); left > 0;
                 left = due - NowSeconds()) {
              if (left > 0.002) {
                std::this_thread::sleep_for(std::chrono::microseconds(
                    static_cast<int64_t>((left - 0.001) * 1e6)));
              }
            }
          }
          const double sent = NowSeconds();
          Result<std::string> frame = [&] {
            Tracer::Scope span(tr, "server", id);
            return conn.RoundTrip(req.sql);
          }();
          const double done = NowSeconds();
          ++log.attempted;
          Tracer::Scope span(tr, "check", id);
          if (!closed) log.late_ms.push_back((sent - due) * 1000.0);
          log.rtt_ms.push_back((done - sent) * 1000.0);
          if (!frame.ok() || frame->rfind("OK ", 0) != 0) {
            ++log.failed;
            std::fprintf(stderr, "FAILED: %s -> %s\n", req.sql.c_str(),
                         frame.ok() ? frame->c_str()
                                    : frame.status().ToString().c_str());
            continue;
          }
          log.ops[req.cls].push_back({due, done - due});
          if (req.cls == kWrite) {
            ++log.acked_writes;
          } else {
            log.reads.emplace_back(std::move(req.sql), std::move(*frame));
          }
        }
        if (tr != nullptr) tr->AddLoopSeconds(NowSeconds() - loop_start);
      });
    }
    for (auto& t : threads) t.join();
    *wall = NowSeconds() - start;
  };

  // Counts a phase's requests into `out` and checks its read renders for
  // byte-identity across repeats of a statement (against the
  // single-threaded reference after the run).
  auto absorb = [&](std::vector<ClientLog>& logs, Report* out) {
    for (ClientLog& log : logs) {
      out->attempted += log.attempted;
      out->failed += log.failed;
      acked_writes += log.acked_writes;
      for (auto& [sql, frame] : log.reads) {
        auto [it, inserted] = first_frame.emplace(sql, frame);
        if (!inserted && it->second != frame) {
          out->wrong = true;
          out->Fail("render differs between repeats of: " + sql);
        }
      }
      log.reads.clear();
    }
  };

  {
    std::vector<ClientLog> warm;
    double wall = 0;
    run_phase(true, 60.0, kWarmupRequests, nullptr, &warm, &wall);
    absorb(warm, &report);
  }

  auto measure = [&](double seconds, Tracer* tr, Report* out) {
    const auto before = dl2sql::MetricsRegistry::Global().Snapshot();
    std::vector<ClientLog> closed_logs, open_logs;
    double closed_wall = 0;
    run_phase(true, seconds * kClosedShare, INT64_MAX, tr, &closed_logs,
              &closed_wall);
    // The reference kernel runs only while no request is in flight, so the
    // program's own load never slows it.
    HostSpeed speed;
    speed.Sample(kSpeedBurst);
    const double open_seconds = seconds * (1 - kClosedShare);
    const int segments =
        std::max(1, static_cast<int>(std::lround(open_seconds / kSegmentSeconds)));
    for (int seg = 0; seg < segments; ++seg) {
      std::vector<ClientLog> logs;
      double wall = 0;
      run_phase(false, open_seconds / segments, INT64_MAX, tr, &logs, &wall);
      speed.Sample(kSpeedBurst);
      for (ClientLog& log : logs) open_logs.push_back(std::move(log));
    }
    const MetricsDelta delta(before,
                             dl2sql::MetricsRegistry::Global().Snapshot());

    int64_t closed_done = 0;
    for (const ClientLog& log : closed_logs) {
      closed_done += log.attempted - log.failed;
    }
    std::vector<double> reads, writes, rtt, late;
    // Each class's samples, one window per open-loop segment.
    std::vector<OpClass> classes(kClasses, OpClass(static_cast<size_t>(segments)));
    for (auto* logs : {&closed_logs, &open_logs}) {
      for (const ClientLog& log : *logs) {
        rtt.insert(rtt.end(), log.rtt_ms.begin(), log.rtt_ms.end());
      }
    }
    for (size_t i = 0; i < open_logs.size(); ++i) {
      const ClientLog& log = open_logs[i];
      for (int c = 0; c < kClasses; ++c) {
        auto& into = c == kWrite ? writes : reads;
        for (const OpSample& op : log.ops[c]) into.push_back(op.secs * 1000.0);
        auto& window = classes[static_cast<size_t>(c)][i / kClients];
        window.insert(window.end(), log.ops[c].begin(), log.ops[c].end());
      }
      late.insert(late.end(), log.late_ms.begin(), log.late_ms.end());
    }
    absorb(closed_logs, out);
    absorb(open_logs, out);
    auto& m = out->metrics;
    m["serve.qps"] = Ratio(static_cast<double>(closed_done), closed_wall);
    m["serve.read_p50_ms"] = Quantile(reads, 0.5);
    m["serve.read_p99_ms"] = Quantile(reads, 0.99);
    m["serve.write_p50_ms"] = Quantile(writes, 0.5);
    m["serve.write_p95_ms"] = Quantile(writes, 0.95);
    // Per class, the open-loop latencies relative to the host's speed
    // sampled between the segments around them, one window per segment.
    AddRelativeRows(classes, speed, out);
    m["generator.late_ms"] = Mean(late);
    m["server.admission_wait_ms"] = delta.HistMeanMs("server.queue_us");
    m["server.admission_wait_p99_ms"] =
        delta.HistQuantileMs("server.queue_us", 0.99);
    m["server.lock_wait_ms"] = delta.HistMeanMs("dl2sql.query.lock_wait_us");
    m["server.exec_ms"] = delta.HistMeanMs("server.exec_us");
    m["server.coalesce_wait_ms"] = delta.HistMeanMs("server.coalesce.wait_us");
    m["server.coalesce.rows_per_batch"] =
        Ratio(static_cast<double>(delta.Counter("server.coalesce.rows")),
              static_cast<double>(delta.Counter("nudf.batches")));
    m["server.rejected"] =
        static_cast<double>(delta.Counter("server.rejected_queue_full") +
                            delta.Counter("server.rejected_timeout"));
    m["wire.overhead_ms"] = Mean(rtt) - delta.HistMeanMs("server.total_us");
    AddCacheAndNudfRows(delta, static_cast<double>(out->attempted), out);
    std::fprintf(stderr,
                 "serve_rw: closed %.1f qps; open %.0f/s: read p50 %.3f p99 "
                 "%.3f ms (%zu), write p50 %.3f p95 %.3f ms (%zu), late %.3f "
                 "ms\n",
                 m["serve.qps"], kOpenLoopRate, m["serve.read_p50_ms"],
                 m["serve.read_p99_ms"], reads.size(), m["serve.write_p50_ms"],
                 m["serve.write_p95_ms"], writes.size(), m["generator.late_ms"]);
  };
  MeasurePhases(options, tracer, &report, measure);

  // Peak RSS of the workload, before the correctness check allocates.
  report.metrics["peak_rss_mb"] = PeakRssMb();
  // Gate: every write acknowledged is in the table exactly once.
  auto count = env->db->Execute("SELECT count(*) AS n FROM events");
  const int64_t rows =
      count.ok() ? count->column(0).GetValue(0).AsInt().ValueOr(-1) : -1;
  if (rows != acked_writes) {
    report.wrong = true;
    report.Fail("events holds " + std::to_string(rows) + " rows, " +
                std::to_string(acked_writes) + " INSERTs were acknowledged");
  }
  env.reset();

  // Gate: every distinct read statement's render equals a single-threaded
  // reference database over the same data and model (no service, no
  // coalescer, no pool, caches off). Statements are independent reads, so
  // kCheckThreads threads share the reference.
  dl2sql::db::Database ref;
  dl2sql::db::CacheOptions no_cache;
  no_cache.enable_nudf_cache = false;
  no_cache.enable_plan_cache = false;
  ref.set_cache_options(no_cache);
  const Status loaded = LoadFrames(&ref);
  const auto ref_model = dl2sql::demo::RegisterDemoModel(&ref);
  std::vector<const std::pair<const std::string, std::string>*> todo;
  for (const auto& entry : first_frame) todo.push_back(&entry);
  std::vector<std::vector<std::string>> mismatches(kCheckThreads);
  std::vector<std::thread> checkers;
  for (int t = 0; t < kCheckThreads; ++t) {
    checkers.emplace_back([&, t] {
      for (size_t i = static_cast<size_t>(t); i < todo.size();
           i += kCheckThreads) {
        const auto& [sql, frame] = *todo[i];
        auto r = loaded.ok() ? ref.Execute(sql)
                             : Result<dl2sql::db::Table>(loaded);
        if (!r.ok() || dl2sql::server::FormatOkResponse(
                           *r, dl2sql::server::OutputFormat::kTsv) != frame) {
          mismatches[static_cast<size_t>(t)].push_back(sql);
        }
      }
    });
  }
  for (auto& t : checkers) t.join();
  for (const auto& list : mismatches) {
    for (const std::string& sql : list) {
      report.wrong = true;
      report.Fail("render differs from the single-threaded reference: " + sql);
    }
  }
  std::fprintf(stderr, "serve_rw: %zu distinct reads checked against the "
               "reference\n", todo.size());
  return report;
}

}  // namespace perfbench
