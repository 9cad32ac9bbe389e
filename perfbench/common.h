/// \file common.h
/// \brief Shared pieces of the repo benchmark: command-line options, the
/// result record every workload fills, the benchmark's own span recorder,
/// small statistics helpers and MetricsRegistry deltas.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "accel/device.h"
#include "common/metrics.h"
#include "engines/engine.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// What one run reports. `metrics` holds name -> value; units and the set of
/// names printed per mode live in main.cc.
struct Report {
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Set when a correctness gate found a wrong answer (also counted in
  /// `failed`).
  bool wrong = false;
  std::map<std::string, double> metrics;

  void Fail(const std::string& what);
};

/// Monotonic seconds since an arbitrary process-wide epoch.
double NowSeconds();

/// Wall seconds of one run of a fixed reference kernel (about 2 ms of hash
/// table building and probing) that touches nothing of the program.
double ReferenceSeconds();

/// \brief How fast the host is over a run: reference-kernel samples stamped
/// with when they ran.
///
/// A shared 4-vCPU cloud VM was measured drifting between speed regimes up
/// to 1.6x apart that last seconds to minutes (other tenants on shared
/// cores). Workloads sample the kernel while the program is idle, between
/// their operations, and divide each operation's wall time by the kernel's
/// time around it; the ratio cancels what both feel alike.
class HostSpeed {
 public:
  /// Runs the reference kernel `n` times now.
  void Sample(int n);
  /// Runs it `n` times if the last sample is older than `interval` seconds.
  void SampleEvery(double interval, int n);
  /// Median kernel seconds of the samples that ran within a second of
  /// [start, end], the window widened until it holds kMinAround samples.
  double Around(double start, double end) const;
  /// Median kernel seconds over the whole run.
  double MedianSeconds() const;

  static constexpr size_t kMinAround = 8;

 private:
  struct Stamp {
    double at;    ///< mid-point of the kernel run
    double secs;  ///< its wall time
  };
  std::vector<Stamp> samples_;  // in time order
};

/// One timed operation of a workload.
struct OpSample {
  double start = 0;  ///< when it started (or, open loop, was due)
  double secs = 0;   ///< its wall (or from-due) time
};

/// Peak resident set size of this process (VmHWM), in MiB.
double PeakRssMb();

/// \name Statistics over samples (copies; inputs may be unsorted).
/// @{
double Mean(const std::vector<double>& v);
double Median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1].
double Quantile(std::vector<double> v, double q);
double GeoMean(const std::vector<double>& v);

/// @}

/// \brief The benchmark's own spans: name, start, end, parent and a shared id
/// per query or request, kept in memory per thread. Spans are recorded only
/// around the benchmark's calls into the program, never inside it.
class Tracer {
 public:
  struct SpanRecord {
    std::string layer;
    double start = 0;
    double end = 0;
    int parent = -1;  ///< index in the same thread's buffer, -1 for roots
    uint64_t id = 0;
  };

  struct Buffer;

  /// RAII span; a no-op when the tracer is disabled or null.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* layer, uint64_t id);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Buffer* buffer_ = nullptr;
    int index_ = -1;
  };

  explicit Tracer(bool enabled);
  ~Tracer();
  bool enabled() const { return enabled_; }

  /// Marks the calling thread's measured loop: its wall time is what the
  /// per-layer self times (plus the unattributed row) must add up to.
  void AddLoopSeconds(double seconds);

  /// Per-layer self time: each span's duration minus its children's.
  std::map<std::string, double> SelfSeconds() const;
  /// Sum of every thread's measured loop time.
  double LoopSeconds() const;
  size_t NumSpans() const;

  /// Writes every span as one JSON object per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  Buffer* ThreadBuffer();

  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
  double loop_seconds_ = 0;
};

/// Difference of two MetricsRegistry snapshots, with zero for absent names.
class MetricsDelta {
 public:
  MetricsDelta(const dl2sql::MetricsSnapshot& before,
               const dl2sql::MetricsSnapshot& after)
      : delta_(dl2sql::MetricsRegistry::SnapshotDelta(before, after)) {}

  int64_t Counter(const std::string& name) const;
  /// Mean of the histogram's samples over the interval, in milliseconds.
  double HistMeanMs(const std::string& name) const;
  /// Bucket-bound quantile over the interval, in milliseconds.
  double HistQuantileMs(const std::string& name, double q) const;
  double HistSumSeconds(const std::string& name) const;

 private:
  dl2sql::MetricsSnapshot delta_;
};

/// Safe ratio: 0 when the base is 0.
inline double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Per-approach means of one fig8 run (Testbed::AllEngines() order).
struct Fig8Means {
  double wall_s[4] = {};
  dl2sql::engines::QueryCost modeled[4];
};

/// Workload entry points (one file each).
Report RunFig8(const Options& options, dl2sql::DeviceKind device,
               Tracer* tracer, Fig8Means* means = nullptr);
/// Runs the fig8 stream on the edge, server and GPU profiles and prints the
/// paper's Fig. 8 shapes (a)-(e) as holds / diverges, by wall clock and by
/// the modeled QueryCost.
int RunFig8Shapes(const Options& options);
Report RunServeRw(const Options& options, Tracer* tracer);
Report RunOocoreSpill(const Options& options, Tracer* tracer);

/// One measuring phase: runs the workload's loop for `seconds`, recording
/// spans into `tracer` when non-null, and adds its counts and metrics to
/// `out`.
using MeasureFn =
    std::function<void(double seconds, Tracer* tracer, Report* out)>;

/// Untraced runs measure once for the whole time. Traced runs measure half
/// the time untraced and half traced: per-layer metrics come from the traced
/// half, and trace.overhead_share = traced / untraced geomean_rel - 1.
void MeasurePhases(const Options& options, Tracer* tracer, Report* report,
                   const MeasureFn& measure);

/// One operation class: its samples, cut into windows of the run (a single
/// window unless the workload measures in segments).
using OpClass = std::vector<std::vector<OpSample>>;

/// A class's value is this quantile, over its windows, of each window's
/// median. Stalls of a few seconds (other tenants) slowed up to half of a
/// run's serve_rw segments twofold while the others read as usual; the
/// lower quartile reads the usual value unless over three quarters of the
/// windows stalled.
inline constexpr double kWindowQuantile = 0.25;

/// Sets the rows every workload reports from its operation classes, each
/// class's value taken as above:
/// - geomean_ms: geometric mean over classes of the operations' wall time;
/// - reference_ms: the median reference-kernel time of the run;
/// - geomean_rel: geometric mean over classes of the operations' wall time
///   divided, operation by operation, by the kernel's time around it.
/// geomean_rel is the steady, gated figure.
void AddRelativeRows(const std::vector<OpClass>& classes,
                     const HostSpeed& speed, Report* out);

/// nudf.* and cache.* rows from a registry delta over `ops` operations.
void AddCacheAndNudfRows(const MetricsDelta& delta, double ops, Report* out);

/// Adds the self-time rows of `tracer` to `report` (self.<layer>_s,
/// self.unattributed_s, trace.loop_s, trace.spans).
void AddTraceRows(const Tracer& tracer, Report* report);

}  // namespace perfbench
