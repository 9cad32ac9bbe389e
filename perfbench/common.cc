#include "perfbench/common.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <unordered_map>

namespace perfbench {

void Report::Fail(const std::string& what) {
  ++failed;
  std::fprintf(stderr, "FAILED: %s\n", what.c_str());
}

double NowSeconds() {
  static const auto kEpoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kEpoch)
      .count();
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double ReferenceSeconds() {
  // A hash table built from 20,000 keys read out of a 320 KB array, then
  // probed 20,000 times: about 2 ms of allocation, hashing, branches and
  // L2-resident pointer chasing on a 4-vCPU VM, the kind of work the
  // program's operators do, in code that shares nothing with the program.
  static const std::vector<uint64_t> keys = [] {
    std::vector<uint64_t> k(40000);
    uint64_t x = 88172645463325252ull;
    for (uint64_t& v : k) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      v = x % 100000;
    }
    return k;
  }();
  const double t0 = NowSeconds();
  std::unordered_map<uint64_t, uint64_t> table;
  for (uint64_t i = 0; i < 20000; ++i) table[keys[i]] += i;
  uint64_t h = 0;
  for (uint64_t i = 20000; i < 40000; ++i) {
    auto it = table.find(keys[i]);
    if (it != table.end()) h += it->second;
  }
  const double secs = NowSeconds() - t0;
  // Keep the result observable so the work is not optimized away.
  static std::atomic<uint64_t> sink{0};
  sink.fetch_add(h, std::memory_order_relaxed);
  return secs;
}

void HostSpeed::Sample(int n) {
  for (int i = 0; i < n; ++i) {
    const double t0 = NowSeconds();
    const double secs = ReferenceSeconds();
    samples_.push_back({t0 + secs / 2, secs});
  }
}

void HostSpeed::SampleEvery(double interval, int n) {
  if (samples_.empty() || NowSeconds() - samples_.back().at > interval) {
    Sample(n);
  }
}

double HostSpeed::Around(double start, double end) const {
  std::vector<double> near;
  for (double pad = 1.0; near.size() < kMinAround && near.size() < samples_.size();
       pad *= 2) {
    near.clear();
    auto it = std::lower_bound(
        samples_.begin(), samples_.end(), start - pad,
        [](const Stamp& s, double t) { return s.at < t; });
    for (; it != samples_.end() && it->at <= end + pad; ++it) {
      near.push_back(it->secs);
    }
  }
  return Median(std::move(near));
}

double HostSpeed::MedianSeconds() const {
  std::vector<double> secs;
  for (const Stamp& s : samples_) secs.push_back(s.secs);
  return Median(std::move(secs));
}

void AddRelativeRows(const std::vector<OpClass>& classes,
                     const HostSpeed& speed, Report* out) {
  std::vector<double> ms, rel;
  for (const OpClass& windows : classes) {
    std::vector<double> window_secs, window_ratios;
    for (const std::vector<OpSample>& samples : windows) {
      if (samples.empty()) continue;
      std::vector<double> secs, ratios;
      for (const OpSample& s : samples) {
        secs.push_back(s.secs);
        ratios.push_back(
            Ratio(s.secs, speed.Around(s.start, s.start + s.secs)));
      }
      window_secs.push_back(Median(std::move(secs)));
      window_ratios.push_back(Median(std::move(ratios)));
    }
    if (window_secs.empty()) continue;
    ms.push_back(Quantile(std::move(window_secs), kWindowQuantile) * 1000.0);
    rel.push_back(Quantile(std::move(window_ratios), kWindowQuantile));
  }
  out->metrics["geomean_ms"] = GeoMean(ms);
  out->metrics["reference_ms"] = speed.MedianSeconds() * 1000.0;
  out->metrics["geomean_rel"] = GeoMean(rel);
  std::fprintf(stderr, "geomean %.4f ms, reference %.4f ms, relative %.4f\n",
               out->metrics["geomean_ms"], out->metrics["reference_ms"],
               out->metrics["geomean_rel"]);
}

// ---------------------------------------------------------------------------
// Tracer

struct Tracer::Buffer {
  const Tracer* owner = nullptr;
  std::vector<SpanRecord> spans;
  std::vector<int> stack;  // open spans, innermost last
};

namespace {
thread_local Tracer::Buffer* tls_buffer = nullptr;
}  // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled) {}
Tracer::~Tracer() = default;

Tracer::Buffer* Tracer::ThreadBuffer() {
  if (tls_buffer != nullptr && tls_buffer->owner == this) return tls_buffer;
  auto buffer = std::make_unique<Buffer>();
  buffer->owner = this;
  buffer->spans.reserve(4096);
  tls_buffer = buffer.get();
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(std::move(buffer));
  return tls_buffer;
}

Tracer::Scope::Scope(Tracer* tracer, const char* layer, uint64_t id) {
  if (tracer == nullptr || !tracer->enabled()) return;
  buffer_ = tracer->ThreadBuffer();
  index_ = static_cast<int>(buffer_->spans.size());
  SpanRecord rec;
  rec.layer = layer;
  rec.parent = buffer_->stack.empty() ? -1 : buffer_->stack.back();
  rec.id = id;
  rec.start = NowSeconds();
  buffer_->spans.push_back(std::move(rec));
  buffer_->stack.push_back(index_);
}

Tracer::Scope::~Scope() {
  if (buffer_ == nullptr) return;
  buffer_->spans[static_cast<size_t>(index_)].end = NowSeconds();
  buffer_->stack.pop_back();
}

void Tracer::AddLoopSeconds(double seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  loop_seconds_ += seconds;
}

double Tracer::LoopSeconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return loop_seconds_;
}

size_t Tracer::NumSpans() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& b : buffers_) n += b->spans.size();
  return n;
}

std::map<std::string, double> Tracer::SelfSeconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, double> self;
  for (const auto& b : buffers_) {
    // Spans on one thread nest strictly (RAII), so a span's children never
    // overlap each other and self = duration - sum(children).
    std::vector<double> child(b->spans.size(), 0.0);
    for (const SpanRecord& s : b->spans) {
      if (s.parent >= 0) child[static_cast<size_t>(s.parent)] += s.end - s.start;
    }
    for (size_t i = 0; i < b->spans.size(); ++i) {
      const SpanRecord& s = b->spans[i];
      self[s.layer] += (s.end - s.start) - child[i];
    }
  }
  return self;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t t = 0; t < buffers_.size(); ++t) {
    for (const SpanRecord& s : buffers_[t]->spans) {
      std::fprintf(f,
                   "{\"thread\":%zu,\"layer\":\"%s\",\"id\":%llu,"
                   "\"parent\":%d,\"start_s\":%.9f,\"end_s\":%.9f}\n",
                   t, s.layer.c_str(), static_cast<unsigned long long>(s.id),
                   s.parent, s.start, s.end);
    }
  }
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------------
// MetricsDelta

int64_t MetricsDelta::Counter(const std::string& name) const {
  auto it = delta_.counters.find(name);
  return it == delta_.counters.end() ? 0 : it->second;
}

double MetricsDelta::HistMeanMs(const std::string& name) const {
  auto it = delta_.histograms.find(name);
  if (it == delta_.histograms.end() || it->second.count == 0) return 0;
  return static_cast<double>(it->second.sum_micros) /
         static_cast<double>(it->second.count) / 1000.0;
}

double MetricsDelta::HistQuantileMs(const std::string& name, double q) const {
  auto it = delta_.histograms.find(name);
  if (it == delta_.histograms.end() || it->second.count == 0) return 0;
  return static_cast<double>(it->second.Quantile(q)) / 1000.0;
}

double MetricsDelta::HistSumSeconds(const std::string& name) const {
  auto it = delta_.histograms.find(name);
  return it == delta_.histograms.end()
             ? 0
             : static_cast<double>(it->second.sum_micros) / 1e6;
}

void MeasurePhases(const Options& options, Tracer* tracer, Report* report,
                   const MeasureFn& measure) {
  if (!options.trace) {
    measure(options.seconds, nullptr, report);
    return;
  }
  Report untraced, traced;
  measure(options.seconds / 2, nullptr, &untraced);
  measure(options.seconds / 2, tracer, &traced);
  report->attempted += untraced.attempted + traced.attempted;
  report->failed += untraced.failed + traced.failed;
  report->wrong = report->wrong || untraced.wrong || traced.wrong;
  for (const auto& [name, value] : traced.metrics) report->metrics[name] = value;
  report->metrics["trace.overhead_share"] =
      Ratio(traced.metrics["geomean_rel"], untraced.metrics["geomean_rel"]) - 1;
  AddTraceRows(*tracer, report);
}

void AddCacheAndNudfRows(const MetricsDelta& delta, double ops, Report* out) {
  const double invocations = static_cast<double>(delta.Counter("nudf.invocations"));
  const double nudf_hits = static_cast<double>(delta.Counter("cache.nudf.hits"));
  const double nudf_lookups =
      nudf_hits + static_cast<double>(delta.Counter("cache.nudf.misses"));
  const double plan_hits = static_cast<double>(delta.Counter("cache.plan.hits"));
  const double plan_lookups =
      plan_hits + static_cast<double>(delta.Counter("cache.plan.misses"));
  auto& m = out->metrics;
  m["nudf.invocations"] = Ratio(invocations, ops);
  // Cache hits count as invocations but never reach a model batch.
  m["nudf.rows_per_batch"] = Ratio(invocations - nudf_hits,
                                   static_cast<double>(delta.Counter("nudf.batches")));
  m["cache.nudf.hit_ratio"] = Ratio(nudf_hits, nudf_lookups);
  m["cache.nudf.lookups"] = nudf_lookups;
  m["cache.plan.hit_ratio"] = Ratio(plan_hits, plan_lookups);
  m["cache.plan.lookups"] = plan_lookups;
}

void AddTraceRows(const Tracer& tracer, Report* report) {
  const double loop = tracer.LoopSeconds();
  double attributed = 0;
  for (const auto& [layer, secs] : tracer.SelfSeconds()) {
    report->metrics["self." + layer + "_s"] = secs;
    attributed += secs;
  }
  report->metrics["self.unattributed_s"] = loop - attributed;
  report->metrics["trace.loop_s"] = loop;
  report->metrics["trace.spans"] = static_cast<double>(tracer.NumSpans());
}

}  // namespace perfbench
