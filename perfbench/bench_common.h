// Shared pieces of the repository benchmark (see run.py): sample
// statistics, the benchmark's own span recorder, Prometheus-text deltas
// and the result line every workload prints.
#ifndef DBRE_PERFBENCH_BENCH_COMMON_H_
#define DBRE_PERFBENCH_BENCH_COMMON_H_

#include <pthread.h>
#include <sched.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace dbre::bench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Microseconds on the steady clock since the process's first call; span
// timestamps share this origin.
int64_t NowUs();

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string bin_dir;   // where dbre_serve and dbre_router live
  std::string work_dir;  // working space inside the checkout
  std::string spans_file;  // where a traced run writes its spans
  double span_tolerance_pct = 5.0;
};

// A bag of measurements with nearest-rank percentiles.
class Samples {
 public:
  void Add(double value) { values_.push_back(value); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  // q in [0, 1]; 0 for an empty bag.
  double Percentile(double q) const;
  double Median() const { return Percentile(0.5); }
  double Sum() const;
  // "n=<size> min=.. p50=.. p90=.. p95=.. p98=.. p99=.. max=.." for detail
  // lines.
  std::string Ladder() const;

 private:
  std::vector<double> values_;
};

// One benchmark-side span: a call into a layer's public function or a
// wire command, timed from outside. `parent` is the id of the enclosing
// span (0 for a root); spans of one repetition, round or session share a
// root.
struct Span {
  int64_t id = 0;
  int64_t parent = 0;
  std::string name;
  int64_t start_us = 0;
  int64_t end_us = 0;
};

// In-memory span store; written out once, when the run ends. Disabled
// tracers record nothing (the untraced runs measure end-to-end metrics).
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  // Records a finished span and returns its id (0 when disabled).
  int64_t Record(const std::string& name, int64_t start_us, int64_t end_us,
                 int64_t parent = 0);
  // Reserves an id for a span whose end is not known yet.
  int64_t Open(const std::string& name, int64_t start_us, int64_t parent = 0);
  void Close(int64_t id, int64_t end_us);

  // Writes one JSON object per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  int64_t next_id_ = 1;
};

// Prometheus text exposition, parsed to series → value. Series keys keep
// the rendered form: `name` or `name{label="v",...}`.
using MetricText = std::map<std::string, double>;
MetricText ParsePrometheus(const std::string& text);

// Sum over every series of `family` (all label sets), `after - before`.
double FamilyDelta(const MetricText& before, const MetricText& after,
                   const std::string& family);
// Delta of one exact series key.
double SeriesDelta(const MetricText& before, const MetricText& after,
                   const std::string& series);

// What a workload hands back to main().
struct Outcome {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics;  // name → (value, unit), in print order
  std::vector<std::string> notes;  // detail lines printed before the result

  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void Fail(const std::string& why) {
    ++failed;
    notes.push_back("FAILED: " + why);
  }
};

// num / den, or 0 when nothing was attempted.
inline double Ratio(double num, double den) {
  return den > 0 ? num / den : 0.0;
}

// Shortest round-trip decimal form of `value`.
std::string FormatNumber(double value);
std::string JsonString(const std::string& text);

// Moves the constructing thread round the CPUs it may use, one every
// `period`, until destroyed (which restores its CPU set). The vCPUs of a
// shared host run at speeds that differ by up to half and change by the
// minute, and the scheduler keeps a lone busy thread on one of them, so a
// single-threaded measurement would read whichever vCPU it landed on;
// rotated, every operation samples all of them alike. Threads started
// while it runs inherit one CPU: start thread pools before.
class CpuRotation {
 public:
  explicit CpuRotation(std::chrono::milliseconds period);
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

 private:
  pthread_t target_;
  cpu_set_t original_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stop_ = false;
  std::thread thread_;
};

// Peak resident set size of this process, in MiB.
double SelfPeakRssMb();

// A metric BENCHMARK.json lists: every workload reports every one of them,
// the end-to-end ones from an untraced run, the per-layer ones from a
// traced run.
struct MetricSpec {
  const char* name;
  const char* unit;
};
const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& PerLayerMetrics();

// The end-to-end metrics of one untraced run. Each workload has one kind
// of operation (`op`) and one step inside it it reports apart (`step`).
struct EndToEnd {
  double setup_s = 0;
  double peak_rss_mb = 0;
  Samples op_ms, step_ms;
  double ops_per_s = 0;
};
void ReportEndToEnd(const EndToEnd& e2e, Outcome* out);

// What a traced run gathers for the per-layer metrics. Busy times are
// reported as shares of `wall_ms`, the traced operations' summed wall
// time; the other metrics as given. A layer the workload never enters
// reads 0.
struct Layers {
  double wall_ms = 0;
  double ops = 0;
  std::map<std::string, double> busy_ms;  // keyed by "<layer>.<what>_pct"
  std::map<std::string, double> value;    // every other per-layer metric
};
// Adds the counters of obs::Registry families between two snapshots: the
// pipeline's query-cache, sketch and FD counters, the store, pagestore
// and service counters, and the busy time of the journal's fsyncs,
// pagestore reads and oracle waits. In-process snapshots carry no store,
// pagestore or service series, so those read 0 there.
void AddRegistryDeltas(const MetricText& before, const MetricText& after,
                       Layers* layers);
// The layer-accounting gate: the layer spans must cover `wall_ms` within
// `tolerance_pct`; sets obs.unaccounted_pct and fails the outcome when
// the gap is wider.
void CheckAccounting(const std::string& workload, double covered_ms,
                     double tolerance_pct, Layers* layers, Outcome* out);
void ReportLayers(const Layers& layers, Outcome* out);

Outcome RunDiscover(const Args& args);
Outcome RunRevalidate(const Args& args);
Outcome RunServe(const Args& args);

}  // namespace dbre::bench

#endif  // DBRE_PERFBENCH_BENCH_COMMON_H_
