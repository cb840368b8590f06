#include "bench_common.h"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace dbre::bench {

int64_t NowUs() {
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                               origin)
      .count();
}

double Samples::Percentile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  // Nearest rank: the smallest value with at least q of the sample at or
  // below it.
  size_t rank = static_cast<size_t>(std::ceil(q * sorted.size()));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

double Samples::Sum() const {
  double sum = 0.0;
  for (double value : values_) sum += value;
  return sum;
}

std::string Samples::Ladder() const {
  std::string out = "n=" + std::to_string(values_.size()) +
                    " min=" + FormatNumber(Percentile(0.0));
  for (double q : {0.5, 0.9, 0.95, 0.98, 0.99, 1.0}) {
    out += q == 1.0 ? " max="
                    : " p" + std::to_string(static_cast<int>(q * 100)) + "=";
    out += FormatNumber(Percentile(q));
  }
  return out;
}

int64_t Tracer::Record(const std::string& name, int64_t start_us,
                       int64_t end_us, int64_t parent) {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mutex_);
  int64_t id = next_id_++;
  spans_.push_back(Span{id, parent, name, start_us, end_us});
  return id;
}

int64_t Tracer::Open(const std::string& name, int64_t start_us,
                     int64_t parent) {
  return Record(name, start_us, start_us, parent);
}

void Tracer::Close(int64_t id, int64_t end_us) {
  if (!enabled_ || id == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  // Ids are dense and assigned in order, so the span sits at id - 1.
  spans_[static_cast<size_t>(id - 1)].end_us = end_us;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Span& span : spans_) {
    out << "{\"id\":" << span.id << ",\"parent\":" << span.parent
        << ",\"name\":" << JsonString(span.name)
        << ",\"start_us\":" << span.start_us << ",\"end_us\":" << span.end_us
        << "}\n";
  }
  return static_cast<bool>(out);
}

MetricText ParsePrometheus(const std::string& text) {
  MetricText series;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty() || line[0] == '#') continue;
    // Label values never contain spaces in this exporter; the value is
    // the last field.
    size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    series[line.substr(0, space)] = std::strtod(line.c_str() + space + 1,
                                                nullptr);
  }
  return series;
}

namespace {

// Series keys belonging to `family` exactly (not to a longer name that
// merely starts with it).
template <typename Fn>
void ForFamily(const MetricText& text, const std::string& family, Fn fn) {
  for (auto it = text.lower_bound(family); it != text.end(); ++it) {
    const std::string& key = it->first;
    if (key.compare(0, family.size(), family) != 0) break;
    if (key.size() == family.size() || key[family.size()] == '{') {
      fn(key, it->second);
    }
  }
}

double Lookup(const MetricText& text, const std::string& key) {
  auto it = text.find(key);
  return it == text.end() ? 0.0 : it->second;
}

}  // namespace

double FamilyDelta(const MetricText& before, const MetricText& after,
                   const std::string& family) {
  double delta = 0.0;
  ForFamily(after, family, [&](const std::string& key, double value) {
    delta += value - Lookup(before, key);
  });
  return delta;
}

double SeriesDelta(const MetricText& before, const MetricText& after,
                   const std::string& series) {
  return Lookup(after, series) - Lookup(before, series);
}

std::string FormatNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escaped[8];
      std::snprintf(escaped, sizeof(escaped), "\\u%04x", c);
      out += escaped;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

CpuRotation::CpuRotation(std::chrono::milliseconds period)
    : target_(pthread_self()) {
  CPU_ZERO(&original_);
  pthread_getaffinity_np(target_, sizeof(original_), &original_);
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &original_)) cpus.push_back(cpu);
  }
  if (cpus.size() < 2) return;
  thread_ = std::thread([this, period, cpus] {
    std::unique_lock<std::mutex> lock(mutex_);
    for (size_t next = 0; !stop_; ++next) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus[next % cpus.size()], &one);
      pthread_setaffinity_np(target_, sizeof(one), &one);
      wake_.wait_for(lock, period, [this] { return stop_; });
    }
  });
}

CpuRotation::~CpuRotation() {
  if (!thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  thread_.join();
  pthread_setaffinity_np(target_, sizeof(original_), &original_);
}

double SelfPeakRssMb() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},       {"peak_rss_mb", "MiB"}, {"op_p50_ms", "ms"},
      {"step_p50_ms", "ms"},  {"ops_per_s", "1/s"},
  };
  return specs;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> specs = {
      // Busy time as a share of the traced operations' wall time.
      {"sql.extract_pct", "%"},
      {"sql.dml_pct", "%"},
      {"relational.ingest_pct", "%"},
      {"core.ind_pct", "%"},
      {"core.lhs_pct", "%"},
      {"core.rhs_pct", "%"},
      {"core.restruct_pct", "%"},
      {"core.translate_pct", "%"},
      {"core.other_pct", "%"},
      {"service.request_pct", "%"},
      {"service.wait_pct", "%"},
      {"service.oracle_wait_pct", "%"},
      {"store.fsync_pct", "%"},
      {"pagestore.read_pct", "%"},
      // Work done, per operation, and useful outcomes over attempts.
      {"relational.query_cache_hit_ratio", "ratio"},
      {"relational.query_cache_misses_per_op", "count"},
      {"relational.sketch_refute_ratio", "ratio"},
      {"relational.intern_hit_ratio", "ratio"},
      {"core.extension_queries_per_op", "count"},
      {"core.fd_tests_per_op", "count"},
      {"core.fd_fast_accept_ratio", "ratio"},
      {"service.admission_rejects", "count"},
      {"service.backpressure_pauses", "count"},
      {"cluster.forward_retries", "count"},
      {"cluster.router_hop_pct", "%"},
      {"store.journal_bytes_per_op", "B"},
      {"store.fsyncs_per_op", "count"},
      {"store.write_amplification", "ratio"},
      {"pagestore.hit_ratio", "ratio"},
      {"pagestore.evictions_per_op", "count"},
      {"pagestore.bytes_read_per_op", "B"},
      {"obs.trace_overhead_pct", "%"},
      {"obs.unaccounted_pct", "%"},
  };
  return specs;
}

void ReportEndToEnd(const EndToEnd& e2e, Outcome* out) {
  out->notes.push_back("op_ms " + e2e.op_ms.Ladder());
  out->notes.push_back("step_ms " + e2e.step_ms.Ladder());
  const double values[] = {e2e.setup_s, e2e.peak_rss_mb, e2e.op_ms.Median(),
                           e2e.step_ms.Median(), e2e.ops_per_s};
  size_t i = 0;
  for (const MetricSpec& spec : EndToEndMetrics()) {
    out->Metric(spec.name, values[i++], spec.unit);
  }
}

void AddRegistryDeltas(const MetricText& before, const MetricText& after,
                       Layers* layers) {
  auto delta = [&](const char* family) {
    return FamilyDelta(before, after, family);
  };
  auto per_op = [&](double count) { return Ratio(count, layers->ops); };
  std::map<std::string, double>& v = layers->value;
  double hits = delta("dbre_query_cache_hits_total");
  double misses = delta("dbre_query_cache_misses_total");
  v["relational.query_cache_hit_ratio"] = Ratio(hits, hits + misses);
  v["relational.query_cache_misses_per_op"] = per_op(misses);
  double refutes = delta("dbre_sketch_refutes_total");
  v["relational.sketch_refute_ratio"] =
      Ratio(refutes, refutes + delta("dbre_sketch_fallbacks_total"));
  v["relational.intern_hit_ratio"] =
      Ratio(delta("dbre_extension_intern_hits_total"),
            delta("dbre_extension_intern_lookups_total"));
  v["core.extension_queries_per_op"] =
      per_op(delta("dbre_ind_extension_queries_total"));
  double fd_tests = delta("dbre_rhs_fd_tests_total");
  v["core.fd_tests_per_op"] = per_op(fd_tests);
  v["core.fd_fast_accept_ratio"] =
      Ratio(delta("dbre_fd_fast_accepts_total"), fd_tests);
  v["service.admission_rejects"] = delta("dbre_run_admission_rejects_total");
  v["service.backpressure_pauses"] =
      delta("dbre_eventloop_backpressure_pauses_total");
  v["store.journal_bytes_per_op"] = per_op(delta("dbre_journal_bytes_total"));
  v["store.fsyncs_per_op"] = per_op(delta("dbre_journal_fsync_us_count"));
  double page_hits = delta("dbre_pagestore_hits_total");
  v["pagestore.hit_ratio"] =
      Ratio(page_hits, page_hits + delta("dbre_pagestore_misses_total"));
  v["pagestore.evictions_per_op"] =
      per_op(delta("dbre_pagestore_evictions_total"));
  v["pagestore.bytes_read_per_op"] =
      per_op(delta("dbre_pagestore_bytes_read_total"));
  layers->busy_ms["store.fsync_pct"] +=
      delta("dbre_journal_fsync_us_sum") / 1e3;
  layers->busy_ms["pagestore.read_pct"] +=
      delta("dbre_pagestore_read_us_sum") / 1e3;
  layers->busy_ms["service.oracle_wait_pct"] +=
      delta("dbre_oracle_wait_us_sum") / 1e3;
}

void CheckAccounting(const std::string& workload, double covered_ms,
                     double tolerance_pct, Layers* layers, Outcome* out) {
  double wall_ms = layers->wall_ms;
  double unaccounted_pct =
      wall_ms > 0.0 ? 100.0 * (wall_ms - covered_ms) / wall_ms : 100.0;
  layers->value["obs.unaccounted_pct"] = unaccounted_pct;
  if (std::fabs(unaccounted_pct) > tolerance_pct) {
    out->Fail(workload + ": layer spans cover " + FormatNumber(covered_ms) +
              " ms of " + FormatNumber(wall_ms) + " ms wall time, outside " +
              "the " + FormatNumber(tolerance_pct) + "% tolerance");
  }
}

void ReportLayers(const Layers& layers, Outcome* out) {
  std::map<std::string, bool> known;
  for (const MetricSpec& spec : PerLayerMetrics()) {
    known[spec.name] = true;
    auto busy = layers.busy_ms.find(spec.name);
    auto value = layers.value.find(spec.name);
    double reading = busy != layers.busy_ms.end()
                         ? 100.0 * Ratio(busy->second, layers.wall_ms)
                     : value != layers.value.end() ? value->second
                                                   : 0.0;
    out->Metric(spec.name, reading, spec.unit);
  }
  for (const auto* readings : {&layers.busy_ms, &layers.value}) {
    for (const auto& [name, reading] : *readings) {
      if (!known.count(name)) out->Fail("unlisted per-layer metric " + name);
    }
  }
}

}  // namespace dbre::bench
