#include "obs/metrics.h"

#include <bit>
#include <chrono>
#include <cinttypes>
#include <cstdio>

namespace dbre::obs {
namespace {

void AppendEscaped(std::string* out, std::string_view text) {
  for (char c : text) {
    if (c == '\\' || c == '"') {
      *out += '\\';
      *out += c;
    } else if (c == '\n') {
      *out += "\\n";
    } else {
      *out += c;
    }
  }
}

void AppendLabels(std::string* out, const Labels& labels,
                  const char* extra_key = nullptr,
                  const std::string& extra_value = "") {
  if (labels.empty() && extra_key == nullptr) return;
  *out += '{';
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) *out += ',';
    first = false;
    *out += key;
    *out += "=\"";
    AppendEscaped(out, value);
    *out += '"';
  }
  if (extra_key != nullptr) {
    if (!first) *out += ',';
    *out += extra_key;
    *out += "=\"";
    *out += extra_value;
    *out += '"';
  }
  *out += '}';
}

void AppendU64(std::string* out, uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
  *out += buf;
}

void AppendI64(std::string* out, int64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRId64, value);
  *out += buf;
}

}  // namespace

int64_t WallClockUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

int64_t MonotonicUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

size_t Histogram::BucketOf(uint64_t value) {
  size_t width = static_cast<size_t>(std::bit_width(value));
  return width < kBuckets ? width : kBuckets - 1;
}

uint64_t Histogram::BucketUpperBound(size_t i) {
  return (uint64_t{1} << i) - 1;
}

uint64_t Histogram::ApproxQuantile(double q) const {
  uint64_t total = count();
  if (total == 0) return 0;
  uint64_t target = static_cast<uint64_t>(q * static_cast<double>(total));
  if (target < 1) target = 1;
  uint64_t cumulative = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    cumulative += bucket(i);
    if (cumulative >= target) return BucketUpperBound(i);
  }
  return BucketUpperBound(kBuckets - 1);
}

bool SlowOpLog::MaybeRecord(std::string_view op, int64_t duration_us,
                            std::string_view detail) {
  if (!enabled_for(duration_us)) return false;
  total_.fetch_add(1, std::memory_order_relaxed);
  SlowOp entry;
  entry.op = std::string(op);
  entry.detail = std::string(detail);
  entry.duration_us = duration_us;
  entry.at_unix_us = WallClockUs();
  std::lock_guard<std::mutex> lock(mutex_);
  ring_.push_back(std::move(entry));
  while (ring_.size() > capacity_) ring_.pop_front();
  return true;
}

std::vector<SlowOp> SlowOpLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::vector<SlowOp>(ring_.begin(), ring_.end());
}

Registry::Series* Registry::GetSeries(const std::string& name,
                                      const Labels& labels,
                                      const std::string& help, Kind kind) {
  std::lock_guard<std::mutex> lock(mutex_);
  Family* family = nullptr;
  auto it = by_name_.find(name);
  if (it != by_name_.end()) {
    family = it->second;
  } else {
    families_.push_back(std::make_unique<Family>());
    family = families_.back().get();
    family->name = name;
    family->help = help;
    family->kind = kind;
    by_name_.emplace(name, family);
  }
  for (auto& series : family->series) {
    if (series.labels == labels) return &series;
  }
  // Series cells live behind unique_ptr so growing the series list never
  // moves a cell a caller already cached.
  Series series;
  series.labels = labels;
  switch (kind) {
    case Kind::kCounter:
      series.counter = std::make_unique<Counter>();
      break;
    case Kind::kGauge:
      series.gauge = std::make_unique<Gauge>();
      break;
    case Kind::kHistogram:
      series.histogram = std::make_unique<Histogram>();
      break;
  }
  family->series.push_back(std::move(series));
  return &family->series.back();
}

Counter* Registry::GetCounter(const std::string& name, const Labels& labels,
                              const std::string& help) {
  return GetSeries(name, labels, help, Kind::kCounter)->counter.get();
}

Gauge* Registry::GetGauge(const std::string& name, const Labels& labels,
                          const std::string& help) {
  return GetSeries(name, labels, help, Kind::kGauge)->gauge.get();
}

Histogram* Registry::GetHistogram(const std::string& name,
                                  const Labels& labels,
                                  const std::string& help) {
  return GetSeries(name, labels, help, Kind::kHistogram)->histogram.get();
}

std::string Registry::RenderPrometheus() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  for (const auto& family : families_) {
    if (!family->help.empty()) {
      out += "# HELP ";
      out += family->name;
      out += ' ';
      out += family->help;
      out += '\n';
    }
    out += "# TYPE ";
    out += family->name;
    out += ' ';
    switch (family->kind) {
      case Kind::kCounter: out += "counter"; break;
      case Kind::kGauge: out += "gauge"; break;
      case Kind::kHistogram: out += "histogram"; break;
    }
    out += '\n';
    for (const auto& series : family->series) {
      switch (family->kind) {
        case Kind::kCounter:
          out += family->name;
          AppendLabels(&out, series.labels);
          out += ' ';
          AppendU64(&out, series.counter->value());
          out += '\n';
          break;
        case Kind::kGauge:
          out += family->name;
          AppendLabels(&out, series.labels);
          out += ' ';
          AppendI64(&out, series.gauge->value());
          out += '\n';
          break;
        case Kind::kHistogram: {
          const Histogram& h = *series.histogram;
          uint64_t cumulative = 0;
          for (size_t i = 0; i < Histogram::kBuckets; ++i) {
            uint64_t in_bucket = h.bucket(i);
            cumulative += in_bucket;
            // Empty interior buckets still render so the cumulative curve
            // is explicit, but cap the output: only buckets up to the last
            // non-empty one, plus +Inf, appear.
            if (in_bucket == 0 && cumulative == 0) continue;
            if (in_bucket == 0 && cumulative == h.count()) continue;
            out += family->name;
            out += "_bucket";
            std::string le;
            AppendU64(&le, Histogram::BucketUpperBound(i));
            AppendLabels(&out, series.labels, "le", le);
            out += ' ';
            AppendU64(&out, cumulative);
            out += '\n';
          }
          out += family->name;
          out += "_bucket";
          AppendLabels(&out, series.labels, "le", "+Inf");
          out += ' ';
          AppendU64(&out, h.count());
          out += '\n';
          out += family->name;
          out += "_sum";
          AppendLabels(&out, series.labels);
          out += ' ';
          AppendU64(&out, h.sum());
          out += '\n';
          out += family->name;
          out += "_count";
          AppendLabels(&out, series.labels);
          out += ' ';
          AppendU64(&out, h.count());
          out += '\n';
          break;
        }
      }
    }
  }
  return out;
}

Registry& Registry::Default() {
  static Registry* registry = new Registry();  // never destroyed: metric
  return *registry;  // pointers must outlive static-teardown-order races
}

}  // namespace dbre::obs
