#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {

uint64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double SecondsSince(uint64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double TailQuantile(size_t n) {
  if (n == 0) return 0.5;
  return std::max(0.5, std::min(0.99, 1.0 - 10.0 / static_cast<double>(n)));
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

double Ratio(double a, double b) { return b == 0 ? 0 : a / b; }

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit, size_t samples) {
  for (auto& [n, m] : items_) {
    if (n == name) {
      m = Metric{value, unit, samples};
      return;
    }
  }
  items_.push_back({name, Metric{value, unit, samples}});
}

std::string Metrics::Json(bool samples) const {
  std::string out = "{";
  char buf[64];
  for (size_t i = 0; i < items_.size(); ++i) {
    const auto& [name, m] = items_[i];
    if (i > 0) out += ", ";
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           m.unit + "\"";
    if (samples) out += ", \"samples\": " + std::to_string(m.samples);
    out += "}";
  }
  return out + "}";
}

void RunResult::Wrong(const std::string& what) {
  correct = false;
  if (errors.size() < 8) errors.push_back(what);
}

void SetClassMetrics(const std::vector<OpClass>& classes, RunResult* result) {
  std::vector<double> p50, tail;
  size_t samples = 0;
  for (const OpClass& c : classes) {
    if (c.ms.empty()) continue;
    samples += c.ms.size();
    double q = TailQuantile(c.ms.size());
    p50.push_back(Median(c.ms));
    tail.push_back(Percentile(c.ms, q));
    result->report.Set(c.name + "_p50_ms", p50.back(), "ms", c.ms.size());
    result->report.Set(c.name + "_tail_ms", tail.back(), "ms", c.ms.size());
    result->report.Set(c.name + "_tail_quantile", q, "ratio", c.ms.size());
  }
  result->metrics.Set("p50_geomean_ms", GeoMean(p50), "ms", samples);
  result->report.Set("tail_geomean_ms", GeoMean(tail), "ms", samples);
}

SpanLog::Scope::Scope(SpanLog* log, std::string name, uint64_t request)
    : log_(log), index_(static_cast<int>(log->spans_.size())) {
  Span span;
  span.name = std::move(name);
  span.parent = log->open_;
  span.request = request;
  log->spans_.push_back(std::move(span));
  log->open_ = index_;
  log->spans_[index_].start_ns = NowNs();
}

SpanLog::Scope::~Scope() {
  log_->spans_[index_].end_ns = NowNs();
  log_->open_ = log_->spans_[index_].parent;
}

std::map<std::string, std::vector<double>> DurationsUs(
    const std::vector<const SpanLog*>& logs) {
  std::map<std::string, std::vector<double>> out;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      out[s.name].push_back(static_cast<double>(s.end_ns - s.start_ns) *
                            1e-3);
    }
  }
  return out;
}

bool WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs) {
  std::ofstream out(path);
  for (size_t t = 0; t < logs.size(); ++t) {
    for (const Span& s : logs[t]->spans()) {
      out << "{\"thread\": " << t << ", \"name\": \"" << s.name
          << "\", \"start_ns\": " << s.start_ns
          << ", \"end_ns\": " << s.end_ns << ", \"parent\": " << s.parent
          << ", \"request\": " << s.request << "}\n";
    }
  }
  out.close();
  return static_cast<bool>(out);
}

}  // namespace perfbench
