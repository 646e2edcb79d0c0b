// Statistics, metric records and the in-memory span log of the
// benchmark.
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

uint64_t NowNs();
double SecondsSince(uint64_t start_ns);
// Linear interpolation between closest ranks; q in [0, 1].
double Percentile(std::vector<double> v, double q);
double Median(std::vector<double> v);
double GeoMean(const std::vector<double>& v);
// The tail quantile reported for `n` samples: 0.99, or the highest one
// with at least ten samples beyond it, but never below the median.
double TailQuantile(size_t n);
// Peak resident set size of this process, MiB.
double PeakRssMb();
// a / b, or 0 when b is 0 (a layer the workload did not exercise).
double Ratio(double a, double b);

struct Metric {
  double value = 0;
  std::string unit;
  size_t samples = 0;  // 0 when the value is not a statistic over samples.
};

// Insertion-ordered metrics, rendered as the result's "metrics" object.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit,
           size_t samples = 0);
  // {"name": {"value": v, "unit": u}, ...}; with `samples`, each entry also
  // carries its sample count.
  std::string Json(bool samples) const;

 private:
  std::vector<std::pair<std::string, Metric>> items_;
};

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Self-check: add one bogus tuple to a reference answer; the run must
  // then report a wrong answer.
  bool corrupt_reference = false;
  std::string trace_out;  // Span file written by a traced run.
};

// What one workload run produced.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Metrics metrics;  // Contract metrics (end-to-end, or per-layer if traced).
  Metrics report;   // Everything else worth printing, with sample counts.
  std::vector<std::string> errors;  // First few correctness failures.

  void Wrong(const std::string& what);
};

// Latency samples (ms) of one class of operations.
struct OpClass {
  std::string name;
  std::vector<double> ms;
};
// Reports each class's median and tail ("<name>_p50_ms", "<name>_tail_ms"
// with its quantile) and their geometric means over the classes, so that
// every class weighs the same whatever its share of the operations. The
// median's mean, "p50_geomean_ms", is an end-to-end metric; the tail's,
// "tail_geomean_ms", is reported only: tails swing by a third between
// runs on a shared host.
void SetClassMetrics(const std::vector<OpClass>& classes, RunResult* result);

// One thread's spans. A span's parent is the span open on the same thread
// when it began; spans of one request share its id.
struct Span {
  std::string name;
  uint64_t start_ns = 0, end_ns = 0;
  int parent = -1;
  uint64_t request = 0;
};

class SpanLog {
 public:
  class Scope {
   public:
    Scope(SpanLog* log, std::string name, uint64_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    int index_;
  };

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  int open_ = -1;
};

// Span durations in microseconds, grouped by name, over several logs.
std::map<std::string, std::vector<double>> DurationsUs(
    const std::vector<const SpanLog*>& logs);
// Writes every span as one JSON object per line. Returns false on I/O
// failure.
bool WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
