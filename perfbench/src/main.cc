// gerel_perfbench: one run of one benchmark workload (WORKLOADS.md).
//
//   gerel_perfbench --workload=serve-read|serve-mixed|prepare-corpus
//                   --seed=N --seconds=S [--trace] [--trace-out=FILE]
//                   [--corrupt-reference]
//
// Prints a report line ({"report": ...}: every metric with its unit and
// sample count, and the first wrong answers) and, last, the result line
// {"correct", "attempted", "failed", "metrics"}. Exits 1 when an answer
// was wrong or a write did not return the model to its prepared state,
// 2 on a usage or set-up error.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "corpus.h"
#include "report.h"
#include "serve.h"
#include "server/json.h"

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  out += gerel::server::JsonEscape(s);
  out += '"';
  return out;
}

int Usage() {
  std::fprintf(stderr,
               "usage: gerel_perfbench --workload=NAME --seed=N --seconds=S "
               "[--trace] [--trace-out=FILE] [--corrupt-reference]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      size_t n = std::string(flag).size();
      return arg.compare(0, n, flag) == 0 ? argv[i] + n : nullptr;
    };
    if (const char* v = value("--workload=")) {
      options.workload = v;
    } else if (const char* v = value("--seed=")) {
      options.seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--seconds=")) {
      options.seconds = std::strtod(v, nullptr);
    } else if (const char* v = value("--trace-out=")) {
      options.trace_out = v;
    } else if (arg == "--trace") {
      options.trace = true;
    } else if (arg == "--corrupt-reference") {
      options.corrupt_reference = true;
    } else {
      return Usage();
    }
  }
  if (!(options.seconds > 0)) return Usage();

  perfbench::RunResult result;
  if (options.workload == "serve-read" || options.workload == "serve-mixed") {
    perfbench::RunServe(options, &result);
  } else if (options.workload == "prepare-corpus") {
    perfbench::RunCorpus(options, &result);
  } else {
    return Usage();
  }
  if (result.attempted == 0) {
    for (const std::string& e : result.errors) {
      std::fprintf(stderr, "perfbench: %s\n", e.c_str());
    }
    return 2;
  }

  std::string errors = "[";
  for (size_t i = 0; i < result.errors.size(); ++i) {
    if (i > 0) errors += ", ";
    errors += JsonString(result.errors[i]);
    std::fprintf(stderr, "perfbench: wrong: %s\n", result.errors[i].c_str());
  }
  errors += "]";
  std::printf(
      "{\"report\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %s, \"build_type\": %s, \"compiler\": %s, "
      "\"metrics\": %s, \"details\": %s, \"wrong\": %s}}\n",
      JsonString(options.workload).c_str(),
      static_cast<unsigned long long>(options.seed), options.seconds,
      options.trace ? "true" : "false", JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      JsonString(PERFBENCH_COMPILER).c_str(),
      result.metrics.Json(/*samples=*/true).c_str(),
      result.report.Json(/*samples=*/true).c_str(), errors.c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      result.correct ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed),
      result.metrics.Json(/*samples=*/false).c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
