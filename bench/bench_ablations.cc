// Experiment E12: ablations of the design choices called out in
// DESIGN.md: (i) semi-naive vs naive Datalog evaluation, (ii) idempotent
// vs exhaustive selection enumeration in the expansion, (iii) subsuming
// vs exhaustive guard generation. That (ii) and (iii) leave the answers
// unchanged is pinned by ExpansionVariantsTest (transform_fg_test.cc).
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "core/normalize.h"
#include "datalog/evaluator.h"
#include "transform/fg_to_ng.h"

namespace {

using namespace gerel;         // NOLINT
using namespace gerel::bench;  // NOLINT

void BM_SeminaiveVsNaive(benchmark::State& state) {
  bool seminaive = state.range(0) == 0;
  SymbolTable syms;
  Theory t = MustTheory(
      "e(X, Y) -> tc(X, Y).\ne(X, Y), tc(Y, Z) -> tc(X, Z).", &syms);
  Database db = ChainDatabase(64, "e", &syms);
  DatalogOptions opts;
  opts.seminaive = seminaive;
  for (auto _ : state) {
    SymbolTable fresh = syms;
    auto eval = EvaluateDatalog(t, db, &fresh, opts);
    benchmark::DoNotOptimize(eval.ok());
  }
  state.SetLabel(seminaive ? "seminaive" : "naive");
}
BENCHMARK(BM_SeminaiveVsNaive)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_SelectionEnumeration(benchmark::State& state) {
  bool idempotent = state.range(0) == 0;
  size_t rules = 0;
  for (auto _ : state) {
    state.PauseTiming();
    SymbolTable syms;
    Theory normal =
        Normalize(MustTheory(NullCycleTheoryText(3).c_str(), &syms), &syms);
    ExpansionOptions opts;
    opts.idempotent_selections_only = idempotent;
    opts.max_rules = 400000;
    state.ResumeTiming();
    auto ex = Expand(normal, &syms, opts);
    if (!ex.ok()) {
      state.SkipWithError(ex.status().message().c_str());
      return;
    }
    rules = ex.value().theory.size();
  }
  state.SetLabel(idempotent ? "idempotent-selections" : "all-selections");
  state.counters["rules"] = static_cast<double>(rules);
}
BENCHMARK(BM_SelectionEnumeration)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_GuardGeneration(benchmark::State& state) {
  bool subsuming = state.range(0) == 0;
  size_t rules = 0;
  for (auto _ : state) {
    state.PauseTiming();
    SymbolTable syms;
    Theory normal =
        Normalize(MustTheory(NullCycleTheoryText(3).c_str(), &syms), &syms);
    ExpansionOptions opts;
    opts.exhaustive_guards = !subsuming;
    opts.max_rules = 400000;
    state.ResumeTiming();
    auto ex = Expand(normal, &syms, opts);
    if (!ex.ok()) {
      state.SkipWithError(ex.status().message().c_str());
      return;
    }
    rules = ex.value().theory.size();
  }
  state.SetLabel(subsuming ? "subsuming-guards" : "exhaustive-guards");
  state.counters["rules"] = static_cast<double>(rules);
  state.counters["complete"] = 1;
}
BENCHMARK(BM_GuardGeneration)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace

int main(int argc, char** argv) {
  return gerel::bench::RunBenchmarks(argc, argv, "bench_ablations");
}
