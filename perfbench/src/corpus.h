// The prepare-corpus workload and the per-stage replay of a cold Prepare.
#ifndef PERFBENCH_CORPUS_H_
#define PERFBENCH_CORPUS_H_

#include <string>
#include <utility>
#include <vector>

#include "generate.h"
#include "report.h"

namespace perfbench {

// Profiles each (name, program text) pair `reps` times: a timed cold
// TenantRegistry::Prepare, then the same text through the stages
// PreparedKb::Prepare runs, in its order, each timed at its module's
// public entry point. Adds "<name>.<stage>_ms" and the stage counters to
// the report, and the per-layer "prepare.*" sums over all programs to the
// metrics. `<name>.service.unattributed_ms` is the median prepare minus
// the sum of the stage medians.
void ProfilePrepares(
    const std::vector<std::pair<std::string, std::string>>& programs,
    int reps, SpanLog* log, RunResult* result);

// The corpus's guarded (dat(Σ)) and weakly guarded (dat(pg(Σ, D)))
// programs, drawn from `rng`: the routes the serve tenants do not take.
std::vector<CheckedProgram> TranslatedRoutePrograms(Rng& rng);

void RunCorpus(const RunOptions& options, RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_CORPUS_H_
