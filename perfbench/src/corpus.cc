#include "corpus.h"

#include <algorithm>
#include <map>
#include <memory>

#include "analyze/analyze.h"
#include "analyze/termination.h"
#include "chase/chase.h"
#include "core/classify.h"
#include "core/normalize.h"
#include "core/parser.h"
#include "core/printer.h"
#include "datalog/program.h"
#include "generate.h"
#include "serve.h"
#include "server/json.h"
#include "server/registry.h"
#include "service/prepared_kb.h"
#include "transform/grounding.h"
#include "transform/saturation.h"

namespace perfbench {

namespace {

using gerel::server::TenantRegistry;

// Sizes chosen in WORKLOADS.md.
constexpr TcSpec kCorpusTc{/*core=*/250, /*in_nodes=*/135, /*out_nodes=*/135,
                           /*chain_len=*/5, /*chords=*/400};
constexpr int kGuardedChains = 4;
constexpr int kGuardedConstants = 300;
constexpr int kWgConstants = 10;
constexpr int kWgEdges = 15;
constexpr int kChaseClusters = 798;
constexpr int kSetupReps = 5;
constexpr int kProfileReps = 5;

// Stages whose per-layer sums every workload reports (each workload
// prepares at least one program on the Datalog route).
const char* const kCommonStages[] = {"core.parse", "core.normalize",
                                     "core.classify", "analyze.preflight",
                                     "datalog.evaluate"};

struct StageCounts {
  double rounds = 0, derived_atoms = 0, chase_atoms = 0, datalog_rules = 0;
};

template <typename F>
auto Timed(SpanLog* log, const std::string& name, F&& f) {
  SpanLog::Scope scope(log, name, 0);
  return f();
}

// Runs `text` through the stages PreparedKb::Prepare runs, in its order
// and with the registry's default options. Returns "" or why the replay
// cannot mirror Prepare for this program.
std::string ReplayStages(const std::string& prog, const std::string& text,
                         SpanLog* log, StageCounts* counts) {
  using namespace gerel;  // NOLINT
  const PreparedKbOptions options;
  SymbolTable symbols;
  auto parsed = Timed(log, prog + ".core.parse",
                      [&] { return ParseProgram(text, &symbols); });
  if (!parsed.ok()) return parsed.status().message();
  const Theory& theory = parsed.value().theory;
  const Database& db = parsed.value().database;
  Theory normal = Timed(log, prog + ".core.normalize",
                        [&] { return Normalize(theory, &symbols); });
  Classification c =
      Timed(log, prog + ".core.classify", [&] { return Classify(normal); });
  Timed(log, prog + ".analyze.preflight",
        [&] { return Analyze(theory, db, symbols); });
  bool existentials = false;
  for (const Rule& r : normal.rules()) {
    if (!r.EVars().empty()) existentials = true;
  }
  if (existentials && !normal.HasNegation()) {
    TerminationCertificate cert =
        Timed(log, prog + ".analyze.termination", [&] {
          return AnalyzeTermination(normal, symbols, options.termination);
        });
    if (cert.terminating()) {
      ChaseOptions copts;
      copts.max_steps = options.chase_max_steps;
      copts.max_atoms = options.chase_max_atoms;
      copts.semi_oblivious = true;
      copts.populate_acdom = options.datalog.populate_acdom;
      ChaseResult run = Timed(log, prog + ".chase.run", [&] {
        return Chase(normal, db, &symbols, copts);
      });
      if (!run.saturated) return "the chase did not saturate";
      counts->chase_atoms = static_cast<double>(run.database.size());
      return "";
    }
  }
  if (!c.weakly_guarded) return "needs rew(Σ), which is not replayed";
  Classification wc =
      Timed(log, prog + ".core.classify", [&] { return Classify(normal); });
  Theory rules;
  if (wc.datalog || !existentials) {
    rules = normal;
  } else {
    Theory guarded = normal;
    if (!wc.guarded) {
      auto pg = Timed(log, prog + ".transform.ground", [&] {
        return PartialGrounding(normal, db, options.pipeline.grounding);
      });
      if (!pg.ok()) return pg.status().message();
      guarded = std::move(pg.value().theory);
    }
    auto sat = Timed(log, prog + ".transform.saturate", [&] {
      return Saturate(guarded, &symbols, options.pipeline.saturation);
    });
    if (!sat.ok()) return sat.status().message();
    rules = std::move(sat.value().datalog);
  }
  counts->datalog_rules = static_cast<double>(rules.rules().size());
  SupportLog supports;
  Database model;
  std::unique_ptr<DatalogProgram> program;
  Result<EvalPassStats> pass = [&]() -> Result<EvalPassStats> {
    SpanLog::Scope scope(log, prog + ".datalog.evaluate", 0);
    DatalogOptions dopts = options.datalog;
    dopts.support_log = &supports;
    auto compiled = DatalogProgram::Compile(std::move(rules), &symbols, dopts);
    if (!compiled.ok()) return compiled.status();
    program = std::make_unique<DatalogProgram>(std::move(compiled).value());
    model = db;
    return program->Materialize(&model);
  }();
  if (!pass.ok()) return pass.status().message();
  counts->rounds = static_cast<double>(pass.value().rounds);
  counts->derived_atoms = static_cast<double>(pass.value().derived_atoms);
  return "";
}

// Checks a prepared tenant's answers against the program's references.
void CheckTenant(const gerel::server::Tenant& tenant,
                 const CheckedProgram& program, RunResult* result) {
  for (const auto& [rule_text, expected] : program.checks) {
    auto rule = gerel::ParseRule(rule_text, tenant.symbols);
    if (!rule.ok()) {
      result->Wrong(program.name + ": " + rule.status().message());
      continue;
    }
    auto answers = tenant.kb->Query(rule.value());
    if (!answers.ok()) {
      result->Wrong(program.name + ": " + answers.status().message());
      continue;
    }
    std::vector<std::string> got;
    for (const auto& tuple : answers.value().answers) {
      got.push_back(ToString(gerel::Atom(rule.value().head[0].pred, tuple),
                             *tenant.symbols));
    }
    std::sort(got.begin(), got.end());
    // The `complete` flag is not checked: it certifies completeness only
    // where no null witness is possible, and the guarded program's
    // queries read affected positions; the answers must still be exact.
    if (got != expected) {
      result->Wrong(program.name + ": wrong answers to " + rule_text + " (" +
                    std::to_string(got.size()) + " vs " +
                    std::to_string(expected.size()) + " expected)");
    }
  }
}

struct Corpus {
  std::vector<CheckedProgram> programs;
  size_t datalog_model_atoms = 0;  // Edges + closure + acdom.
};

Corpus MakeCorpus(const RunOptions& options) {
  Corpus corpus;
  Rng rng = StreamFor(options.seed, "prepare-corpus");
  {
    TcGraph g = MakeTcGraph(kCorpusTc, rng);
    std::vector<std::vector<int>> reach = Reach(g.n, g.edges);
    CheckedProgram p;
    p.name = "datalog";
    p.text = TcProgramText(g);
    size_t closure = 0;
    for (const auto& r : reach) closure += r.size();
    corpus.datalog_model_atoms = g.edges.size() + closure + g.n;
    for (int rank = 0; rank < 16; ++rank) {
      int node = g.by_rank[rank];
      std::vector<std::string> expected;
      for (int v : reach[node]) expected.push_back(RenderAnswer("dq", {NodeName(v)}));
      std::sort(expected.begin(), expected.end());
      p.checks.push_back({"t(" + NodeName(node) + ", Y) -> dq(Y)", expected});
    }
    corpus.programs.push_back(std::move(p));
  }
  for (CheckedProgram& p : TranslatedRoutePrograms(rng)) {
    corpus.programs.push_back(std::move(p));
  }
  {
    PubsDb db = MakePubs(kChaseClusters, rng);
    ComputePubsReferences(&db, /*with_pool=*/false);
    CheckedProgram p;
    p.name = "chase";
    p.text = PubsProgramText(db);
    std::vector<std::string> expected;
    for (size_t c = 0; c < db.cluster_template.size(); ++c) {
      for (const std::string& a : db.q_base[db.cluster_template[c]]) {
        expected.push_back(
            RenderAnswer("qa", {ClusterConstant(static_cast<int>(c), a)}));
      }
    }
    std::sort(expected.begin(), expected.end());
    p.checks.push_back({"q(Y) -> qa(Y)", expected});
    corpus.programs.push_back(std::move(p));
  }
  if (options.corrupt_reference) {
    auto& expected = corpus.programs[0].checks[0].second;
    expected.push_back("dq(corrupted)");
    std::sort(expected.begin(), expected.end());
  }
  return corpus;
}

// Prepares one program cold; returns the tenant or records the failure.
std::shared_ptr<gerel::server::Tenant> PrepareOnce(TenantRegistry* registry,
                                                   const CheckedProgram& p,
                                                   double* ms,
                                                   RunResult* result) {
  TenantRegistry::PrepareInfo info;
  uint64_t start = NowNs();
  auto tenant = registry->Prepare(p.name, p.text, 0, &info);
  *ms = SecondsSince(start) * 1e3;
  if (!tenant.ok()) {
    result->Wrong(p.name + ": prepare failed: " + tenant.status().message());
    return nullptr;
  }
  return tenant.value();
}

void RunCorpusTraced(const RunOptions& options, const Corpus& corpus,
                     RunResult* result) {
  SpanLog log;
  std::vector<std::pair<std::string, std::string>> texts;
  for (const CheckedProgram& p : corpus.programs) {
    texts.push_back({p.name, p.text});
  }
  ProfilePrepares(texts, kProfileReps, &log, result);

  // The same prepares as wire requests, so the server layers are measured
  // on this workload too: prepare, the check queries, stats, drop.
  TenantRegistry registry(TenantRegistry::Config{});
  gerel::server::Dispatcher dispatcher(&registry);
  gerel::ServiceStats served;
  double kb_ms = 0, response_bytes = 0, answers = 0;
  uint64_t request = 0;
  for (int round = 0; round < 2; ++round) {
    for (const CheckedProgram& p : corpus.programs) {
      std::string prepare = "{\"op\": \"prepare\", \"kb\": \"" + p.name +
                            "\", \"program\": \"" +
                            gerel::server::JsonEscape(p.text) + "\"}";
      WireStep step = ReplayRequest(&dispatcher, prepare, ++request, &log);
      response_bytes += static_cast<double>(step.response_bytes);
      if (!step.ok) {
        result->Wrong(p.name + ": wire prepare failed: " +
                      step.outcome.error_message);
        continue;
      }
      for (const auto& [rule_text, expected] : p.checks) {
        std::string query = "{\"op\": \"query\", \"kb\": \"" + p.name +
                            "\", \"cq\": \"" + rule_text + "\"}";
        WireStep q = ReplayRequest(&dispatcher, query, ++request, &log);
        response_bytes += static_cast<double>(q.response_bytes);
        std::vector<std::string> got = q.outcome.query.answers;
        std::sort(got.begin(), got.end());
        answers += static_cast<double>(got.size());
        if (!q.ok || got != expected) {
          result->Wrong(p.name + ": wrong wire answers to " + rule_text);
        }
      }
      gerel::ServiceStats stats = registry.Find(p.name)->kb->stats();
      kb_ms += stats.prepare_wall_ms + stats.query_wall_ms;
      served.Accumulate(stats);
      WireStep drop = ReplayRequest(
          &dispatcher, "{\"op\": \"drop\", \"kb\": \"" + p.name + "\"}",
          ++request, &log);
      response_bytes += static_cast<double>(drop.response_bytes);
      if (!drop.ok) result->Wrong(p.name + ": drop failed");
    }
  }
  size_t io_samples = 0;
  double io_floor = MeasureIoFloorUs(&dispatcher, 0.5, &io_samples);
  AddServerLayerMetrics({&log}, kb_ms, response_bytes, io_floor, io_samples,
                        result);
  TenantRun run;
  run.name = "corpus";
  run.delta = served;
  run.answers = answers;
  AddServiceLayerMetrics({run}, result);
  result->attempted = request;
  if (!options.trace_out.empty() && !WriteSpans(options.trace_out, {&log})) {
    result->Wrong("cannot write " + options.trace_out);
  }
}

}  // namespace

std::vector<CheckedProgram> TranslatedRoutePrograms(Rng& rng) {
  std::vector<CheckedProgram> out;
  out.push_back(MakeGuardedProgram(kGuardedChains, kGuardedConstants, rng));
  out.push_back(MakeWeaklyGuardedProgram(kWgConstants, kWgEdges, rng));
  return out;
}

void ProfilePrepares(
    const std::vector<std::pair<std::string, std::string>>& programs,
    int reps, SpanLog* log, RunResult* result) {
  TenantRegistry registry(TenantRegistry::Config{});
  std::map<std::string, std::vector<double>> prepare_ms;
  std::map<std::string, std::map<std::string, std::vector<double>>> stage_ms;
  std::map<std::string, StageCounts> counts;
  for (int rep = 0; rep < reps; ++rep) {
    for (const auto& [name, text] : programs) {
      TenantRegistry::PrepareInfo info;
      uint64_t start = NowNs();
      auto tenant = registry.Prepare(name, text, 0, &info);
      prepare_ms[name].push_back(SecondsSince(start) * 1e3);
      if (!tenant.ok()) {
        result->Wrong(name + ": prepare failed: " + tenant.status().message());
        return;
      }
      registry.Drop(name);
      size_t first = log->spans().size();
      std::string why = ReplayStages(name, text, log, &counts[name]);
      if (!why.empty()) {
        result->Wrong(name + ": stage replay: " + why);
        return;
      }
      std::map<std::string, double> sums;
      for (size_t i = first; i < log->spans().size(); ++i) {
        const Span& s = log->spans()[i];
        sums[s.name.substr(name.size() + 1)] +=
            static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
      }
      for (const auto& [stage, ms] : sums) {
        stage_ms[name][stage].push_back(ms);
      }
    }
  }
  std::map<std::string, double> common;
  double unattributed_total = 0, prepare_total = 0;
  StageCounts count_total;
  for (const auto& [name, text] : programs) {
    double prepare = Median(prepare_ms[name]);
    double staged = 0;
    result->report.Set(name + ".prepare_ms", prepare, "ms", reps);
    for (const auto& [stage, samples] : stage_ms[name]) {
      double m = Median(samples);
      staged += m;
      common[stage] += m;
      result->report.Set(name + "." + stage + "_ms", m, "ms", samples.size());
    }
    result->report.Set(name + ".service.unattributed_ms", prepare - staged,
                       "ms", reps);
    const StageCounts& c = counts[name];
    result->report.Set(name + ".datalog.rounds", c.rounds, "count");
    result->report.Set(name + ".datalog.derived_atoms", c.derived_atoms,
                       "count");
    result->report.Set(name + ".chase.atoms", c.chase_atoms, "count");
    result->report.Set(name + ".transform.datalog_rules", c.datalog_rules,
                       "count");
    unattributed_total += prepare - staged;
    prepare_total += prepare;
    count_total.rounds += c.rounds;
    count_total.derived_atoms += c.derived_atoms;
    count_total.chase_atoms += c.chase_atoms;
    count_total.datalog_rules += c.datalog_rules;
  }
  const size_t n = programs.size() * reps;
  for (const char* stage : kCommonStages) {
    result->metrics.Set(std::string("prepare.") + stage + "_ms", common[stage],
                        "ms", n);
  }
  result->metrics.Set("prepare.unattributed_ms", unattributed_total, "ms", n);
  result->metrics.Set("prepare.total_ms", prepare_total, "ms", n);
  result->metrics.Set("prepare.datalog.rounds", count_total.rounds, "count");
  result->metrics.Set("prepare.datalog.derived_atoms",
                      count_total.derived_atoms, "count");
  result->metrics.Set("prepare.chase.atoms", count_total.chase_atoms,
                      "count");
  result->metrics.Set("prepare.transform.datalog_rules",
                      count_total.datalog_rules, "count");
}

void RunCorpus(const RunOptions& options, RunResult* result) {
  uint64_t ref_start = NowNs();
  Corpus corpus = MakeCorpus(options);
  result->report.Set("reference_s", SecondsSince(ref_start), "s");
  if (options.trace) {
    RunCorpusTraced(options, corpus, result);
    return;
  }

  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    uint64_t start = NowNs();
    TenantRegistry registry(TenantRegistry::Config{});
    for (const CheckedProgram& p : corpus.programs) {
      double ms = 0;
      if (PrepareOnce(&registry, p, &ms, result) == nullptr) return;
      registry.Drop(p.name);
    }
    setup_s.push_back(SecondsSince(start));
  }

  TenantRegistry registry(TenantRegistry::Config{});
  std::map<std::string, std::vector<double>> samples;
  std::vector<double> all;
  uint64_t start = NowNs();
  while (SecondsSince(start) < options.seconds) {
    for (const CheckedProgram& p : corpus.programs) {
      ++result->attempted;
      double ms = 0;
      auto tenant = PrepareOnce(&registry, p, &ms, result);
      if (tenant == nullptr) {
        ++result->failed;
        continue;
      }
      samples[p.name].push_back(ms);
      all.push_back(ms);
      CheckTenant(*tenant, p, result);
      if (p.name == "datalog" &&
          tenant->kb->model_size() != corpus.datalog_model_atoms) {
        result->Wrong("datalog: model has " +
                      std::to_string(tenant->kb->model_size()) +
                      " atoms, expected " +
                      std::to_string(corpus.datalog_model_atoms));
      }
      tenant.reset();
      registry.Drop(p.name);
    }
  }

  std::vector<OpClass> classes;
  std::vector<double> medians;
  for (const CheckedProgram& p : corpus.programs) {
    classes.push_back({"prepare_" + p.name, samples[p.name]});
    medians.push_back(Median(samples[p.name]));
    result->report.Set("prepare_" + p.name + "_ms", medians.back(), "ms",
                       samples[p.name].size());
  }
  SetClassMetrics(classes, result);
  result->report.Set("prepare_geomean_ms", GeoMean(medians), "ms",
                     all.size());
  result->report.Set("failed_share",
                     Ratio(static_cast<double>(result->failed),
                           static_cast<double>(result->attempted)),
                     "ratio", result->attempted);
  Metrics& m = result->metrics;
  m.Set("setup_s", Median(setup_s), "s", setup_s.size());
  // Cold prepares per second when every program takes its median time.
  double round_ms = 0;
  for (double ms : medians) round_ms += ms;
  result->report.Set(
      "prepares_per_s",
      Ratio(1e3 * static_cast<double>(medians.size()), round_ms), "1/s",
      all.size());
  m.Set("peak_rss_mb", PeakRssMb(), "MiB");
}

}  // namespace perfbench
