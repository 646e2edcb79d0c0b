// Seeded inputs and independent reference answers for the benchmark
// workloads (WORKLOADS.md). Every generator is a pure function of its
// spec and the random stream; the program under test only ever sees the
// rendered text.
#ifndef PERFBENCH_GENERATE_H_
#define PERFBENCH_GENERATE_H_

#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Rng = std::mt19937_64;

// Derives an independent stream for one purpose from the run seed.
Rng StreamFor(uint64_t seed, const std::string& purpose);

// Fisher-Yates with the stream's raw draws. std::shuffle's algorithm is
// unspecified, so a seed would not name the same input on every standard
// library.
template <typename T>
void Shuffle(std::vector<T>* v, Rng& rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng() % i]);
  }
}

// Zipf(s) over ranks 0..n-1.
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t operator()(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

// --- Transitive closure ------------------------------------------------
//
// A digraph whose reachability structure is fixed by the spec and whose
// details (labels, chord placement, attachment points) come from the
// seed: one strongly connected core (a cycle plus random chords), chains
// of `chain_len` in-nodes that lead into the core, and chains of out-nodes
// that hang off it. The closure size is therefore the same for every
// seed, so timings across seeds measure the engine, not the draw.
struct TcSpec {
  int core = 200;
  int in_nodes = 50;
  int out_nodes = 50;
  int chain_len = 5;
  int chords = 300;
};

struct TcGraph {
  int n = 0;  // Node ids 0..n-1, rendered "n<id>".
  std::vector<std::pair<int, int>> edges;
  std::vector<int> core, in_nodes, out_nodes;
  // Zipf rank -> node. Ranks cycle through the three node kinds in a
  // fixed pattern, so the answer-size profile of the hot keys does not
  // depend on the seed.
  std::vector<int> by_rank;
};

TcGraph MakeTcGraph(const TcSpec& spec, Rng& rng);
std::string TcProgramText(const TcGraph& g);
std::string NodeName(int id);
// reach[u]: sorted nodes reachable from u by one or more edges (BFS).
std::vector<std::vector<int>> Reach(
    int n, const std::vector<std::pair<int, int>>& edges);
// Edges a writer may assert (and then retract): out-node -> core node and
// core node -> in-node. None is in the graph; each attaches to existing
// nodes and adds closure atoms that a retract must delete again.
std::vector<std::pair<int, int>> TcWritePool(const TcGraph& g, Rng& rng);

// --- Publications (the paper's running example Σp) ----------------------
//
// The database is a disjoint union of small clusters, each a renamed copy
// of one of a few fixed templates (the seed picks which cluster copies
// which, and the facts writers may add). Σp's rule bodies are connected and
// constant-free, so the chase of the union is the union of the clusters'
// chases: the naive oracle runs once per template (where brute force is
// affordable) and its answers are renamed per cluster.
extern const char kSigmaP[];

struct PubsTemplate {
  int papers = 0, authors = 0, topics = 0;
  std::vector<std::string> facts;  // Over local names p0.., a0.., t0...
  std::vector<std::string> pool;   // Facts a writer may assert; none in facts.
};

// Query shapes over one cluster. `local` indexes the cluster constant the
// query names (a paper for kPaperAuthors/kPaperScientific, an author for
// kAuthorPapers).
enum class PubsShape { kPaperAuthors, kAuthorPapers, kPaperScientific };
inline constexpr int kNumPubsShapes = 3;

// Answer tuples as term names; [shape][local] -> tuples.
using Tuples = std::vector<std::vector<std::string>>;
using ShapeTable = std::vector<std::vector<Tuples>>;

struct PubsDb {
  std::vector<PubsTemplate> templates;
  std::vector<int> cluster_template;  // Cluster -> template.
  // Per template: oracle answers over the base facts, and over the base
  // facts plus the whole write pool.
  std::vector<ShapeTable> base, with_pool;
  // q(Y) answers of each template (base facts), as local names.
  std::vector<std::vector<std::string>> q_base;
};

PubsDb MakePubs(int clusters, Rng& rng);
// Runs the naive oracle over every template (and template + pool when
// `with_pool`).
void ComputePubsReferences(PubsDb* db, bool with_pool);
std::string PubsProgramText(const PubsDb& db);
std::string ClusterConstant(int cluster, const std::string& local);
// A template fact with its constants renamed into `cluster`.
std::string RenameFact(const std::string& fact, int cluster);
// Number of constants of the query's kind in a template.
int ShapeArity(const PubsTemplate& t, PubsShape shape);
// Rule text of a pubs query against `cluster`, and its sorted rendered
// answers under `tables` (db.base or db.with_pool).
std::string PubsQueryText(PubsShape shape, int cluster, int local);
std::vector<std::string> PubsExpected(const PubsDb& db,
                                      const std::vector<ShapeTable>& tables,
                                      PubsShape shape, int cluster, int local);

// --- Corpus programs -----------------------------------------------------

// A generated program and the rendered answers of its check queries.
struct CheckedProgram {
  std::string name;
  std::string text;
  std::vector<std::pair<std::string, std::vector<std::string>>> checks;
};

// Guarded ontology: `chains` copies of the paper's Example 7 plus a
// non-terminating parent chain, over `constants` individuals. The
// certificate is refuted, so Prepare takes the dat(Σ) saturation route.
// Closed form: d_k(x) iff a_k(x) and c_k(x); named(x) iff person(x).
CheckedProgram MakeGuardedProgram(int chains, int constants, Rng& rng);
// Weakly guarded, not guarded, non-terminating: paths over constants with
// invented witnesses. Prepare takes dat(pg(Σ, D)). Closed form:
// reach = the transitive closure of edge∘edge.
CheckedProgram MakeWeaklyGuardedProgram(int constants, int edges, Rng& rng);

// Renders an answer tuple the way the server does: "h(a, b)", or "h" for
// a 0-ary head.
std::string RenderAnswer(const std::string& head,
                         const std::vector<std::string>& terms);

}  // namespace perfbench

#endif  // PERFBENCH_GENERATE_H_
