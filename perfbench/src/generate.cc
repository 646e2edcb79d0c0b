#include "generate.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <set>

#include "core/parser.h"
#include "core/printer.h"
#include "testing/oracle.h"

namespace perfbench {

namespace {

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(2);
}

bool Chance(Rng& rng, double p) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53 < p;
}

}  // namespace

Rng StreamFor(uint64_t seed, const std::string& purpose) {
  uint64_t h = 14695981039346656037ull ^ seed;
  for (unsigned char c : purpose) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return Rng(h);
}

Zipf::Zipf(size_t n, double s) : cdf_(n) {
  double total = 0;
  for (size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = total;
  }
  for (double& c : cdf_) c /= total;
}

size_t Zipf::operator()(Rng& rng) const {
  double u = static_cast<double>(rng() >> 11) * 0x1.0p-53;
  size_t i = std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin();
  return std::min(i, cdf_.size() - 1);
}

std::string RenderAnswer(const std::string& head,
                         const std::vector<std::string>& terms) {
  if (terms.empty()) return head;
  std::string out = head + "(";
  for (size_t i = 0; i < terms.size(); ++i) {
    if (i > 0) out += ", ";
    out += terms[i];
  }
  return out + ")";
}

// --- Transitive closure ---------------------------------------------------

std::string NodeName(int id) { return "n" + std::to_string(id); }

TcGraph MakeTcGraph(const TcSpec& spec, Rng& rng) {
  TcGraph g;
  g.n = spec.core + spec.in_nodes + spec.out_nodes;
  std::vector<int> ids(g.n);
  for (int i = 0; i < g.n; ++i) ids[i] = i;
  Shuffle(&ids, rng);
  g.core.assign(ids.begin(), ids.begin() + spec.core);
  g.in_nodes.assign(ids.begin() + spec.core,
                    ids.begin() + spec.core + spec.in_nodes);
  g.out_nodes.assign(ids.begin() + spec.core + spec.in_nodes, ids.end());
  std::set<std::pair<int, int>> seen;
  auto add = [&](int a, int b) {
    if (seen.insert({a, b}).second) g.edges.push_back({a, b});
  };
  const int c = spec.core;
  for (int i = 0; i < c; ++i) add(g.core[i], g.core[(i + 1) % c]);
  const size_t want = g.edges.size() + spec.chords;
  while (g.edges.size() < want) {
    int a = g.core[rng() % c], b = g.core[rng() % c];
    if (a != b) add(a, b);
  }
  const int len = spec.chain_len;
  for (size_t i = 0; i < g.in_nodes.size(); ++i) {
    bool last = (i + 1) % len == 0 || i + 1 == g.in_nodes.size();
    add(g.in_nodes[i], last ? g.core[rng() % c] : g.in_nodes[i + 1]);
  }
  for (size_t i = 0; i < g.out_nodes.size(); ++i) {
    bool first = i % len == 0;
    add(first ? g.core[rng() % c] : g.out_nodes[i - 1], g.out_nodes[i]);
  }
  Shuffle(&g.edges, rng);
  // Hot ranks follow the core:in:out proportions in a fixed pattern.
  std::vector<int> pools[3] = {g.core, g.in_nodes, g.out_nodes};
  for (auto& p : pools) Shuffle(&p, rng);
  std::vector<int> pattern;
  int unit = std::max(1, std::min(spec.in_nodes, spec.out_nodes));
  for (int i = 0; i < spec.core / unit; ++i) pattern.push_back(0);
  for (int i = 0; i < spec.in_nodes / unit; ++i) pattern.push_back(1);
  for (int i = 0; i < spec.out_nodes / unit; ++i) pattern.push_back(2);
  size_t next[3] = {0, 0, 0};
  for (size_t r = 0; static_cast<int>(g.by_rank.size()) < g.n; ++r) {
    int kind = pattern[r % pattern.size()];
    for (int k = 0; k < 3 && next[kind] == pools[kind].size(); ++k) {
      kind = (kind + 1) % 3;
    }
    g.by_rank.push_back(pools[kind][next[kind]++]);
  }
  return g;
}

std::string TcProgramText(const TcGraph& g) {
  std::string out =
      "e(X, Y) -> t(X, Y).\n"
      "e(X, Y), t(Y, Z) -> t(X, Z).\n";
  for (const auto& [a, b] : g.edges) {
    out += "e(" + NodeName(a) + ", " + NodeName(b) + ").\n";
  }
  return out;
}

std::vector<std::vector<int>> Reach(
    int n, const std::vector<std::pair<int, int>>& edges) {
  std::vector<std::vector<int>> adj(n);
  for (const auto& [a, b] : edges) adj[a].push_back(b);
  std::vector<std::vector<int>> reach(n);
  std::vector<int> mark(n, -1);
  for (int s = 0; s < n; ++s) {
    std::deque<int> queue;
    for (int v : adj[s]) {
      if (mark[v] != s) {
        mark[v] = s;
        queue.push_back(v);
      }
    }
    while (!queue.empty()) {
      int u = queue.front();
      queue.pop_front();
      reach[s].push_back(u);
      for (int v : adj[u]) {
        if (mark[v] != s) {
          mark[v] = s;
          queue.push_back(v);
        }
      }
    }
    std::sort(reach[s].begin(), reach[s].end());
  }
  return reach;
}

std::vector<std::pair<int, int>> TcWritePool(const TcGraph& g, Rng& rng) {
  std::vector<std::pair<int, int>> pool;
  const size_t c = g.core.size();
  for (int o : g.out_nodes) pool.push_back({o, g.core[rng() % c]});
  for (int i : g.in_nodes) pool.push_back({g.core[rng() % c], i});
  Shuffle(&pool, rng);
  return pool;
}

// --- Publications -----------------------------------------------------------

const char kSigmaP[] =
    "publication(X) -> exists K1, K2. keywords(X, K1, K2).\n"
    "keywords(X, K1, K2) -> hastopic(X, K1).\n"
    "hastopic(X, Z), hasauthor(X, U), hasauthor(Y, U), hastopic(Y, Z2),\n"
    "  scientific(Z2), citedin(Y, X) -> scientific(Z).\n"
    "hasauthor(X, Y), hastopic(X, Z), scientific(Z) -> q(Y).\n";

namespace {

const char* const kShapeHead[kNumPubsShapes] = {"pa", "pw", "ps"};

std::string Local(char kind, int i) {
  return std::string(1, kind) + std::to_string(i);
}

std::string ShapeQuery(PubsShape shape, const std::string& constant) {
  switch (shape) {
    case PubsShape::kPaperAuthors:
      return "hasauthor(" + constant + ", Y), q(Y) -> pa(Y)";
    case PubsShape::kAuthorPapers:
      return "hasauthor(X, " + constant +
             "), hastopic(X, Z), scientific(Z) -> pw(X)";
    case PubsShape::kPaperScientific:
      return "hastopic(" + constant + ", Z), scientific(Z) -> ps()";
  }
  return "";
}

char ShapeKind(PubsShape shape) {
  return shape == PubsShape::kAuthorPapers ? 'a' : 'p';
}

// The cluster shapes. Each is a small citation neighbourhood; together
// they cover scientific topics spreading along citations between papers
// with a shared author (onto invented keyword topics), chains of two
// such steps, and clusters where nothing spreads. Fixed shapes keep the
// model size, and so the chase cost, the same for every seed.
const char* const kTemplateFacts[] = {
    "publication(p0) publication(p1) citedin(p0, p1) hasauthor(p0, a0) "
    "hasauthor(p1, a0) hasauthor(p1, a1) hastopic(p0, t0) scientific(t0)",
    "publication(p0) publication(p1) hasauthor(p0, a0) hasauthor(p1, a1) "
    "hastopic(p0, t0) hastopic(p1, t1) scientific(t0)",
    "publication(p0) publication(p1) publication(p2) citedin(p0, p1) "
    "citedin(p1, p2) hasauthor(p0, a0) hasauthor(p1, a0) hasauthor(p1, a1) "
    "hasauthor(p2, a1) hastopic(p0, t0) scientific(t0)",
    "publication(p0) publication(p1) publication(p2) citedin(p0, p1) "
    "citedin(p1, p2) hasauthor(p0, a0) hasauthor(p1, a1) hasauthor(p2, a0) "
    "hastopic(p0, t0) hastopic(p2, t1) scientific(t0)",
    "publication(p0) publication(p1) citedin(p0, p1) hasauthor(p0, a0) "
    "hasauthor(p1, a0) hasauthor(p1, a1) hastopic(p1, t1)",
    "publication(p0) publication(p1) publication(p2) citedin(p1, p0) "
    "citedin(p2, p0) hasauthor(p0, a0) hasauthor(p0, a1) hasauthor(p1, a0) "
    "hasauthor(p2, a1) hastopic(p1, t0) hastopic(p2, t1) scientific(t1)",
};

PubsTemplate MakeTemplate(const char* facts, Rng& rng) {
  PubsTemplate t;
  t.authors = 2;
  t.topics = 2;
  std::set<std::string> have;
  std::string text = facts;
  for (size_t i = 0; i < text.size();) {
    size_t close = text.find(')', i);
    std::string fact = text.substr(i, close + 1 - i);
    have.insert(fact);
    if (fact.rfind("publication(", 0) == 0) ++t.papers;
    i = close + 1;
    while (i < text.size() && text[i] == ' ') ++i;
  }
  std::vector<std::string> candidates;
  auto candidate = [&](const std::string& f) {
    if (have.count(f) == 0) candidates.push_back(f);
  };
  for (int i = 0; i < t.papers; ++i) {
    for (int j = 0; j < t.papers; ++j) {
      if (i != j) {
        candidate("citedin(" + Local('p', i) + ", " + Local('p', j) + ")");
      }
    }
    for (int a = 0; a < t.authors; ++a) {
      candidate("hasauthor(" + Local('p', i) + ", " + Local('a', a) + ")");
    }
    for (int k = 0; k < t.topics; ++k) {
      candidate("hastopic(" + Local('p', i) + ", " + Local('t', k) + ")");
    }
  }
  for (int k = 0; k < t.topics; ++k) {
    candidate("scientific(" + Local('t', k) + ")");
  }
  Shuffle(&candidates, rng);
  candidates.resize(std::min<size_t>(2, candidates.size()));
  t.facts.assign(have.begin(), have.end());
  t.pool = candidates;
  return t;
}

// Oracle answers of every shape and local constant over `facts`.
ShapeTable OracleTable(
    const PubsTemplate& t, const std::vector<std::string>& facts,
    std::vector<std::string>* q_answers) {
  using gerel::SymbolTable;
  SymbolTable syms;
  std::string text = kSigmaP;
  for (const std::string& f : facts) text += f + ".\n";
  auto program = gerel::ParseProgram(text, &syms);
  if (!program.ok()) Die("template parse: " + program.status().message());
  gerel::testing::OracleOptions options;
  options.max_total_substitutions = size_t{100} << 20;
  options.max_substitutions_per_rule = size_t{20} << 20;
  gerel::testing::OracleResult result = gerel::testing::OracleChase(
      program.value().theory, program.value().database, &syms, options);
  if (!result.saturated) Die("naive oracle did not saturate on a template");
  auto answers = [&](const std::string& rule_text) {
    auto rule = gerel::ParseRule(rule_text, &syms);
    if (!rule.ok()) Die("template query: " + rule.status().message());
    Tuples out;
    for (const auto& tuple :
         gerel::testing::OracleCqAnswers(result, rule.value())) {
      std::vector<std::string> names;
      for (gerel::Term term : tuple) names.push_back(ToString(term, syms));
      out.push_back(std::move(names));
    }
    return out;
  };
  ShapeTable table(kNumPubsShapes);
  for (int s = 0; s < kNumPubsShapes; ++s) {
    PubsShape shape = static_cast<PubsShape>(s);
    for (int local = 0; local < ShapeArity(t, shape); ++local) {
      table[s].push_back(
          answers(ShapeQuery(shape, Local(ShapeKind(shape), local))));
    }
  }
  if (q_answers != nullptr) {
    q_answers->clear();
    for (const auto& tuple : answers("q(Y) -> qa(Y)")) {
      q_answers->push_back(tuple[0]);
    }
  }
  return table;
}

}  // namespace

int ShapeArity(const PubsTemplate& t, PubsShape shape) {
  return shape == PubsShape::kAuthorPapers ? t.authors : t.papers;
}

std::string ClusterConstant(int cluster, const std::string& local) {
  return "c" + std::to_string(cluster) + local;
}

PubsDb MakePubs(int clusters, Rng& rng) {
  PubsDb db;
  for (const char* facts : kTemplateFacts) {
    db.templates.push_back(MakeTemplate(facts, rng));
  }
  // Every template is used equally often; the seed decides which cluster
  // gets which.
  for (int c = 0; c < clusters; ++c) {
    db.cluster_template.push_back(c % static_cast<int>(db.templates.size()));
  }
  Shuffle(&db.cluster_template, rng);
  return db;
}

void ComputePubsReferences(PubsDb* db, bool with_pool) {
  db->base.clear();
  db->with_pool.clear();
  db->q_base.clear();
  for (const PubsTemplate& t : db->templates) {
    db->q_base.emplace_back();
    db->base.push_back(OracleTable(t, t.facts, &db->q_base.back()));
    if (with_pool) {
      std::vector<std::string> all = t.facts;
      all.insert(all.end(), t.pool.begin(), t.pool.end());
      db->with_pool.push_back(OracleTable(t, all, nullptr));
    }
  }
}

std::string RenameFact(const std::string& fact, int cluster) {
  // Local constants are the identifiers after '(' or ", ".
  std::string out;
  size_t i = 0;
  while (i < fact.size()) {
    if ((fact[i] == '(' || fact[i] == ' ') && i + 1 < fact.size()) {
      out += fact[i++];
      size_t j = i;
      while (j < fact.size() && fact[j] != ',' && fact[j] != ')') ++j;
      out += ClusterConstant(cluster, fact.substr(i, j - i));
      i = j;
    } else {
      out += fact[i++];
    }
  }
  return out;
}

std::string PubsProgramText(const PubsDb& db) {
  std::string out = kSigmaP;
  for (size_t c = 0; c < db.cluster_template.size(); ++c) {
    for (const std::string& f : db.templates[db.cluster_template[c]].facts) {
      out += RenameFact(f, static_cast<int>(c)) + ".\n";
    }
  }
  return out;
}

std::string PubsQueryText(PubsShape shape, int cluster, int local) {
  return ShapeQuery(shape,
                    ClusterConstant(cluster, Local(ShapeKind(shape), local)));
}

std::vector<std::string> PubsExpected(const PubsDb& db,
                                      const std::vector<ShapeTable>& tables,
                                      PubsShape shape, int cluster,
                                      int local) {
  const Tuples& tuples =
      tables[db.cluster_template[cluster]][static_cast<int>(shape)][local];
  std::vector<std::string> out;
  for (const auto& tuple : tuples) {
    std::vector<std::string> names;
    for (const std::string& n : tuple) {
      names.push_back(ClusterConstant(cluster, n));
    }
    out.push_back(RenderAnswer(kShapeHead[static_cast<int>(shape)], names));
  }
  std::sort(out.begin(), out.end());
  return out;
}

// --- Corpus programs ----------------------------------------------------------

CheckedProgram MakeGuardedProgram(int chains, int constants, Rng& rng) {
  CheckedProgram p;
  p.name = "guarded";
  p.text =
      "person(X) -> exists Y. parent(X, Y).\n"
      "parent(X, Y) -> person(Y).\n"
      "parent(X, Y) -> named(X).\n";
  for (int k = 0; k < chains; ++k) {
    std::string s = std::to_string(k);
    p.text += "a" + s + "(X) -> exists Y. r" + s + "(X, Y).\n";
    p.text += "r" + s + "(X, Y) -> s" + s + "(Y, Y).\n";
    p.text += "s" + s + "(X, Y) -> exists Z. u" + s + "(X, Y, Z).\n";
    p.text += "u" + s + "(X, X, Y) -> b" + s + "(X).\n";
    p.text += "c" + s + "(X), r" + s + "(X, Y), b" + s + "(Y) -> d" + s +
              "(X).\n";
  }
  std::vector<std::vector<std::string>> d(chains);
  std::vector<std::string> named;
  for (int i = 0; i < constants; ++i) {
    std::string g = "g" + std::to_string(i);
    for (int k = 0; k < chains; ++k) {
      std::string s = std::to_string(k);
      bool a = Chance(rng, 0.5), c = Chance(rng, 0.7);
      if (a) p.text += "a" + s + "(" + g + "). ";
      if (c) p.text += "c" + s + "(" + g + "). ";
      if (a && c) d[k].push_back(RenderAnswer("gd" + s, {g}));
    }
    if (Chance(rng, 0.3)) {
      p.text += "person(" + g + "). ";
      named.push_back(RenderAnswer("gn", {g}));
    }
    p.text += "\n";
  }
  for (int k = 0; k < chains; ++k) {
    std::string s = std::to_string(k);
    std::sort(d[k].begin(), d[k].end());
    p.checks.push_back({"d" + s + "(X) -> gd" + s + "(X)", d[k]});
  }
  std::sort(named.begin(), named.end());
  p.checks.push_back({"named(X) -> gn(X)", named});
  return p;
}

CheckedProgram MakeWeaklyGuardedProgram(int constants, int edges, Rng& rng) {
  CheckedProgram p;
  p.name = "wg";
  p.text =
      "edge(X, Y), edge(Y, Z) -> path(X, Z).\n"
      "path(X, Y), path(Y, Z) -> path(X, Z).\n"
      "path(X, Y) -> exists W. link(X, Y, W).\n"
      "link(X, Y, W) -> mark(W).\n"
      "link(X, Y, W), mark(W) -> reach(X, Y).\n"
      "mark(W) -> exists V. next(W, V).\n"
      "next(W, V) -> mark(V).\n";
  // A seeded Hamiltonian path puts every constant in the domain, so the
  // grounding (the dominant cost) has the same size for every seed.
  std::vector<int> order(constants);
  for (int i = 0; i < constants; ++i) order[i] = i;
  Shuffle(&order, rng);
  std::set<std::pair<int, int>> es;
  for (int i = 0; i + 1 < constants; ++i) es.insert({order[i], order[i + 1]});
  while (static_cast<int>(es.size()) < edges) {
    es.insert({static_cast<int>(rng() % constants),
               static_cast<int>(rng() % constants)});
  }
  auto name = [](int i) { return "k" + std::to_string(i); };
  std::vector<std::pair<int, int>> two_step;
  for (const auto& [a, b] : es) {
    p.text += "edge(" + name(a) + ", " + name(b) + ").\n";
    for (const auto& [c, d] : es) {
      if (c == b) two_step.push_back({a, d});
    }
  }
  std::vector<std::vector<int>> reach = Reach(constants, two_step);
  std::vector<std::string> expected;
  for (int a = 0; a < constants; ++a) {
    // Reach() lists targets by one or more steps; a direct two-step pair
    // is itself a step, so this is exactly the closure.
    for (int b : reach[a]) {
      expected.push_back(RenderAnswer("wr", {name(a), name(b)}));
    }
  }
  std::sort(expected.begin(), expected.end());
  p.checks.push_back({"reach(X, Y) -> wr(X, Y)", expected});
  return p;
}

}  // namespace perfbench
