#include "serve.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <thread>
#include <unordered_map>

#include "corpus.h"
#include "generate.h"
#include "server/json.h"
#include "server/registry.h"
#include "server/server.h"
#include "server/wire.h"

namespace perfbench {

namespace {

using gerel::ServiceStats;
using gerel::server::Dispatcher;
using gerel::server::JsonValue;
using gerel::server::TenantRegistry;

// Sizes chosen in WORKLOADS.md.
constexpr TcSpec kServeTc{/*core=*/200, /*in_nodes=*/50, /*out_nodes=*/50,
                          /*chain_len=*/5, /*chords=*/300};
constexpr int kPubsClusters = 84;
constexpr int kClients = 2;
constexpr size_t kWorkers = 2;
constexpr int kSetupReps = 9;
constexpr int kProfileReps = 5;
constexpr double kZipfS = 1.0;
constexpr int kWriteOneIn = 7;
constexpr int kFinalChecks = 32;
constexpr double kWarmupSeconds = 1.0;
constexpr double kReplaySeconds = 3.0;

// A blocking JSON-lines client over one loopback connection.
class LineClient {
 public:
  LineClient() = default;
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;
  ~LineClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool Connect(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      return false;
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return true;
  }

  // Sends one request line and reads one response line.
  bool Call(const std::string& request, std::string* response) {
    std::string framed = request + "\n";
    size_t sent = 0;
    while (sent < framed.size()) {
      ssize_t n = ::send(fd_, framed.data() + sent, framed.size() - sent,
                         MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    while (true) {
      size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        response->assign(buf_, 0, nl);
        buf_.erase(0, nl + 1);
        return true;
      }
      char chunk[65536];
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

// Stops a server whose workers may only just have started or just gone
// back to their queue. SocketServer::Shutdown sets its stop flag and
// notifies without holding the queue mutex, so a worker caught between
// its wait predicate and the wait itself misses the wake-up and the join
// hangs (seen under ThreadSanitizer in the set-up loop). Letting the
// workers settle first keeps the benchmark clear of that race.
void StopServer(gerel::server::SocketServer* server) {
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server->Shutdown();
}

// Reference answers of one query, sorted. Exact: answers must equal
// `lower`. Otherwise (concurrent writers) lower ⊆ answers ⊆ upper.
struct Expect {
  std::vector<std::string> lower, upper;
  bool exact = true;
};

struct Op {
  enum Kind { kQuery, kAssert, kRetract } kind = kQuery;
  int cls = 0;
  std::string line;
  std::shared_ptr<const Expect> expect;
};

// Inputs and references shared by every client of a run.
struct World {
  bool mixed = false;
  TcGraph tc;
  std::vector<std::vector<int>> reach, reach_rev, upper, upper_rev;
  std::vector<std::pair<int, int>> tc_pool;
  PubsDb pubs;
  std::vector<int> cluster_by_rank;
  std::vector<std::pair<std::string, std::string>> programs;  // name, text
  std::vector<std::string> classes;
};

std::vector<std::vector<int>> Reverse(
    const std::vector<std::vector<int>>& reach) {
  std::vector<std::vector<int>> rev(reach.size());
  for (size_t u = 0; u < reach.size(); ++u) {
    for (int v : reach[u]) rev[v].push_back(static_cast<int>(u));
  }
  return rev;
}

World MakeWorld(const RunOptions& options) {
  World w;
  w.mixed = options.workload == "serve-mixed";
  Rng rng = StreamFor(options.seed, options.workload);
  w.tc = MakeTcGraph(kServeTc, rng);
  w.reach = Reach(w.tc.n, w.tc.edges);
  w.reach_rev = Reverse(w.reach);
  w.programs.push_back({"tc", TcProgramText(w.tc)});
  if (!w.mixed) {
    w.classes = {"tc_out", "tc_in", "tc_pair"};
    return w;
  }
  w.classes = {"tc_read", "pubs_read", "tc_write", "pubs_write"};
  w.tc_pool = TcWritePool(w.tc, rng);
  std::vector<std::pair<int, int>> all = w.tc.edges;
  all.insert(all.end(), w.tc_pool.begin(), w.tc_pool.end());
  w.upper = Reach(w.tc.n, all);
  w.upper_rev = Reverse(w.upper);
  w.pubs = MakePubs(kPubsClusters, rng);
  ComputePubsReferences(&w.pubs, /*with_pool=*/true);
  for (int c = 0; c < kPubsClusters; ++c) w.cluster_by_rank.push_back(c);
  Shuffle(&w.cluster_by_rank, rng);
  w.programs.push_back({"pubs", PubsProgramText(w.pubs)});
  return w;
}

std::string QueryLine(const std::string& kb, const std::string& cq) {
  return "{\"op\": \"query\", \"kb\": \"" + kb + "\", \"cq\": \"" + cq +
         "\"}";
}

std::string WriteLine(const char* op, const std::string& kb,
                      const std::string& fact) {
  return std::string("{\"op\": \"") + op + "\", \"kb\": \"" + kb +
         "\", \"facts\": \"" + fact + ".\"}";
}

// One client's seeded request stream. Writers retract exactly the fact
// they asserted last, and each client owns a disjoint share of the write
// pools, so two clients never hold the same extra fact.
class OpSource {
 public:
  OpSource(const World& world, const RunOptions& options, int client)
      : w_(world),
        rng_(StreamFor(options.seed,
                       options.workload + "/client" + std::to_string(client))),
        node_zipf_(world.tc.n, kZipfS),
        cluster_zipf_(std::max<size_t>(1, world.cluster_by_rank.size()),
                      kZipfS),
        corrupt_(options.corrupt_reference && client == 0) {
    for (size_t i = client; i < w_.tc_pool.size(); i += kClients) {
      const auto& [a, b] = w_.tc_pool[i];
      writes_.push_back({"tc", "e(" + NodeName(a) + ", " + NodeName(b) + ")"});
    }
    std::vector<std::pair<std::string, std::string>> pubs;
    for (size_t c = client; c < w_.pubs.cluster_template.size();
         c += kClients) {
      for (const std::string& f :
           w_.pubs.templates[w_.pubs.cluster_template[c]].pool) {
        pubs.push_back({"pubs", RenameFact(f, static_cast<int>(c))});
      }
    }
    // Interleave the two tenants so write pairs alternate between them.
    std::vector<std::pair<std::string, std::string>> mixed;
    for (size_t i = 0; i < std::max(writes_.size(), pubs.size()); ++i) {
      if (i < writes_.size()) mixed.push_back(writes_[i]);
      if (i < pubs.size()) mixed.push_back(pubs[i]);
    }
    writes_ = std::move(mixed);
  }

  bool outstanding() const { return !pending_.first.empty(); }

  // The next request; once `finishing`, only the retract that returns the
  // model to its prepared state.
  Op Next(bool finishing) {
    if (w_.mixed && (finishing || rng_() % kWriteOneIn == 0) &&
        !writes_.empty()) {
      return Write();
    }
    if (!w_.mixed) return TcRead(/*cls_base=*/-1);
    return rng_() % 2 == 0 ? TcRead(0) : PubsRead();
  }

 private:
  Op Write() {
    Op op;
    if (outstanding()) {
      op.kind = Op::kRetract;
      op.line = WriteLine("retract", pending_.first, pending_.second);
      op.cls = pending_.first == "tc" ? 2 : 3;
      pending_ = {};
    } else {
      pending_ = writes_[cursor_++ % writes_.size()];
      op.kind = Op::kAssert;
      op.line = WriteLine("assert", pending_.first, pending_.second);
      op.cls = pending_.first == "tc" ? 2 : 3;
    }
    return op;
  }

  std::shared_ptr<const Expect> Memo(const std::string& line,
                                     std::vector<std::string> lower,
                                     std::vector<std::string> upper) {
    auto it = memo_.find(line);
    if (it != memo_.end()) return it->second;
    auto e = std::make_shared<Expect>();
    e->lower = std::move(lower);
    e->upper = std::move(upper);
    e->exact = !w_.mixed;
    if (corrupt_) {
      corrupt_ = false;
      e->lower.push_back("zz(corrupted)");
      e->upper.push_back("zz(corrupted)");
    }
    std::sort(e->lower.begin(), e->lower.end());
    std::sort(e->upper.begin(), e->upper.end());
    memo_.emplace(line, e);
    return e;
  }

  // serve-read: class = shape (cls_base < 0); serve-mixed: class 0.
  Op TcRead(int cls_base) {
    Op op;
    int shape = static_cast<int>(rng_() % 5);  // 2:2:1 out, in, pair.
    int k = w_.tc.by_rank[node_zipf_(rng_)];
    auto names = [](const std::string& head, const std::vector<int>& ids) {
      std::vector<std::string> out;
      for (int v : ids) out.push_back(RenderAnswer(head, {NodeName(v)}));
      return out;
    };
    std::string cq;
    std::vector<std::string> lower, upper;
    if (shape < 2) {
      op.cls = 0;
      cq = "t(" + NodeName(k) + ", Y) -> qo(Y)";
      lower = names("qo", w_.reach[k]);
      if (w_.mixed) upper = names("qo", w_.upper[k]);
    } else if (shape < 4) {
      op.cls = 1;
      cq = "t(Y, " + NodeName(k) + ") -> qi(Y)";
      lower = names("qi", w_.reach_rev[k]);
      if (w_.mixed) upper = names("qi", w_.upper_rev[k]);
    } else {
      op.cls = 2;
      int j = w_.tc.by_rank[node_zipf_(rng_)];
      cq = "t(" + NodeName(k) + ", " + NodeName(j) + ") -> qp()";
      auto has = [&](const std::vector<std::vector<int>>& r) {
        return std::binary_search(r[k].begin(), r[k].end(), j);
      };
      if (has(w_.reach)) lower.push_back("qp");
      if (w_.mixed && has(w_.upper)) upper.push_back("qp");
    }
    if (cls_base >= 0) op.cls = cls_base;
    op.line = QueryLine("tc", cq);
    op.expect = Memo(op.line, std::move(lower), std::move(upper));
    return op;
  }

  Op PubsRead() {
    Op op;
    op.cls = 1;
    int cluster = w_.cluster_by_rank[cluster_zipf_(rng_)];
    const PubsTemplate& t =
        w_.pubs.templates[w_.pubs.cluster_template[cluster]];
    auto shape = static_cast<PubsShape>(rng_() % kNumPubsShapes);
    int local = static_cast<int>(rng_() % ShapeArity(t, shape));
    op.line = QueryLine("pubs", PubsQueryText(shape, cluster, local));
    op.expect = Memo(
        op.line, PubsExpected(w_.pubs, w_.pubs.base, shape, cluster, local),
        PubsExpected(w_.pubs, w_.pubs.with_pool, shape, cluster, local));
    return op;
  }

  const World& w_;
  Rng rng_;
  Zipf node_zipf_, cluster_zipf_;
  bool corrupt_;
  std::vector<std::pair<std::string, std::string>> writes_;  // kb, fact
  size_t cursor_ = 0;
  std::pair<std::string, std::string> pending_;
  std::unordered_map<std::string, std::shared_ptr<const Expect>> memo_;
};

// Checks sorted answers against a reference; "" if they agree.
std::string CheckAnswers(const Expect& e, std::vector<std::string> got) {
  std::sort(got.begin(), got.end());
  if (e.exact) {
    if (got == e.lower) return "";
  } else if (std::includes(got.begin(), got.end(), e.lower.begin(),
                           e.lower.end()) &&
             std::includes(e.upper.begin(), e.upper.end(), got.begin(),
                           got.end())) {
    return "";
  }
  return "got " + std::to_string(got.size()) + " answers, reference " +
         std::to_string(e.lower.size()) +
         (e.exact ? "" : ".." + std::to_string(e.upper.size()));
}

// Per-client outcome of a closed loop.
struct ClientLog {
  std::vector<std::vector<double>> latency_ms;  // Per class.
  uint64_t attempted = 0, failed = 0;
  std::vector<std::string> wrong;
  double seconds = 0;
};

void RecordWrong(ClientLog* log, const std::string& line,
                 const std::string& why) {
  if (log->wrong.size() < 4) log->wrong.push_back(line + ": " + why);
}

// Validates one decoded response; "" when it is right.
std::string CheckResponse(const Op& op, const JsonValue& resp) {
  const JsonValue* status = resp.Get("status");
  if (status == nullptr || status->as_string() != "ok") return "not ok";
  if (op.kind == Op::kQuery) {
    const JsonValue* answers = resp.Get("answers");
    const JsonValue* complete = resp.Get("complete");
    if (answers == nullptr || complete == nullptr || !complete->as_bool()) {
      return "incomplete answers";
    }
    std::vector<std::string> got;
    for (const JsonValue& a : answers->items()) got.push_back(a.as_string());
    return CheckAnswers(*op.expect, std::move(got));
  }
  const char* field = op.kind == Op::kAssert ? "new" : "removed";
  const JsonValue* n = resp.Get(field);
  if (n == nullptr || n->as_int() != 1) {
    return std::string("expected ") + field + " = 1";
  }
  return "";
}

// Runs one closed-loop client. Requests before `measure_ns` warm the
// caches and are checked but not timed; timing stops `options.seconds`
// later, after which the client only finishes its write pair.
void RunClient(uint16_t port, const World& world, const RunOptions& options,
               int client, uint64_t measure_ns, ClientLog* log) {
  log->latency_ms.resize(world.classes.size());
  LineClient conn;
  if (!conn.Connect(port)) {
    ++log->failed;
    ++log->attempted;
    RecordWrong(log, "connect", "failed");
    return;
  }
  OpSource source(world, options, client);
  std::string response;
  const uint64_t end_ns =
      measure_ns + static_cast<uint64_t>(options.seconds * 1e9);
  while (true) {
    bool finishing = NowNs() >= end_ns;
    if (finishing && !source.outstanding()) break;
    Op op = source.Next(finishing);
    ++log->attempted;
    uint64_t t0 = NowNs();
    bool sent = conn.Call(op.line, &response);
    double ms = static_cast<double>(NowNs() - t0) * 1e-6;
    if (!sent) {
      ++log->failed;
      RecordWrong(log, op.line, "connection lost");
      break;
    }
    auto parsed = JsonValue::Parse(response);
    std::string why = parsed.ok() ? CheckResponse(op, parsed.value())
                                  : "unparsable response";
    if (!why.empty()) {
      ++log->failed;
      RecordWrong(log, op.line, why);
      continue;
    }
    if (t0 >= measure_ns) log->latency_ms[op.cls].push_back(ms);
  }
  log->seconds = SecondsSince(measure_ns);
}

// A registry with the workload's tenants prepared, its dispatcher, and a
// started socket server.
struct ServerStack {
  TenantRegistry registry{TenantRegistry::Config{}};
  Dispatcher dispatcher{&registry};
  std::unique_ptr<gerel::server::SocketServer> server;
  std::map<std::string, uint64_t> prepared_atoms;
};

std::unique_ptr<ServerStack> SetUp(const World& world, bool listen,
                                   RunResult* result) {
  auto stack = std::make_unique<ServerStack>();
  for (const auto& [name, text] : world.programs) {
    TenantRegistry::PrepareInfo info;
    auto tenant = stack->registry.Prepare(name, text, 0, &info);
    if (!tenant.ok()) {
      result->Wrong(name + ": prepare failed: " + tenant.status().message());
      return nullptr;
    }
    stack->prepared_atoms[name] = tenant.value()->kb->model_size();
  }
  if (listen) {
    gerel::server::ServerOptions options;
    options.num_workers = kWorkers;
    stack->server = std::make_unique<gerel::server::SocketServer>(
        &stack->dispatcher, options);
    gerel::Status s = stack->server->Start();
    if (!s.ok()) {
      result->Wrong("server start: " + s.message());
      return nullptr;
    }
  }
  return stack;
}

// Exact answers after the run for the hottest keys of each tenant; the
// model must be back at its prepared fixpoint.
void FinalChecks(const World& world, ServerStack* stack, RunResult* result) {
  for (const auto& [name, atoms] : stack->prepared_atoms) {
    uint64_t now = stack->registry.Find(name)->kb->model_size();
    result->report.Set("service." + name + ".model_atoms_drift",
                       static_cast<double>(now) - static_cast<double>(atoms),
                       "count");
    if (now != atoms) {
      result->Wrong(name + ": model has " + std::to_string(now) +
                    " atoms after the run, prepared " + std::to_string(atoms));
    }
  }
  size_t closure = world.tc.edges.size() + world.tc.n;
  for (const auto& r : world.reach) closure += r.size();
  if (stack->prepared_atoms["tc"] != closure) {
    result->Wrong("tc: prepared model has " +
                  std::to_string(stack->prepared_atoms["tc"]) +
                  " atoms, reference " + std::to_string(closure));
  }
  std::vector<std::pair<std::string, Expect>> checks;
  for (int rank = 0; rank < kFinalChecks; ++rank) {
    int k = world.tc.by_rank[rank];
    Expect e;
    for (int v : world.reach[k]) e.lower.push_back(RenderAnswer("qo", {NodeName(v)}));
    std::sort(e.lower.begin(), e.lower.end());
    checks.push_back({QueryLine("tc", "t(" + NodeName(k) + ", Y) -> qo(Y)"), e});
  }
  for (size_t rank = 0; world.mixed && rank < kFinalChecks; ++rank) {
    int cluster = world.cluster_by_rank[rank];
    for (int s = 0; s < kNumPubsShapes; ++s) {
      auto shape = static_cast<PubsShape>(s);
      Expect e;
      e.lower = PubsExpected(world.pubs, world.pubs.base, shape, cluster, 0);
      checks.push_back({QueryLine("pubs", PubsQueryText(shape, cluster, 0)), e});
    }
  }
  for (const auto& [line, expect] : checks) {
    WireStep step = ReplayRequest(&stack->dispatcher, line, 0, nullptr);
    std::string why = step.ok ? CheckAnswers(expect, step.outcome.query.answers)
                              : step.outcome.error_message;
    if (!why.empty()) result->Wrong("final check " + line + ": " + why);
  }
}

ServiceStats Minus(const ServiceStats& a, const ServiceStats& b) {
  ServiceStats d;
  d.queries = a.queries - b.queries;
  d.cache_hits = a.cache_hits - b.cache_hits;
  d.cache_misses = a.cache_misses - b.cache_misses;
  d.asserts = a.asserts - b.asserts;
  d.delta_asserts = a.delta_asserts - b.delta_asserts;
  d.delta_derived_atoms = a.delta_derived_atoms - b.delta_derived_atoms;
  d.retracts = a.retracts - b.retracts;
  d.retracts_dred = a.retracts_dred - b.retracts_dred;
  d.overdeleted_atoms = a.overdeleted_atoms - b.overdeleted_atoms;
  d.rederived_atoms = a.rederived_atoms - b.rederived_atoms;
  d.cache_evicted_entries = a.cache_evicted_entries - b.cache_evicted_entries;
  d.cache_retained_entries =
      a.cache_retained_entries - b.cache_retained_entries;
  d.chase_materializations =
      a.chase_materializations - b.chase_materializations;
  d.query_wall_ms = a.query_wall_ms - b.query_wall_ms;
  d.assert_wall_ms = a.assert_wall_ms - b.assert_wall_ms;
  d.retract_wall_ms = a.retract_wall_ms - b.retract_wall_ms;
  return d;
}

}  // namespace

void AddServiceLayerMetrics(const std::vector<TenantRun>& tenants,
                            RunResult* result) {
  auto set = [&](const std::string& prefix, const TenantRun& t,
                 Metrics* out) {
    const ServiceStats& d = t.delta;
    double writes = static_cast<double>(d.asserts + d.retracts);
    double lookups = static_cast<double>(d.cache_hits + d.cache_misses);
    double sweeps =
        static_cast<double>(d.cache_evicted_entries + d.cache_retained_entries);
    auto n = [](uint64_t v) { return static_cast<double>(v); };
    out->Set(prefix + ".query_us", Ratio(d.query_wall_ms * 1e3, n(d.queries)),
             "us", d.queries);
    out->Set(prefix + ".cache_hit_ratio", Ratio(n(d.cache_hits), lookups),
             "ratio", static_cast<size_t>(lookups));
    out->Set(prefix + ".answers_per_query", Ratio(t.answers, n(d.queries)),
             "count", d.queries);
    out->Set(prefix + ".writes", writes, "count");
    if (out == &result->report) {
      out->Set(prefix + ".assert_us",
               Ratio(d.assert_wall_ms * 1e3, n(d.asserts)), "us", d.asserts);
      out->Set(prefix + ".retract_us",
               Ratio(d.retract_wall_ms * 1e3, n(d.retracts)), "us",
               d.retracts);
    }
    out->Set(prefix + ".delta_assert_ratio",
             Ratio(n(d.delta_asserts), n(d.asserts)), "ratio", d.asserts);
    out->Set(prefix + ".dred_retract_ratio",
             Ratio(n(d.retracts_dred), n(d.retracts)), "ratio", d.retracts);
    out->Set(prefix + ".derived_per_assert",
             Ratio(n(d.delta_derived_atoms), n(d.asserts)), "count",
             d.asserts);
    out->Set(prefix + ".overdeleted_per_retract",
             Ratio(n(d.overdeleted_atoms), n(d.retracts)), "count",
             d.retracts);
    out->Set(prefix + ".rederived_per_overdeleted",
             Ratio(n(d.rederived_atoms), n(d.overdeleted_atoms)), "ratio",
             d.overdeleted_atoms);
    out->Set(prefix + ".cache_evicted_per_write",
             Ratio(n(d.cache_evicted_entries), writes), "count",
             static_cast<size_t>(writes));
    out->Set(prefix + ".cache_retained_ratio",
             Ratio(n(d.cache_retained_entries), sweeps), "ratio",
             static_cast<size_t>(sweeps));
    out->Set(prefix + ".chase_materializations_per_write",
             Ratio(n(d.chase_materializations), writes), "count",
             static_cast<size_t>(writes));
    out->Set(prefix + ".model_atoms_drift", static_cast<double>(t.drift),
             "count");
  };
  TenantRun total;
  for (const TenantRun& t : tenants) {
    set("service." + t.name, t, &result->report);
    total.delta.Accumulate(t.delta);
    total.answers += t.answers;
    total.drift += t.drift;
  }
  set("service", total, &result->metrics);
}

WireStep ReplayRequest(Dispatcher* dispatcher, const std::string& line,
                       uint64_t request, SpanLog* log) {
  SpanLog scratch;
  if (log == nullptr) log = &scratch;
  WireStep step;
  SpanLog::Scope whole(log, "server.request", request);
  auto frame = [&] {
    SpanLog::Scope s(log, "server.json_parse", request);
    return JsonValue::Parse(line);
  }();
  if (!frame.ok()) {
    step.outcome.error_message = frame.status().message();
    return step;
  }
  auto decoded = [&] {
    SpanLog::Scope s(log, "server.decode", request);
    return gerel::server::DecodeRequest(frame.value());
  }();
  if (!decoded.ok()) {
    step.outcome.error_message = decoded.status().message();
    return step;
  }
  {
    SpanLog::Scope s(log, "server.dispatch", request);
    step.outcome = dispatcher->Dispatch(decoded.value());
  }
  std::string response = [&] {
    SpanLog::Scope s(log, "server.encode", request);
    return gerel::server::EncodeResponse(step.outcome, decoded.value().has_id,
                                         decoded.value().id);
  }();
  step.response_bytes = response.size() + 1;
  step.ok = step.outcome.ok;
  return step;
}

double MeasureIoFloorUs(Dispatcher* dispatcher, double seconds,
                        size_t* samples) {
  gerel::server::ServerOptions options;
  options.num_workers = 1;
  gerel::server::SocketServer server(dispatcher, options);
  std::vector<double> rtt;
  if (server.Start().ok()) {
    LineClient conn;
    std::string response;
    const std::string line = QueryLine("no-such-kb", "t(X, Y) -> q(X, Y)");
    uint64_t start = NowNs();
    if (conn.Connect(server.port())) {
      while (SecondsSince(start) < seconds) {
        uint64_t t0 = NowNs();
        if (!conn.Call(line, &response)) break;
        rtt.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
      }
    }
  }
  StopServer(&server);
  *samples = rtt.size();
  return Median(rtt);
}

void AddServerLayerMetrics(const std::vector<const SpanLog*>& logs,
                           double kb_ms, double response_bytes,
                           double io_floor_us, size_t io_samples,
                           RunResult* result) {
  auto durations = DurationsUs(logs);
  Metrics& m = result->metrics;
  m.Set("server.io_floor_us", io_floor_us, "us", io_samples);
  const char* const layers[] = {"json_parse", "decode", "dispatch", "encode"};
  for (const char* layer : layers) {
    const auto& d = durations[std::string("server.") + layer];
    m.Set(std::string("server.") + layer + "_us", Median(d), "us", d.size());
  }
  const auto& requests = durations["server.request"];
  double dispatch_us = 0;
  for (double us : durations["server.dispatch"]) dispatch_us += us;
  double n = static_cast<double>(requests.size());
  m.Set("server.response_bytes", Ratio(response_bytes, n), "bytes",
        requests.size());
  m.Set("server.dispatch_overhead_us",
        Ratio(dispatch_us - kb_ms * 1e3, n), "us", requests.size());
}

namespace {

void Summarize(const World& world, const std::vector<ClientLog>& logs,
               RunResult* result) {
  std::vector<std::vector<double>> by_class(world.classes.size());
  std::vector<double> all, reads, tc_writes, pubs_writes;
  double seconds = 0;
  for (const ClientLog& log : logs) {
    result->attempted += log.attempted;
    result->failed += log.failed;
    for (const std::string& w : log.wrong) result->Wrong(w);
    seconds = std::max(seconds, log.seconds);
    for (size_t c = 0; c < log.latency_ms.size(); ++c) {
      const auto& l = log.latency_ms[c];
      by_class[c].insert(by_class[c].end(), l.begin(), l.end());
      all.insert(all.end(), l.begin(), l.end());
      bool write = world.mixed && c >= 2;
      auto& into = !write ? reads : (c == 2 ? tc_writes : pubs_writes);
      into.insert(into.end(), l.begin(), l.end());
    }
  }
  std::vector<OpClass> classes;
  for (size_t c = 0; c < by_class.size(); ++c) {
    classes.push_back({world.classes[c], by_class[c]});
  }
  SetClassMetrics(classes, result);
  Metrics& r = result->report;
  double ok = static_cast<double>(all.size());
  r.Set("throughput_rps", Ratio(ok, seconds), "1/s", all.size());
  r.Set("query_p50_ms", Percentile(reads, 0.5), "ms", reads.size());
  r.Set("query_p99_ms", Percentile(reads, 0.99), "ms", reads.size());
  if (world.mixed) {
    r.Set("write_tc_p50_ms", Percentile(tc_writes, 0.5), "ms",
          tc_writes.size());
    r.Set("write_tc_p99_ms", Percentile(tc_writes, 0.99), "ms",
          tc_writes.size());
    r.Set("write_pubs_p50_ms", Percentile(pubs_writes, 0.5), "ms",
          pubs_writes.size());
    r.Set("write_pubs_p99_ms", Percentile(pubs_writes, 0.99), "ms",
          pubs_writes.size());
  }
  r.Set("failed_share",
        Ratio(static_cast<double>(result->failed),
              static_cast<double>(result->attempted)),
        "ratio", result->attempted);

}

void RunServeTraced(const RunOptions& options, const World& world,
                    RunResult* result) {
  // serve-mixed also profiles the two translation routes its tenants do
  // not take, so one traced run covers the whole prepare stack.
  std::vector<std::pair<std::string, std::string>> programs = world.programs;
  if (world.mixed) {
    Rng rng = StreamFor(options.seed, "translated-routes");
    for (const CheckedProgram& p : TranslatedRoutePrograms(rng)) {
      programs.push_back({p.name, p.text});
    }
  }
  SpanLog profile_log;
  ProfilePrepares(programs, kProfileReps, &profile_log, result);
  std::unique_ptr<ServerStack> stack = SetUp(world, false, result);
  if (stack == nullptr) return;
  size_t io_samples = 0;
  double io_floor = MeasureIoFloorUs(&stack->dispatcher, 0.5, &io_samples);

  std::map<std::string, ServiceStats> before;
  for (const auto& [name, text] : world.programs) {
    before[name] = stack->registry.Find(name)->kb->stats();
  }
  // The closed loop's request streams, replayed in-process at the same
  // client count.
  std::vector<SpanLog> logs(kClients);
  std::vector<ClientLog> clients(kClients);
  std::vector<std::map<std::string, double>> answers(kClients);
  std::vector<double> bytes(kClients, 0);
  std::atomic<uint64_t> next_request{0};
  // Spans cost memory and trace-file space per request; a few seconds of
  // the stream give every per-layer median thousands of samples.
  const double replay_seconds = std::min(options.seconds, kReplaySeconds);
  uint64_t start = NowNs();
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      OpSource source(world, options, c);
      ClientLog& log = clients[c];
      while (true) {
        bool finishing = SecondsSince(start) >= replay_seconds;
        if (finishing && !source.outstanding()) break;
        Op op = source.Next(finishing);
        ++log.attempted;
        WireStep step =
            ReplayRequest(&stack->dispatcher, op.line, ++next_request, &logs[c]);
        bytes[c] += static_cast<double>(step.response_bytes);
        std::string why;
        if (!step.ok) {
          why = "not ok: " + step.outcome.error_message;
        } else if (op.kind == Op::kQuery) {
          answers[c][step.outcome.kb] +=
              static_cast<double>(step.outcome.query.answers.size());
          why = CheckAnswers(*op.expect, step.outcome.query.answers);
        } else if ((op.kind == Op::kAssert
                        ? step.outcome.assert_reply.new_atoms
                        : step.outcome.retract.removed) != 1) {
          why = "write changed no fact";
        }
        if (!why.empty()) {
          ++log.failed;
          RecordWrong(&log, op.line, why);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const ClientLog& log : clients) {
    result->attempted += log.attempted;
    result->failed += log.failed;
    for (const std::string& w : log.wrong) result->Wrong(w);
  }
  std::vector<TenantRun> tenants;
  double kb_ms = 0;
  for (const auto& [name, text] : world.programs) {
    TenantRun t;
    t.name = name;
    const auto& kb = *stack->registry.Find(name)->kb;
    t.delta = Minus(kb.stats(), before[name]);
    for (const auto& a : answers) {
      auto it = a.find(name);
      if (it != a.end()) t.answers += it->second;
    }
    t.drift = static_cast<int64_t>(kb.model_size()) -
              static_cast<int64_t>(stack->prepared_atoms[name]);
    kb_ms += t.delta.query_wall_ms + t.delta.assert_wall_ms +
             t.delta.retract_wall_ms;
    tenants.push_back(std::move(t));
  }
  AddServiceLayerMetrics(tenants, result);
  double total_bytes = 0;
  for (double b : bytes) total_bytes += b;
  std::vector<const SpanLog*> all_logs;
  for (const SpanLog& l : logs) all_logs.push_back(&l);
  AddServerLayerMetrics(all_logs, kb_ms, total_bytes, io_floor, io_samples,
                        result);
  FinalChecks(world, stack.get(), result);
  all_logs.push_back(&profile_log);
  if (!options.trace_out.empty() && !WriteSpans(options.trace_out, all_logs)) {
    result->Wrong("cannot write " + options.trace_out);
  }
}

}  // namespace

void RunServe(const RunOptions& options, RunResult* result) {
  uint64_t ref_start = NowNs();
  World world = MakeWorld(options);
  result->report.Set("reference_s", SecondsSince(ref_start), "s");
  if (options.trace) {
    RunServeTraced(options, world, result);
    return;
  }
  std::vector<double> setup_s;
  std::unique_ptr<ServerStack> stack;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (stack != nullptr) StopServer(stack->server.get());
    stack.reset();
    uint64_t start = NowNs();
    stack = SetUp(world, true, result);
    if (stack == nullptr) return;
    setup_s.push_back(SecondsSince(start));
  }
  for (const auto& [name, atoms] : stack->prepared_atoms) {
    result->report.Set(name + ".prepared_model_atoms",
                       static_cast<double>(atoms), "count");
  }
  std::vector<ClientLog> logs(kClients);
  const uint64_t measure_ns =
      NowNs() + static_cast<uint64_t>(kWarmupSeconds * 1e9);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back(RunClient, stack->server->port(), std::cref(world),
                         std::cref(options), c, measure_ns, &logs[c]);
  }
  for (std::thread& t : clients) t.join();
  StopServer(stack->server.get());
  Summarize(world, logs, result);
  FinalChecks(world, stack.get(), result);
  result->metrics.Set("setup_s", Median(setup_s), "s", setup_s.size());
  result->metrics.Set("peak_rss_mb", PeakRssMb(), "MiB");
}

}  // namespace perfbench
