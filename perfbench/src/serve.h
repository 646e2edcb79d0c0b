// The gerel-server workloads (serve-read, serve-mixed) and the server-layer
// helpers the traced runs of every workload share.
#ifndef PERFBENCH_SERVE_H_
#define PERFBENCH_SERVE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "report.h"
#include "server/dispatch.h"
#include "service/stats.h"

namespace perfbench {

// One request line run in-process through the layers a server worker
// runs: JsonValue::Parse, DecodeRequest, Dispatcher::Dispatch and
// EncodeResponse, each in its own span under a "server.request" span.
struct WireStep {
  bool ok = false;  // Parsed, decoded and dispatched with status ok.
  gerel::server::DispatchOutcome outcome;
  size_t response_bytes = 0;
};
WireStep ReplayRequest(gerel::server::Dispatcher* dispatcher,
                       const std::string& line, uint64_t request,
                       SpanLog* log);

// Round-trip times of requests the server rejects as unknown_kb, over one
// loopback connection to a SocketServer on `dispatcher`: the cost of
// socket I/O, framing and the codec with no KB work. Median, µs.
double MeasureIoFloorUs(gerel::server::Dispatcher* dispatcher,
                        double seconds, size_t* samples);

// Adds the server.* per-layer metrics from the replay spans. `kb_ms` is
// the KB time the tenants' ServiceStats account for during the replay.
void AddServerLayerMetrics(const std::vector<const SpanLog*>& logs,
                           double kb_ms, double response_bytes,
                           double io_floor_us, size_t io_samples,
                           RunResult* result);

// What a replay did to one tenant: ServiceStats counter deltas, answers
// returned, and the model size minus its prepared size.
struct TenantRun {
  std::string name;
  gerel::ServiceStats delta;
  double answers = 0;
  int64_t drift = 0;
};
// Adds "service.<tenant>.*" to the report and their sums over tenants,
// "service.*", to the per-layer metrics.
void AddServiceLayerMetrics(const std::vector<TenantRun>& tenants,
                            RunResult* result);

void RunServe(const RunOptions& options, RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_SERVE_H_
