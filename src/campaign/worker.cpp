#include "campaign/worker.h"

#include <filesystem>
#include <system_error>

#include "sweep/report.h"
#include "sweep/runner.h"
#include "telemetry/probes.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"
#include "util/clock.h"
#include "util/framing.h"
#include "util/proc.h"

namespace mcs::campaign {

namespace {

/// Flattens a telemetry snapshot delta into `out` under a "tm." prefix
/// (counters as totals, timers as ".sec"/".count" pairs).
void recordCellTelemetry(const telemetry::MetricsSnapshot& delta, MetricMap& out) {
  for (const telemetry::CounterSample& c : delta.counters) {
    if (c.value != 0) out.set("tm." + c.name, static_cast<double>(c.value));
  }
  for (const telemetry::TimerSample& t : delta.timers) {
    if (t.count == 0) continue;
    out.set("tm." + t.name + ".sec", t.totalSec);
    out.set("tm." + t.name + ".count", static_cast<double>(t.count));
  }
}

}  // namespace

bool executeCell(const SweepCell& cell, const WorkerConfig& cfg, Frame& result,
                 std::string& err) {
  static const telemetry::TimerId kCellTimer = telemetry::timerId("sweep.cell");
  CellResult res;
  res.cell = cell;
  // Seed batches join before returning, so a snapshot delta around the
  // batch attributes engine counters to this cell exactly (when telemetry
  // is enabled; free otherwise).
  const bool withTelemetry = telemetry::enabled();
  telemetry::MetricsSnapshot before;
  if (withTelemetry) before = telemetry::snapshotMetrics();
  // Probes have no snapshot-delta idiom (sketches don't subtract), so
  // per-cell attribution is a reset/snapshot pair — sound because cells
  // run serially per process; only the seeds within a cell are
  // concurrent, and probe folds commute.
  const bool withProbes = telemetry::probesEnabled();
  if (withProbes) telemetry::resetProbes();
  double cellWall = 0.0;
  {
    const double t0 = nowSec();
    const telemetry::PhaseTimer cellTimer(kCellTimer);
    res.batch = runScenarioBatch(cell.spec, cfg.threads);
    cellWall = nowSec() - t0;
  }
  if (withTelemetry) {
    recordCellTelemetry(telemetry::snapshotMetrics().diff(before), res.telemetry);
  }
  if (withProbes) res.probes = telemetry::snapshotProbes();

  // Atomic cell write *before* RESULT: once the coordinator sees the
  // RESULT, the complete cell file is guaranteed on disk.
  const std::string path = cellFilePath(cfg.outDir, cfg.campaign, cell.index);
  std::error_code ec;
  std::filesystem::create_directories(std::filesystem::path(path).parent_path(), ec);
  if (!writeCellFile(res, path, err)) {
    err = "cell " + std::to_string(cell.index) + ": " + err;
    return false;
  }
  result = resultFrame(res, cellWall);
  return true;
}

int campaignWorkerMain(int fd, const std::vector<SweepCell>& cells, const WorkerConfig& cfg) {
  const SigPipeGuard sigpipe;  // a dying coordinator must surface as EPIPE
  // Trace dump on every exit path (DONE, EOF, protocol error): the
  // coordinator merges whatever per-worker files exist, so a worker that
  // died mid-campaign still contributes the events it recorded.
  const auto dumpTrace = [&cfg] {
    if (cfg.tracePath.empty() || !telemetry::traceEnabled()) return;
    std::string traceErr;
    (void)telemetry::writeTraceFile(cfg.tracePath, traceErr, cfg.workerId + 1,
                                    "worker " + std::to_string(cfg.workerId));
  };
  FrameDecoder dec;
  std::string payload, err;
  for (;;) {
    if (!readFrameBlocking(fd, dec, payload, err)) {
      dumpTrace();
      return err == "eof" ? 0 : 2;  // coordinator gone: quiet exit
    }
    Frame frame;
    if (!decodeFrame(payload, frame, err)) return 2;
    if (frame.type == FrameType::Done) {
      dumpTrace();
      return 0;
    }
    if (frame.type != FrameType::Lease) continue;  // ignore unexpected kinds

    // expandSweep assigns index = position, so the index addresses the
    // cell directly; anything outside the expansion is a protocol error.
    const int index = static_cast<int>(frame.body.numberAt("cell", -1.0));
    if (index < 0 || index >= static_cast<int>(cells.size())) return 3;

    // Lease acknowledgement — the coordinator's liveness signal and the
    // campaign.lease_rtt sample.
    Frame ack = makeFrame(FrameType::Heartbeat);
    ack.body.set("cell", index);
    if (!writeFrame(fd, encodeFrame(ack), err)) return 0;

    Frame result;
    if (!executeCell(cells[static_cast<std::size_t>(index)], cfg, result, err)) return 4;
    if (!writeFrame(fd, encodeFrame(result), err)) return 0;
  }
}

}  // namespace mcs::campaign
