#pragma once

#include <string>
#include <vector>

#include "campaign/protocol.h"
#include "sweep/expand.h"

/// The campaign worker: the cell body every executor runs, and the
/// child side of the work-queue protocol.  A forked worker is spawned
/// from the coordinator after sweep expansion, so it already holds the
/// full cell vector; it then loops — read LEASE, ack with HEARTBEAT, run
/// executeCell, stream the RESULT back — until a DONE frame (or EOF,
/// meaning the coordinator died) ends it.  The coordinator's inline
/// executor (workers == 0) calls the same executeCell in its own
/// process, so every cell file is identical across executors (wall
/// times aside), which is what makes leases idempotent and crash
/// re-leasing safe.
namespace mcs::campaign {

struct WorkerConfig {
  /// Campaign (sweep) name — names the cell-file directory.
  std::string campaign;
  std::string outDir = ".";
  /// ThreadPool lanes per cell batch (<= 1: sequential seeds).
  int threads = 1;
  /// Zero-based worker ordinal; tags trace events with pid = workerId + 1
  /// so merged traces keep one viewer lane per worker process.
  int workerId = 0;
  /// When non-empty (tracing armed), the worker dumps its trace ring to
  /// this file on DONE/EOF; the coordinator merges the per-worker files
  /// into the single --trace-out trace and deletes them.
  std::string tracePath;
};

/// The one cell body: runs `cell`'s seed batch under the `sweep.cell`
/// timer, attributes the telemetry delta and probe state captured around
/// it to the cell, atomically writes the per-cell JSON, and fills
/// `result` with the RESULT frame (resultFrame).  The file lands before
/// the frame exists, so a RESULT guarantees a complete cell file on disk.
/// Cells must run one at a time per process: the telemetry and probe
/// brackets attribute everything the process records in between.
/// False (with `err`) when the cell file cannot be written.
bool executeCell(const SweepCell& cell, const WorkerConfig& cfg, Frame& result,
                 std::string& err);

/// Runs the worker protocol loop over `fd` until DONE or EOF.  Returns
/// the child exit code: 0 on a clean DONE/EOF, nonzero on protocol or
/// I/O errors (the coordinator sees any nonzero exit as a worker death
/// and requeues the in-flight lease) — 3 when a LEASE names a cell index
/// outside the expansion.
int campaignWorkerMain(int fd, const std::vector<SweepCell>& cells, const WorkerConfig& cfg);

}  // namespace mcs::campaign
