#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "campaign/reduce.h"
#include "scenario/driver.h"
#include "sweep/expand.h"

/// The campaign coordinator: the one campaign engine.  It expands the
/// sweep once, runs a resume pass over the cell files, and leases the
/// remaining cells one at a time to an executor:
///  - inline (workers == 0): each leased cell runs in the coordinator's
///    own process, one after another;
///  - forked (workers > 0): N worker processes connected by socketpairs
///    each hold one lease at a time — a worker that finishes early simply
///    asks for more by finishing, so skewed grids (one heavy axis value)
///    load-balance instead of starving behind a static shard split.
/// Both executors run the same cell body (executeCell, campaign/worker.h)
/// and hand its RESULT frame to the same handler, which fills the
/// CellRecord, appends the store row, and folds the reduction leaf.
///
/// Contracts (locked by tests/test_campaign.cpp):
///  - Every per-cell JSON is byte-identical across executors and worker
///    counts (wall times aside): per-cell results are thread- and
///    process-count invariant.
///  - Leases are idempotent: a cell is identified by its deterministic
///    expansion fingerprint, cell files are written atomically, and
///    re-running a cell reproduces the same bytes — so a lease lost to a
///    worker death is simply requeued.
///  - The campaign-wide reduction folds per-cell moment records through
///    a fixed-shape tree (campaign/reduce.h), so the aggregate is
///    bit-identical no matter which worker finished which cell first.
///  - The campaign store (storePath) is the campaign's report.  Rows land
///    by slot and the metric schema is the union over all cells, fixed
///    when the store finishes, so with wall times stripped the file is
///    byte-identical across executors and worker counts, also when the
///    cells run different protocols and so carry different metrics.
///
/// Worker death (socket EOF, from crash or kill) requeues the in-flight
/// lease and respawns a replacement, up to a death budget that turns a
/// deterministically crashing cell into a campaign error instead of a
/// fork loop.  Memory stays O(cells in flight): the coordinator keeps
/// per-cell counter records and moment summaries, never per-seed rows —
/// those live in the cell files.  Per-cell telemetry and probe state go
/// straight into the store rows; sweep_query merges them from there.
namespace mcs::campaign {

struct WorkQueueOptions {
  /// Forked worker process count; 0 = inline (cells run in this process).
  int workers = 0;
  /// ThreadPool lanes inside each cell's seed batch (default 1: with
  /// forked workers, process parallelism replaces lane parallelism).
  int threadsPerWorker = 1;
  /// Shard of the cell grid to run (cellInShard); 0/1 = everything.
  /// Composes with the work queue, so a CI matrix entry can itself run
  /// one.
  int shardIndex = 0;
  int shardCount = 1;
  /// Skip cells whose per-cell JSON already exists and matches
  /// (cellCacheMatches, checked before anything is leased); mismatched or
  /// unreadable files are re-run.  Off by default: a fresh campaign
  /// overwrites stale cell files instead of trusting them.
  bool resume = false;
  /// Root for per-cell JSONs (`<outDir>/sweep_cells/<campaign>/cell_<i>.json`).
  std::string outDir = ".";
  /// Progress heartbeat on stderr (cells done, queue depth, live
  /// workers, throughput, ETA).
  bool heartbeat = false;
  /// Fault-injection hook for tests/CI (forked workers only): SIGKILL the
  /// worker holding this cell's *first* lease right after it
  /// acknowledges, forcing the requeue path deterministically.  -1 = off.
  int faultKillCell = -1;
  /// Progress hook, called when a cell is leased (or resumed from cache).
  std::function<void(const SweepCell&, bool cached)> onCell;
  /// When non-empty, stream every finished cell into the columnar
  /// campaign store at this path (store/writer.h).  Rows land by slot
  /// (expansion-order position), so the finished file is byte-identical
  /// across executors no matter which worker finished first.  sweep_runner
  /// always sets it.
  std::string storePath;
  /// Zero the wall_sec stats in store rows (count survives) — the store
  /// analogue of stripWallTimes, for byte-for-byte comparisons.
  bool storeStripWall = false;
  /// When non-empty (tracing armed, forked workers), merge every
  /// worker's trace ring into one Chrome trace at this path, with
  /// pid = workerId + 1 and a process_name label per worker — one viewer
  /// lane per process.  Workers dump per-process files next to it
  /// (`<traceOut>.workerN`); the coordinator concatenates them and
  /// deletes the intermediates.  Inline runs record into this process's
  /// own ring instead.
  std::string traceOut;
};

/// What the coordinator retains per cell: identity plus batch counters —
/// O(1) per cell, never per-seed rows.
struct CellRecord {
  SweepCell cell;
  bool fromCache = false;
  int failures = 0;
  int delivered = 0;
  int valid = 0;
  int invalid = 0;
  double wallSec = 0.0;
  /// Display means lifted from the cell's moment record (the CLI table
  /// prints these without reloading the cell file).
  double slotsMean = 0.0;
  double decodeRateMean = 0.0;
  double wallMeanSec = 0.0;
};

struct WorkQueueCampaign {
  std::string name;
  int totalCells = 0;
  int shardIndex = 0;
  int shardCount = 1;
  /// This shard's cells in expansion order (store slot order), regardless
  /// of completion order.
  std::vector<CellRecord> cells;
  /// Tree-reduced campaign-wide per-metric statistics.
  NamedStats reduction;
  /// Peak reducer frontier observed (memory diagnostics/tests).
  std::size_t peakPendingNodes = 0;
  double wallSec = 0.0;
  std::uint64_t leases = 0;
  std::uint64_t requeues = 0;
  std::uint64_t workerDeaths = 0;

  [[nodiscard]] int failures() const noexcept {
    int f = 0;
    for (const CellRecord& c : cells) f += c.failures;
    return f;
  }
  [[nodiscard]] int cachedCells() const noexcept {
    int n = 0;
    for (const CellRecord& c : cells) n += c.fromCache ? 1 : 0;
    return n;
  }
};

/// Runs the campaign.  Returns false on expansion errors, unwritable cell
/// files or store rows, protocol failures, or an exhausted worker-death
/// budget; per-seed failures inside cells do NOT fail the run (they are
/// counted in the records — check WorkQueueCampaign::failures()).
bool runCampaignWorkQueue(const SweepSpec& spec, const WorkQueueOptions& opts,
                          WorkQueueCampaign& out, std::string& err);

}  // namespace mcs::campaign
