#include "campaign/coordinator.h"

#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <thread>
#include <unordered_map>

#include "campaign/protocol.h"
#include "campaign/worker.h"
#include "store/writer.h"
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

/// One live worker and its in-flight lease.
struct WorkerSlot {
  ChildProc proc;
  FrameDecoder dec;
  /// Leased cell index, or -1 when idle.
  int leasedCell = -1;
  double leaseSentAt = 0.0;
};

struct ProgressLine {
  bool enabled = false;
  std::string campaign;
  int shardCells = 0;
  double t0 = 0.0;
  double lastEmit = 0.0;

  void emit(int done, int cached, std::size_t queueDepth, int liveWorkers, bool force) {
    if (!enabled) return;
    const double now = nowSec();
    if (!force && now - lastEmit < 0.5) return;
    lastEmit = now;
    const double elapsed = now - t0;
    // Resume cache hits are free; only cells that actually ran count
    // toward throughput, so a resumed campaign's ETA stays honest.
    const int ran = done - cached;
    const double rate = elapsed > 0.0 ? ran / elapsed : 0.0;
    char eta[32];
    if (rate > 0.0) {
      std::snprintf(eta, sizeof eta, "%.0fs", (shardCells - done) / rate);
    } else {
      std::snprintf(eta, sizeof eta, "--");
    }
    std::fprintf(stderr,
                 "[campaign %s] %d/%d cells (%d ran, %d cached) | queue %zu | %d workers | "
                 "%.2f cells/s | ETA %s\n",
                 campaign.c_str(), done, shardCells, ran, cached, queueDepth, liveWorkers,
                 rate, eta);
    std::fflush(stderr);
  }
};

}  // namespace

bool runCampaignWorkQueue(const SweepSpec& spec, const WorkQueueOptions& opts,
                          WorkQueueCampaign& out, std::string& err) {
  out = WorkQueueCampaign();
  out.name = spec.name;
  out.shardIndex = opts.shardIndex;
  out.shardCount = opts.shardCount;

  std::vector<SweepCell> cells;
  if (!expandSweep(spec, cells, err)) return false;
  out.totalCells = static_cast<int>(cells.size());

  static const telemetry::CounterId kLeases = telemetry::counterId("campaign.leases");
  static const telemetry::CounterId kRequeues = telemetry::counterId("campaign.requeues");
  static const telemetry::CounterId kDeaths = telemetry::counterId("campaign.worker_deaths");
  static const telemetry::TimerId kLeaseRtt = telemetry::timerId("campaign.lease_rtt");
  static const telemetry::TimerId kReduce = telemetry::timerId("campaign.reduce");

  const double t0 = nowSec();

  // This shard's cells, in expansion order; leaf index in the reduction
  // tree = position here, so the reduced root only depends on the shard's
  // cell set, never on worker scheduling.
  std::vector<const SweepCell*> shardCells;
  for (const SweepCell& cell : cells) {
    if (cellInShard(cell.index, opts.shardIndex, opts.shardCount)) shardCells.push_back(&cell);
  }
  out.cells.resize(shardCells.size());
  for (std::size_t i = 0; i < shardCells.size(); ++i) out.cells[i].cell = *shardCells[i];
  std::unordered_map<int, std::size_t> leafOf;  // cell.index -> leaf/record position
  for (std::size_t i = 0; i < shardCells.size(); ++i) leafOf[shardCells[i]->index] = i;

  store::StoreWriter storeWriter;
  if (!opts.storePath.empty()) {
    store::StoreMeta meta;
    meta.campaign = spec.name;
    meta.base = spec.baseName;
    meta.totalCells = out.totalCells;
    meta.shardIndex = opts.shardIndex;
    meta.shardCount = opts.shardCount;
    meta.cellSlots = shardCells.size();
    meta.stripWall = opts.storeStripWall;
    if (!storeWriter.open(opts.storePath, meta, err)) return false;
  }

  TreeReducer reducer(shardCells.size());
  int done = 0;
  const int shardTotal = static_cast<int>(shardCells.size());

  // The one RESULT handler.  Every counted cell — resumed from cache, run
  // inline, or run by a forked worker — arrives as a RESULT body and lands
  // here: fill the record, append the store row (by slot, so arrival order
  // is irrelevant to the file's final bytes), then fold the reduction leaf.
  const auto consumeResult = [&](std::size_t leaf, const Json& body, bool fromCache,
                                 std::string& resultErr) {
    CellRecord& rec = out.cells[leaf];
    rec.fromCache = fromCache;
    rec.failures = static_cast<int>(body.numberAt("failures"));
    rec.delivered = static_cast<int>(body.numberAt("delivered"));
    rec.valid = static_cast<int>(body.numberAt("valid"));
    rec.invalid = static_cast<int>(body.numberAt("invalid"));
    rec.wallSec = body.numberAt("wall_sec");
    const Json* moments = body.find("moments");
    NamedStats stats = moments ? momentsFromJson(*moments) : NamedStats{};
    for (const auto& [name, st] : stats) {
      if (name == "slots") rec.slotsMean = st.moments.mean();
      if (name == "decode_rate") rec.decodeRateMean = st.moments.mean();
      if (name == "wall_sec") rec.wallMeanSec = st.moments.mean();
    }
    if (storeWriter.isOpen()) {
      const Json* probesJson = body.find("probes");
      const telemetry::ProbeState probes =
          probesJson ? telemetry::probesFromJson(*probesJson) : telemetry::ProbeState();
      MetricMap tm;
      if (const Json* tmJson = body.find("telemetry");
          tmJson != nullptr && tmJson->isObject()) {
        for (const auto& [name, value] : tmJson->members()) tm.set(name, value.asDouble());
      }
      store::StoreCellRow row;
      row.cellIndex = rec.cell.index;
      row.label = rec.cell.label;
      row.assignments = rec.cell.assignments;
      row.seeds = rec.cell.spec.seeds;
      row.failures = rec.failures;
      row.delivered = rec.delivered;
      row.valid = rec.valid;
      row.invalid = rec.invalid;
      row.stats = &stats;
      row.telemetry = &tm;
      row.probes = &probes;
      std::string rowErr;
      if (!storeWriter.appendCell(leaf, row, rowErr)) {
        resultErr = "cell " + std::to_string(rec.cell.index) + " store row: " + rowErr;
        return false;
      }
    }
    const double r0 = nowSec();
    reducer.addLeaf(leaf, std::move(stats));
    telemetry::timerRecord(kReduce, static_cast<std::uint64_t>((nowSec() - r0) * 1e9));
    out.peakPendingNodes = std::max(out.peakPendingNodes, reducer.pendingNodes());
    ++done;
    return true;
  };

  // Resume pass: trusted cached cells go through the RESULT handler before
  // anything is leased.
  std::deque<int> queue;  // pending cell indices, expansion order
  for (std::size_t i = 0; i < shardCells.size(); ++i) {
    const SweepCell& cell = *shardCells[i];
    if (opts.resume) {
      const std::string path = cellFilePath(opts.outDir, spec.name, cell.index);
      CellResult cached;
      std::string loadErr;
      if (std::filesystem::exists(path) && loadCellResult(path, cached, loadErr) &&
          cellCacheMatches(cached, cell)) {
        cached.cell = cell;  // trust the freshly expanded spec, not the file
        if (!consumeResult(i, resultFrame(cached, 0.0).body, true, err)) return false;
        if (opts.onCell) opts.onCell(cell, true);
        continue;
      }
      // Stale or unreadable: fall through and lease the cell.
    }
    queue.push_back(cell.index);
  }

  ProgressLine progress;
  progress.enabled = opts.heartbeat;
  progress.campaign = spec.name;
  progress.shardCells = shardTotal;
  progress.t0 = t0;

  const auto countLease = [&](int cellIndex) {
    ++out.leases;
    telemetry::counterAdd(kLeases);
    if (opts.onCell) opts.onCell(*shardCells[leafOf.at(cellIndex)], false);
  };
  const auto workerConfig = [&]() {
    WorkerConfig cfg;
    cfg.campaign = spec.name;
    cfg.outDir = opts.outDir;
    cfg.threads = opts.threadsPerWorker;
    return cfg;
  };

  // Inline executor: lease each queued cell to this process, in order.
  // It drains the queue, so the forked machinery below spawns nothing.
  if (opts.workers <= 0) {
    const WorkerConfig cfg = workerConfig();
    while (!queue.empty()) {
      const int cellIndex = queue.front();
      queue.pop_front();
      countLease(cellIndex);
      const std::size_t leaf = leafOf.at(cellIndex);
      Frame result;
      if (!executeCell(*shardCells[leaf], cfg, result, err) ||
          !consumeResult(leaf, result.body, false, err)) {
        return false;
      }
      progress.emit(done, out.cachedCells(), queue.size(), 0, done == shardTotal);
    }
  }

  // Forked executor.  Never more workers than leases to hand out.
  const int workerCount =
      static_cast<int>(std::min<std::size_t>(std::max(opts.workers, 0), queue.size()));

  const SigPipeGuard sigpipe;  // dead-worker writes must be EPIPE, not SIGPIPE
  // Per-worker trace dumps: distinct worker ordinals (respawns included)
  // keep pids and file names collision-free; the merge pass below folds
  // whatever files materialized into the single --trace-out trace.
  const bool tracingWorkers =
      opts.workers > 0 && !opts.traceOut.empty() && telemetry::traceEnabled();
  int nextWorkerId = 0;
  std::vector<std::string> workerTracePaths;

  std::vector<WorkerSlot> workers;
  const auto liveFds = [&]() {
    std::vector<int> fds;
    for (const WorkerSlot& w : workers) {
      if (w.proc.valid()) fds.push_back(w.proc.fd);
    }
    return fds;
  };
  const auto spawnWorker = [&]() -> bool {
    WorkerConfig workerCfg = workerConfig();
    workerCfg.workerId = nextWorkerId++;
    if (tracingWorkers) {
      workerCfg.tracePath = opts.traceOut + ".worker" + std::to_string(workerCfg.workerId);
      workerTracePaths.push_back(workerCfg.tracePath);
    }
    const auto childMain = [&cells, workerCfg](int fd) {
      return campaignWorkerMain(fd, cells, workerCfg);
    };
    WorkerSlot slot;
    if (!spawnChildWithSocket(childMain, liveFds(), slot.proc, err)) return false;
    std::string fdErr;
    if (!setNonBlocking(slot.proc.fd, true, fdErr)) {
      killChildProc(slot.proc);
      err = fdErr;
      return false;
    }
    workers.push_back(std::move(slot));
    return true;
  };
  const auto liveWorkers = [&]() {
    int n = 0;
    for (const WorkerSlot& w : workers) n += w.proc.valid() ? 1 : 0;
    return n;
  };
  const auto teardown = [&]() {
    for (WorkerSlot& w : workers) {
      if (w.proc.valid()) killChildProc(w.proc);
    }
  };

  // A deterministically crashing cell must become an error, not a fork
  // loop: the budget is generous against real transient deaths (each one
  // costs a respawn) but bounded in the cell count and fleet size.
  const std::uint64_t deathBudget = static_cast<std::uint64_t>(workerCount) * 2 + 4;
  bool faultArmed = opts.faultKillCell >= 0;

  for (int i = 0; i < workerCount; ++i) {
    if (!spawnWorker()) {
      teardown();
      return false;
    }
  }

  const auto sendLease = [&](WorkerSlot& w, int cellIndex) -> bool {
    Frame lease = makeFrame(FrameType::Lease);
    lease.body.set("cell", cellIndex);
    std::string sendErr;
    if (!writeFrame(w.proc.fd, encodeFrame(lease), sendErr)) return false;
    w.leasedCell = cellIndex;
    w.leaseSentAt = nowSec();
    countLease(cellIndex);
    return true;
  };

  const auto handleDeath = [&](WorkerSlot& w) {
    ++out.workerDeaths;
    telemetry::counterAdd(kDeaths);
    if (w.leasedCell >= 0) {
      queue.push_front(w.leasedCell);  // requeue: idempotent by construction
      w.leasedCell = -1;
      ++out.requeues;
      telemetry::counterAdd(kRequeues);
    }
    killChildProc(w.proc);  // already dead; reaps the zombie and closes the fd
  };

  std::string protocolErr;
  while (done < shardTotal && protocolErr.empty()) {
    // Lease to every idle live worker first.
    for (WorkerSlot& w : workers) {
      if (queue.empty()) break;
      if (!w.proc.valid() || w.leasedCell >= 0) continue;
      const int cellIndex = queue.front();
      queue.pop_front();
      if (!sendLease(w, cellIndex)) {
        queue.push_front(cellIndex);
        handleDeath(w);
      }
    }
    if (liveWorkers() == 0) {
      if (out.workerDeaths > deathBudget) {
        protocolErr = "worker death budget exhausted (" + std::to_string(out.workerDeaths) +
                      " deaths) — a cell is crashing its worker deterministically";
        break;
      }
      if (!spawnWorker()) {
        protocolErr = err;
        break;
      }
      continue;
    }

    std::vector<pollfd> pfds;
    std::vector<std::size_t> pfdSlot;
    for (std::size_t i = 0; i < workers.size(); ++i) {
      if (!workers[i].proc.valid()) continue;
      pfds.push_back(pollfd{workers[i].proc.fd, POLLIN, 0});
      pfdSlot.push_back(i);
    }
    const int ready = ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), 200);
    if (ready < 0 && errno != EINTR) {
      protocolErr = "poll: " + std::string(std::strerror(errno));
      break;
    }

    for (std::size_t p = 0; p < pfds.size() && protocolErr.empty(); ++p) {
      if ((pfds[p].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      WorkerSlot& w = workers[pfdSlot[p]];
      if (!w.proc.valid()) continue;

      // Drain the socket; EOF after the drain is a death.
      bool sawEof = false;
      char buf[65536];
      for (;;) {
        const ssize_t n = ::read(w.proc.fd, buf, sizeof buf);
        if (n > 0) {
          w.dec.feed(buf, static_cast<std::size_t>(n));
          continue;
        }
        if (n == 0) sawEof = true;
        if (n < 0 && errno == EINTR) continue;
        break;  // EOF, EAGAIN, or error
      }

      std::string payload;
      while (protocolErr.empty() && w.dec.next(payload)) {
        Frame frame;
        std::string decodeErr;
        if (!decodeFrame(payload, frame, decodeErr)) {
          protocolErr = "worker frame: " + decodeErr;
          break;
        }
        const int cellIndex = static_cast<int>(frame.body.numberAt("cell", -1.0));
        if (frame.type == FrameType::Heartbeat) {
          if (cellIndex == w.leasedCell) {
            telemetry::timerRecord(
                kLeaseRtt, static_cast<std::uint64_t>((nowSec() - w.leaseSentAt) * 1e9));
          }
          if (faultArmed && cellIndex == opts.faultKillCell) {
            // Fault injection: the worker just started this cell — kill it
            // mid-cell and let the normal EOF path requeue the lease.
            faultArmed = false;
            ::kill(w.proc.pid, SIGKILL);
          }
          continue;
        }
        if (frame.type != FrameType::Result) continue;
        const auto leafIt = leafOf.find(cellIndex);
        if (leafIt == leafOf.end() || cellIndex != w.leasedCell) {
          protocolErr = "worker returned unleased cell " + std::to_string(cellIndex);
          break;
        }
        if (!consumeResult(leafIt->second, frame.body, false, protocolErr)) break;
        w.leasedCell = -1;
        progress.emit(done, out.cachedCells(), queue.size(), liveWorkers(),
                      done == shardTotal);
        if (!queue.empty()) {
          const int next = queue.front();
          queue.pop_front();
          if (!sendLease(w, next)) {
            queue.push_front(next);
            handleDeath(w);
            break;
          }
        }
      }
      if (protocolErr.empty() && w.proc.valid() && (w.dec.bad() || sawEof)) {
        handleDeath(w);
        if (out.workerDeaths > deathBudget) {
          protocolErr = "worker death budget exhausted (" +
                        std::to_string(out.workerDeaths) +
                        " deaths) — a cell is crashing its worker deterministically";
        }
      }
    }
  }

  if (!protocolErr.empty()) {
    teardown();
    err = protocolErr;
    return false;
  }

  // Graceful drain: DONE to every live worker, then close and reap.
  for (WorkerSlot& w : workers) {
    if (!w.proc.valid()) continue;
    std::string sendErr;
    (void)writeFrame(w.proc.fd, encodeFrame(makeFrame(FrameType::Done)), sendErr);
    ::close(w.proc.fd);
    w.proc.fd = -1;
    int status = 0;
    // The worker is between frames, so DONE (or the EOF from our close)
    // ends it promptly; the deadline only guards against a wedged child.
    const double deadline = nowSec() + 10.0;
    while (!reapChild(w.proc, status)) {
      if (nowSec() > deadline) {
        killChildProc(w.proc);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  if (storeWriter.isOpen() && !storeWriter.finish(err)) return false;

  // Merge the per-worker trace dumps (written at DONE, which the drain
  // above waited for) into one Chrome trace: events concatenate verbatim —
  // each worker's events are already rebased within its own pid lane and
  // ts monotonicity is only checked per (pid, tid).  The coordinator runs
  // no simulation, so its own ring contributes nothing.
  if (tracingWorkers) {
    Json merged = Json::object();
    merged.set("displayTimeUnit", "ms");
    Json events = Json::array();
    for (const std::string& path : workerTracePaths) {
      Json workerTrace;
      std::string parseErr;
      if (!std::filesystem::exists(path) ||
          !Json::parseFile(path, workerTrace, parseErr)) {
        continue;  // worker died before dumping: merge what exists
      }
      if (const Json* list = workerTrace.find("traceEvents");
          list != nullptr && list->isArray()) {
        for (const Json& e : list->items()) events.push_back(e);
      }
      std::error_code ec;
      std::filesystem::remove(path, ec);
    }
    merged.set("traceEvents", std::move(events));
    std::ofstream f(opts.traceOut);
    f << merged.dump() << '\n';
    f.flush();
    if (!f.good()) {
      err = "cannot write merged trace \"" + opts.traceOut + "\"";
      return false;
    }
  }

  out.reduction = reducer.root();
  out.wallSec = nowSec() - t0;
  return true;
}

}  // namespace mcs::campaign
