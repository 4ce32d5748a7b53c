#include "sinr/medium.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <cmath>
#include <limits>
#include <mutex>
#include <string>
#include <type_traits>

#include "telemetry/probes.h"
#include "telemetry/telemetry.h"

namespace mcs {

namespace {

/// Registered once; the ids are stable for the process.  Counter totals
/// are deterministic per seed and thread-count invariant (the engine's
/// reproducibility contracts make the underlying work deterministic);
/// timers measure wall time and are not.
struct MediumTelemetry {
  telemetry::TimerId resolve = telemetry::timerId("medium.resolve_slot");
  telemetry::TimerId populate = telemetry::timerId("medium.populate");
  telemetry::TimerId buildFields = telemetry::timerId("medium.build_fields");
  telemetry::TimerId sweep = telemetry::timerId("medium.sweep");
  telemetry::TimerId hierTraverse = telemetry::timerId("geom.hier_traverse");
  telemetry::CounterId slots = telemetry::counterId("medium.slots");
  telemetry::CounterId txIntents = telemetry::counterId("medium.tx_intents");
  telemetry::CounterId listenIntents = telemetry::counterId("medium.listen_intents");
  telemetry::CounterId decodes = telemetry::counterId("medium.decodes");
  telemetry::CounterId candidates = telemetry::counterId("medium.decode_candidates");
  telemetry::CounterId exactPairs = telemetry::counterId("medium.exact_pairs");
  telemetry::CounterId nearPairs = telemetry::counterId("medium.near_pairs_exact");
  telemetry::CounterId farCells = telemetry::counterId("medium.far_cells_batched");
  // Decode-attribution causes (probes-armed runs only).  Exclusive per
  // failed listen, so their sum equals listen_intents - decodes exactly —
  // the partition invariant CI checks on every smoke.
  telemetry::CounterId causeNoTransmitter = telemetry::counterId("cause.no_transmitter");
  telemetry::CounterId causeDeadListener = telemetry::counterId("cause.dead_listener");
  telemetry::CounterId causeNoiseLimited = telemetry::counterId("cause.noise_limited");
  telemetry::CounterId causeInterferenceLimited =
      telemetry::counterId("cause.interference_limited");
  telemetry::CounterId causeNearfarTruncated =
      telemetry::counterId("cause.nearfar_truncated");
  telemetry::CounterId causeLostTie = telemetry::counterId("cause.lost_tie");
};

const MediumTelemetry& mediumTm() {
  static const MediumTelemetry ids;
  return ids;
}

/// Hier admissions are reported per pyramid level; ids are registered
/// lazily the first time a level is seen.
telemetry::CounterId hierLevelCounter(int level) {
  return telemetry::counterId("medium.hier_far_cells.L" + std::to_string(level));
}

}  // namespace

Medium::Medium(SinrParams params, int numChannels, int numThreads)
    : params_(params),
      kernel_(params.kernel()),
      fading_(params.fading, FadingField::kDefaultKey),
      numChannels_(numChannels),
      // NearFar decode correctness requires nearRadius_ >= R_T (every
      // decodable transmitter must be summed exactly); clamp rather than
      // trust the assert below, which is compiled out in Release.
      nearRadius_(std::max(params.nearField, 1.0) * params.transmissionRange()) {
  assert(params_.valid());
  assert(numChannels_ >= 1);
  assert(numThreads >= 1);
  if (numThreads > 1) pool_ = std::make_unique<ThreadPool>(numThreads);
}

void Medium::buildFields(double theta, int levels) {
  fields_.resize(static_cast<std::size_t>(numChannels_));
  // Half the near radius balances batching (fewer kernel calls per far
  // cell) against centroid accuracy (smaller spread within a cell).
  const double cellSize = nearRadius_ * 0.5;
  for (int c = 0; c < numChannels_; ++c) {
    ChannelField& f = fields_[static_cast<std::size_t>(c)];
    f.lo = ws_.bucketBegin(static_cast<ChannelId>(c));
    const std::int32_t hi = ws_.bucketEnd(static_cast<ChannelId>(c));
    f.cells.clear();
    f.pyramid.clear();
    if (f.lo == hi) continue;  // no transmitters: cells stay empty
    fieldPts_.clear();
    for (std::int32_t i = f.lo; i < hi; ++i) {
      fieldPts_.push_back({ws_.txX[static_cast<std::size_t>(i)],
                           ws_.txY[static_cast<std::size_t>(i)]});
    }
    f.grid.rebuild(fieldPts_, cellSize);
    hierBase_.clear();
    f.grid.forEachCell([&](long cx, long cy, std::span<const NodeId> ids) {
      Vec2 sum{};
      for (const NodeId id : ids) sum = sum + f.grid.point(id);
      hierBase_.push_back({cx, cy, sum.x, sum.y, static_cast<std::int64_t>(ids.size()),
                           static_cast<std::int32_t>(f.cells.size())});
      f.cells.push_back({cx, cy, ids});
    });
    f.pyramid.build(f.grid.minX(), f.grid.minY(), cellSize, f.grid.nxCells(), f.grid.nyCells(),
                    hierBase_, nearRadius_, theta, levels);
  }
}

void Medium::resolveSlot(std::span<const Vec2> positions, std::span<const Intent> intents,
                         std::vector<Reception>& out) {
  const std::size_t n = positions.size();
  assert(intents.size() == n);
  const telemetry::PhaseTimer resolveTimer(mediumTm().resolve);
  out.assign(n, Reception{});
  ++stats_.slots;

  // Stage the slot in the SoA workspace: channel-bucketed transmitter
  // ids/coordinates (counting sort) plus the listener list.  populate
  // also validates every intent's channel with a Release-armed check.
  std::size_t txTotal;
  {
    const telemetry::PhaseTimer t(mediumTm().populate);
    txTotal = ws_.populate(positions, intents, numChannels_);
  }
  stats_.transmissions += txTotal;
  stats_.listens += ws_.listeners.size();
  if (telemetry::enabled()) {
    telemetry::counterAdd(mediumTm().slots);
    telemetry::counterAdd(mediumTm().txIntents, txTotal);
    telemetry::counterAdd(mediumTm().listenIntents, ws_.listeners.size());
  }
  if (ws_.listeners.empty()) {
    if (telemetry::probesEnabled()) {
      // Listener-free slots still tick the series so the active-transmitter
      // trace covers every resolved slot, not just contended ones.
      telemetry::SlotProbeSample sample;
      sample.txIntents = txTotal;
      telemetry::probeSlot(stats_.slots - 1, sample);
    }
    return;
  }

  const MediumMode mode = params_.mediumMode;
  const bool gridded = mode != MediumMode::Exact;
  const bool hier = mode == MediumMode::Hierarchical;
  if (gridded && txTotal > 0) {
    const telemetry::PhaseTimer t(mediumTm().buildFields);
    // NearFar walks a one-level pyramid, its base cells in row-major
    // order, and admits every cell beyond the near radius (theta = inf).
    const double theta = hier ? params_.hierTheta : std::numeric_limits<double>::infinity();
    buildFields(theta, hier ? HierGrid::kMaxLevels : 1);
  }

  const PowerKernel kern = kernel_;
  const double beta = params_.beta;
  const double noise = params_.noise;
  const double nearR2 = nearRadius_ * nearRadius_;
  constexpr double kMinD2 = SinrParams::kMinDistance * SinrParams::kMinDistance;
  const FadingField fad = fading_;
  const bool hasFading = fad.enabled();
  // Keyed on the slot ordinal so gains redraw every slot (block fading).
  const std::uint64_t slotIdx = ++fadingSlot_;

  std::atomic<std::uint64_t> decodes{0};
  // Per-slot telemetry tallies: lanes accumulate locally (an add per
  // batched cell or near pair, noise next to the kernel work) and publish
  // once per range; the registry is only touched when telemetry is on.
  std::atomic<std::uint64_t> tmCandidates{0};
  std::atomic<std::uint64_t> tmExactPairs{0};
  std::atomic<std::uint64_t> tmNearPairs{0};
  std::atomic<std::uint64_t> tmFarCells{0};
  std::array<std::atomic<std::uint64_t>, HierGrid::kMaxLevels> tmHierLevels{};

  // Decode attribution (telemetry/probes.h): armed runs classify every
  // failed listen into exactly one cause and sketch SINR margins, through
  // a separate compile-time instantiation of the sweep below — the
  // disarmed hot path keeps its exact instruction stream.  Cause tallies
  // ride the same lane-local/publish-once pattern as the counters above;
  // lane margin sketches fold into one slot-level sample under a slot-
  // local mutex (sketch merges commute, so lane arrival order — and hence
  // thread count — cannot change the result).
  const bool probesArmed = telemetry::probesEnabled();
  const std::uint8_t* aliveMask = aliveMask_.empty() ? nullptr : aliveMask_.data();
  const std::size_t aliveMaskSize = aliveMask_.size();
  std::atomic<std::uint64_t> causeNoTx{0};
  std::atomic<std::uint64_t> causeDead{0};
  std::atomic<std::uint64_t> causeNoise{0};
  std::atomic<std::uint64_t> causeInterf{0};
  std::atomic<std::uint64_t> causeTrunc{0};
  std::atomic<std::uint64_t> causeTie{0};
  telemetry::SlotProbeSample slotSample;
  std::mutex slotSampleMu;

  // Exact per-pair re-check of the far field for one failed listener:
  // the strongest far transmitter's *exact* faded power.  Only reachable
  // with fading in a gridded mode — without fading, far implies
  // d > nearR >= R_T, hence rx < beta*noise, so no far transmitter could
  // have decoded under Exact semantics and the scan is skipped entirely.
  const auto farBestExact = [&](ChannelId c, Vec2 pv, NodeId v) {
    const ChannelField& f = fields_[static_cast<std::size_t>(c)];
    double farBest = -1.0;
    for (const FarCell& cell : f.cells) {
      if (f.grid.cellDist2(cell.cx, cell.cy, pv) <= nearR2) continue;
      for (const NodeId local : cell.ids) {
        const NodeId w =
            ws_.txIds[static_cast<std::size_t>(f.lo) + static_cast<std::size_t>(local)];
        const double d2raw = dist2(f.grid.point(local), pv);
        double rx = kern(d2raw > 0.0 ? d2raw : kMinD2);
        rx *= fad.gain(slotIdx, static_cast<std::uint64_t>(w), static_cast<std::uint64_t>(v));
        if (rx > farBest) farBest = rx;
      }
    }
    return farBest;
  };

  const auto processRangeImpl = [&](auto probesTag, std::size_t rangeBegin,
                                    std::size_t rangeEnd) {
    constexpr bool kProbes = decltype(probesTag)::value;
    // Exact-mode sweep tile: distances and kernel values for up to kTile
    // transmitters are staged in flat buffers so the distance and
    // PowerKernel::batch phases auto-vectorize, while the reduction that
    // follows stays scalar and in bucket order — bit-identical totals.
    constexpr std::size_t kTile = 2048;
    double d2Tile[kTile];
    double rxTile[kTile];
    const double* xs = ws_.txX.data();
    const double* ys = ws_.txY.data();
    const NodeId* ids = ws_.txIds.data();

    std::uint64_t localDecodes = 0;
    std::uint64_t localCandidates = 0;
    std::uint64_t localExactPairs = 0;
    std::uint64_t localNearPairs = 0;
    std::uint64_t localFarCells = 0;
    std::array<std::uint64_t, HierGrid::kMaxLevels> localHierLevels{};
    // Attribution lane-locals (dead in the disarmed instantiation).
    [[maybe_unused]] std::uint64_t localCauseNoTx = 0, localCauseDead = 0,
                                   localCauseNoise = 0, localCauseInterf = 0,
                                   localCauseTrunc = 0, localCauseTie = 0;
    QuantileSketch localMargin, localNear, localFar;
    // geom.hier_traverse times hier mode's whole per-listener sweep (the
    // walk and its near-ball exact sums), per worker range rather than
    // per listener: a clock read per listener costs more than the walk
    // it would measure (the per-level admission counters carry the
    // fine-grained breakdown).
    const bool timeHier = hier && telemetry::enabled();
    const std::uint64_t hierT0 = timeHier ? nowNanos() : 0;
    for (std::size_t li = rangeBegin; li < rangeEnd; ++li) {
      const NodeId v = ws_.listeners[li];
      const ChannelId c = intents[static_cast<std::size_t>(v)].channel;
      const std::int32_t lo = ws_.bucketBegin(c);
      const std::int32_t hi = ws_.bucketEnd(c);
      // Liveness is an attribution concern only (see setAliveMask); a dead
      // listener's Reception is computed exactly like everyone else's.
      [[maybe_unused]] bool deadListener = false;
      if constexpr (kProbes) {
        deadListener = aliveMask != nullptr && static_cast<std::size_t>(v) < aliveMaskSize &&
                       aliveMask[static_cast<std::size_t>(v)] == 0;
      }
      if (lo == hi) {  // silent channel
        if constexpr (kProbes) {
          if (deadListener) {
            ++localCauseDead;
          } else {
            ++localCauseNoTx;
          }
        }
        continue;
      }
      ++localCandidates;

      double total = 0.0;
      double best = -1.0;
      NodeId bestTx = kNoNode;
      // Tie tracking (armed only): how many transmitters share the final
      // bit-equal `best` — equality compares never perturb best/bestTx, so
      // receptions stay identical to the disarmed sweep.
      [[maybe_unused]] std::uint64_t tieCount = 0;
      [[maybe_unused]] double farTotal = 0.0;
      const Vec2 pv = positions[static_cast<std::size_t>(v)];

      // Exact accumulation of one transmitter; shared by the NearFar and
      // Hierarchical near paths.  Distinct positions are a model
      // requirement; exactly co-located pairs are clamped to kMinDistance
      // so power and ranging stay finite (any positive distance passes
      // through untouched).
      const auto accumulatePair = [&](NodeId w, Vec2 pw) {
        ++localNearPairs;
        const double d2raw = dist2(pw, pv);
        double rx = kern(d2raw > 0.0 ? d2raw : kMinD2);
        if (hasFading) {
          rx *= fad.gain(slotIdx, static_cast<std::uint64_t>(w), static_cast<std::uint64_t>(v));
        }
        total += rx;
        if constexpr (kProbes) {
          if (rx > best) {
            best = rx;
            bestTx = w;
            tieCount = 1;
          } else if (rx == best && bestTx != kNoNode) {
            ++tieCount;
          }
        } else {
          if (rx > best) {
            best = rx;
            bestTx = w;
          }
        }
      };

      if (mode == MediumMode::Exact) {
        for (std::int32_t i0 = lo; i0 < hi; i0 += static_cast<std::int32_t>(kTile)) {
          const std::size_t base = static_cast<std::size_t>(i0);
          const std::size_t m = std::min(kTile, static_cast<std::size_t>(hi) - base);
          localExactPairs += m;
          for (std::size_t j = 0; j < m; ++j) {
            // Same operand order as dist2(pw, pv) in the scalar path.
            const double dx = xs[base + j] - pv.x;
            const double dy = ys[base + j] - pv.y;
            const double d2raw = dx * dx + dy * dy;
            d2Tile[j] = d2raw > 0.0 ? d2raw : kMinD2;
          }
          kern.batch(d2Tile, rxTile, m);
          if (hasFading) {
            for (std::size_t j = 0; j < m; ++j) {
              rxTile[j] *= fad.gain(slotIdx, static_cast<std::uint64_t>(ids[base + j]),
                                    static_cast<std::uint64_t>(v));
            }
          }
          for (std::size_t j = 0; j < m; ++j) {
            const double rx = rxTile[j];
            total += rx;
            if constexpr (kProbes) {
              if (rx > best) {
                best = rx;
                bestTx = ids[base + j];
                tieCount = 1;
              } else if (rx == best && bestTx != kNoNode) {
                ++tieCount;
              }
            } else {
              if (rx > best) {
                best = rx;
                bestTx = ids[base + j];
              }
            }
          }
        }
      } else {
        const ChannelField& f = fields_[static_cast<std::size_t>(c)];
        // One linear walk over the channel's pyramid (one level in NearFar
        // mode): admissible cells contribute count * P/d(centroid)^alpha
        // in one kernel call; base cells near the listener have every
        // member summed exactly.  Any transmitter that could decode is
        // within R_T <= nearRadius_, hence inside a resolved cell, hence an
        // exact `best` candidate.
        f.pyramid.forEachField(
            pv,
            [&](std::int64_t count, Vec2 centroid, int level, long cx, long cy) {
              ++localFarCells;
              ++localHierLevels[static_cast<std::size_t>(level)];
              const double d2c = dist2(centroid, pv);
              double cellRx = static_cast<double>(count) * kern(d2c > 0.0 ? d2c : kMinD2);
              if (hasFading) {
                // One shared draw per (slot, cell, listener): far cells are
                // already a batched approximation, and a shared gain keeps
                // the per-slot cost O(cells), not O(transmitters).  Hier's
                // key carries a level tag so draws differ across levels.
                const auto uc = static_cast<std::uint64_t>(c);
                const auto ux = static_cast<std::uint64_t>(cx);
                const auto uy = static_cast<std::uint64_t>(cy);
                const std::uint64_t cellId =
                    hier ? mix64((uc << 52) ^ (static_cast<std::uint64_t>(level + 1) << 46) ^
                                 (ux << 23) ^ uy)
                         : mix64((uc << 48) ^ (ux << 24) ^ uy);
                cellRx *= fad.gain(slotIdx, cellId, static_cast<std::uint64_t>(v));
              }
              total += cellRx;
              if constexpr (kProbes) farTotal += cellRx;
            },
            [&](std::int32_t ref) {
              const FarCell& cell = f.cells[static_cast<std::size_t>(ref)];
              for (const NodeId local : cell.ids) {
                accumulatePair(
                    ws_.txIds[static_cast<std::size_t>(f.lo) + static_cast<std::size_t>(local)],
                    f.grid.point(local));
              }
            });
      }

      Reception& r = out[static_cast<std::size_t>(v)];
      r.totalPower = total;
      // SINR condition (1) for the strongest transmitter.  With beta >= 1 no
      // weaker transmitter can satisfy it, so checking the strongest suffices.
      const bool decoded = bestTx != kNoNode && best >= beta * (noise + (total - best));
      if (decoded) {
        r.received = true;
        r.msg = intents[static_cast<std::size_t>(bestTx)].msg;
        r.sinr = best / (noise + (total - best));
        r.signalPower = best;
        r.senderDistance = params_.distanceFromPower(best);
        ++localDecodes;
      }

      if constexpr (kProbes) {
        // SINR margin in dB for every decode candidate (positive decoded,
        // negative failed), plus the near/far split of this listener's
        // interference power.
        if (bestTx != kNoNode) {
          const double denom = beta * (noise + (total - best));
          if (best > 0.0 && denom > 0.0) {
            localMargin.add(10.0 * std::log10(best / denom));
          }
          const double nearInterf = total - farTotal - best;
          if (nearInterf > 0.0) localNear.add(10.0 * std::log10(nearInterf));
        }
        if (farTotal > 0.0) localFar.add(10.0 * std::log10(farTotal));

        if (!decoded) {
          // Exclusive causes, checked in precedence order so every failed
          // listen lands in exactly one bucket (the partition invariant:
          // sum(cause.*) == listen_intents - decodes).
          if (deadListener) {
            ++localCauseDead;
          } else {
            // Would the strongest *far* transmitter have decoded under
            // Exact per-pair semantics?  Only possible with fading in a
            // gridded mode (see farBestExact above).
            const double farBest =
                (gridded && hasFading) ? farBestExact(c, pv, v) : -1.0;
            const double eff = best > farBest ? best : farBest;
            if (eff < beta * noise) {
              // Even with zero interference the strongest signal is
              // under beta: the link itself is too weak.
              ++localCauseNoise;
            } else if (best < beta * noise) {
              // A far transmitter cleared beta*noise but the near-field
              // best did not: the grid approximation truncated a decode
              // that Exact semantics would have allowed.
              ++localCauseTrunc;
            } else if (tieCount >= 2) {
              ++localCauseTie;
            } else {
              ++localCauseInterf;
            }
          }
        }
      }
    }
    decodes.fetch_add(localDecodes, std::memory_order_relaxed);
    if (timeHier) telemetry::timerRecordSlow(mediumTm().hierTraverse, nowNanos() - hierT0);
    if (telemetry::enabled()) {
      tmCandidates.fetch_add(localCandidates, std::memory_order_relaxed);
      tmExactPairs.fetch_add(localExactPairs, std::memory_order_relaxed);
      tmNearPairs.fetch_add(localNearPairs, std::memory_order_relaxed);
      tmFarCells.fetch_add(localFarCells, std::memory_order_relaxed);
      for (int k = 0; hier && k < HierGrid::kMaxLevels; ++k) {
        if (localHierLevels[static_cast<std::size_t>(k)] > 0) {
          tmHierLevels[static_cast<std::size_t>(k)].fetch_add(
              localHierLevels[static_cast<std::size_t>(k)], std::memory_order_relaxed);
        }
      }
    }
    if constexpr (kProbes) {
      causeNoTx.fetch_add(localCauseNoTx, std::memory_order_relaxed);
      causeDead.fetch_add(localCauseDead, std::memory_order_relaxed);
      causeNoise.fetch_add(localCauseNoise, std::memory_order_relaxed);
      causeInterf.fetch_add(localCauseInterf, std::memory_order_relaxed);
      causeTrunc.fetch_add(localCauseTrunc, std::memory_order_relaxed);
      causeTie.fetch_add(localCauseTie, std::memory_order_relaxed);
      {
        const std::lock_guard<std::mutex> lock(slotSampleMu);
        slotSample.marginDb.merge(localMargin);
        slotSample.nearDb.merge(localNear);
        slotSample.farDb.merge(localFar);
      }
    }
  };
  // One compile-time instantiation per arming state: the disarmed sweep
  // keeps its exact instruction stream, the armed one adds only reads and
  // compares — receptions are bit-identical either way.
  const auto processRange = [&](std::size_t rangeBegin, std::size_t rangeEnd) {
    if (probesArmed) {
      processRangeImpl(std::true_type{}, rangeBegin, rangeEnd);
    } else {
      processRangeImpl(std::false_type{}, rangeBegin, rangeEnd);
    }
  };

  {
    const telemetry::PhaseTimer t(mediumTm().sweep);
    if (pool_) {
      pool_->parallelFor(ws_.listeners.size(), processRange);
    } else {
      processRange(0, ws_.listeners.size());
    }
  }
  stats_.decodes += decodes.load(std::memory_order_relaxed);

  if (probesArmed) {
    telemetry::counterAdd(mediumTm().causeNoTransmitter,
                          causeNoTx.load(std::memory_order_relaxed));
    telemetry::counterAdd(mediumTm().causeDeadListener,
                          causeDead.load(std::memory_order_relaxed));
    telemetry::counterAdd(mediumTm().causeNoiseLimited,
                          causeNoise.load(std::memory_order_relaxed));
    telemetry::counterAdd(mediumTm().causeInterferenceLimited,
                          causeInterf.load(std::memory_order_relaxed));
    telemetry::counterAdd(mediumTm().causeNearfarTruncated,
                          causeTrunc.load(std::memory_order_relaxed));
    telemetry::counterAdd(mediumTm().causeLostTie,
                          causeTie.load(std::memory_order_relaxed));
    slotSample.listens = ws_.listeners.size();
    slotSample.decodes = decodes.load(std::memory_order_relaxed);
    slotSample.txIntents = txTotal;
    telemetry::probeSlot(stats_.slots - 1, slotSample);
  }

  if (telemetry::enabled()) {
    telemetry::counterAdd(mediumTm().decodes, decodes.load(std::memory_order_relaxed));
    telemetry::counterAdd(mediumTm().candidates, tmCandidates.load(std::memory_order_relaxed));
    telemetry::counterAdd(mediumTm().exactPairs, tmExactPairs.load(std::memory_order_relaxed));
    telemetry::counterAdd(mediumTm().nearPairs, tmNearPairs.load(std::memory_order_relaxed));
    telemetry::counterAdd(mediumTm().farCells, tmFarCells.load(std::memory_order_relaxed));
    for (int k = 0; k < HierGrid::kMaxLevels; ++k) {
      const std::uint64_t adm = tmHierLevels[static_cast<std::size_t>(k)].load(
          std::memory_order_relaxed);
      if (adm > 0) telemetry::counterAdd(hierLevelCounter(k), adm);
    }
  }
}

}  // namespace mcs
