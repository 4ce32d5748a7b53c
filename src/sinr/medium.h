#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "geom/grid_index.h"
#include "geom/hier_grid.h"
#include "geom/vec2.h"
#include "sim/message.h"
#include "sinr/fading.h"
#include "sinr/params.h"
#include "sinr/workspace.h"
#include "util/ids.h"
#include "util/thread_pool.h"

/// The shared wireless medium: resolves one slot of simultaneous
/// transmissions across F non-overlapping channels under the SINR rule.
namespace mcs {

/// Aggregate counters maintained by the medium (for metrics/benches).
struct MediumStats {
  std::uint64_t slots = 0;
  std::uint64_t transmissions = 0;
  std::uint64_t listens = 0;
  std::uint64_t decodes = 0;

  [[nodiscard]] double decodeRate() const noexcept {
    return listens ? static_cast<double>(decodes) / static_cast<double>(listens) : 0.0;
  }
};

/// Resolves slots under one of three interference-summation modes,
/// selected by SinrParams::mediumMode:
///
///  - MediumMode::Exact (default): every same-channel transmitter
///    contributes P/d^alpha to every listener individually.  Results are
///    reproducible bit-for-bit for a given parameter set, independent of
///    the thread count (each listener is resolved independently and the
///    per-listener summation order is fixed).  The slot's transmitters
///    are staged in MediumWorkspace's structure-of-arrays buffers, so
///    the sweep is a unit-stride pass over flat double arrays evaluated
///    through PowerKernel::batch — auto-vectorizable distance/kernel
///    phases followed by a fixed-order scalar reduction, which is how
///    the speedup coexists with the bit-reproducibility contract.
///
///  - MediumMode::NearFar: per channel, transmitters are indexed in a
///    uniform grid.  Transmitters within `nearField * R_T` of a listener
///    are summed exactly (this includes every transmitter that could
///    possibly decode, since nearField >= 1); farther transmitters are
///    batched per grid cell, contributing `count * P/d(centroid)^alpha`.
///    Because the centroid is the mean of the cell's members, the
///    first-order error term vanishes; what remains is a second-order
///    far-field approximation of the interference sum.  Decode decisions
///    can differ from Exact only for listeners whose SINR is within that
///    approximation error of beta.  Per-listener cost is O(occupied
///    cells).
///
///  - MediumMode::Hierarchical: NearFar's near ball (identical exact
///    member summation within `nearField * R_T`), with the far field
///    batched through a HierGrid pyramid over the same base cells:
///    distant regions contribute one centroid kernel call at the
///    coarsest level whose cell passes the SinrParams::hierTheta
///    admissibility rule (cell side <= theta * distance), taking the
///    per-listener far-field cost from O(occupied cells) toward
///    O(log n).  The admissibility rule bounds each batched
///    contribution's centroid displacement by sqrt(2) * theta relative
///    to its distance — the same style of bound the NearFar cell size
///    provides, now holding uniformly at every level.  At the default
///    theta = 0.5, level-0 admissibility coincides exactly with
///    NearFar's near-ball test, so Hierarchical refines NearFar by
///    re-batching only regions NearFar already approximated.
///
/// Both gridded modes run one per-listener sweep, HierGrid::forEachField:
/// a linear pass over the channel's occupied cells in pyramid preorder.
/// NearFar's pyramid is its base level alone (row-major, threshold at the
/// near radius).  The walk fixes the summation order, so both modes are
/// bit-reproducible (locked by golden hashes).  Every slot builds its
/// fields afresh from that slot's transmitter coordinates, so a Medium
/// keeps no position state between slots and moving nodes need no mode
/// of their own.
///
/// All modes evaluate path loss through PowerKernel, which specializes
/// integer/half-integer alpha to multiply/sqrt sequences (no std::pow on
/// the hot path).  Co-located node pairs are clamped to
/// SinrParams::kMinDistance so received power and RSSI ranging stay
/// finite even on degenerate inputs.
///
/// When SinrParams::fading selects a FadingModel, every per-pair received
/// power is additionally multiplied by FadingField::gain(slot, tx, rx) —
/// a pure function of the triple and the fading key, so results stay
/// bit-reproducible per seed and independent of thread count (see
/// sinr/fading.h).  In the gridded modes, near-field transmitters get
/// their per-pair gain; a far cell's batched contribution shares one gain
/// drawn per (slot, cell, listener), Hierarchical's key also tagged with
/// the pyramid level, and counts toward interference only.  That
/// truncates the fading *decode* range at nearField * R_T: a far
/// transmitter whose lucky gain would have decoded under Exact cannot
/// decode under NearFar (with lognormal sigma = 6 dB and nearField = 2,
/// a few percent of pairs beyond the near radius draw such gains).
/// Raise nearField to push that truncation out, or use Exact when
/// fading-tail decodes matter.  Note that fading also perturbs RSSI-based
/// senderDistance estimates — by design, that is the impairment.

class Medium {
 public:
  /// `numThreads` > 1 spreads the per-listener loop over a persistent
  /// std::thread pool; results are identical to the single-threaded run.
  Medium(SinrParams params, int numChannels, int numThreads = 1);

  /// Resolves one slot.  `intents[v]` is node v's declared behavior;
  /// `out[v]` is filled for every listener (and cleared for everyone
  /// else).  Transmitters observe nothing (half-duplex, §2).
  ///
  /// Semantics per listener on channel c:
  ///  - totalPower = sum of P/d(w,v)^alpha over all transmitters w on c;
  ///  - the strongest transmitter u decodes iff
  ///      P/d(u,v)^alpha >= beta * (N + totalPower - P/d(u,v)^alpha);
  ///  - at most one message decodes per slot (beta >= 1 makes the
  ///    strongest the only candidate).
  void resolveSlot(std::span<const Vec2> positions, std::span<const Intent> intents,
                   std::vector<Reception>& out);

  [[nodiscard]] const SinrParams& params() const noexcept { return params_; }
  [[nodiscard]] int numChannels() const noexcept { return numChannels_; }
  [[nodiscard]] int numThreads() const noexcept { return pool_ ? pool_->threads() : 1; }
  [[nodiscard]] const MediumStats& stats() const noexcept { return stats_; }
  void resetStats() noexcept { stats_ = {}; }

  /// Re-keys the fading draws (no-op for FadingModel::None).  The
  /// Simulator calls this with a dedicated fork of its root Rng (stream
  /// 0) so fading is reproducible per simulation seed; standalone Medium
  /// use falls back to FadingField::kDefaultKey.
  void seedFading(std::uint64_t key) noexcept {
    fading_ = FadingField(params_.fading, key);
  }
  [[nodiscard]] const FadingField& fading() const noexcept { return fading_; }

  /// Attribution hook (decode-attribution probes, telemetry/probes.h):
  /// marks nodes as dead so a probes-armed resolveSlot classifies their
  /// failed listens as `cause.dead_listener` instead of a physical cause.
  /// Engine runs never exercise this — Simulator forces churned-out nodes
  /// to Idle before the medium sees them, so the counter is structurally
  /// zero there; hand-wired callers (tests) set the mask and pass Listen
  /// intents for dead nodes directly.  Empty = everyone alive.  The mask
  /// is only consulted for cause classification; receptions are computed
  /// identically with or without it.
  void setAliveMask(std::vector<std::uint8_t> alive) { aliveMask_ = std::move(alive); }

 private:
  /// One occupied base cell of a channel's grid: its coordinates and
  /// member ids (channel-local).  The pyramid's near() refs index these.
  struct FarCell {
    long cx = 0, cy = 0;
    std::span<const NodeId> ids;  // into the channel grid's CSR storage
  };

  /// Per-channel spatial structure rebuilt each slot in NearFar and
  /// Hierarchical modes.
  struct ChannelField {
    GridIndex grid;       // over this channel's transmitter positions
    std::int32_t lo = 0;  // slice start in the workspace's txIds
    std::vector<FarCell> cells;
    /// The far-field walk over this channel's occupied base cells (near()
    /// refs index into `cells`): the full pyramid in Hierarchical mode,
    /// its base level alone in NearFar mode.
    HierGrid pyramid;
  };

  /// `theta` and `levels` shape the pyramid: hierTheta and
  /// HierGrid::kMaxLevels for Hierarchical, infinity and 1 for NearFar.
  void buildFields(double theta, int levels);

  SinrParams params_;
  PowerKernel kernel_;
  FadingField fading_;
  /// Slot ordinal for fading draws.  Deliberately separate from
  /// stats_.slots: resetStats() must not rewind the fading sequence (a
  /// warmup/measure split would otherwise replay the same gains).
  std::uint64_t fadingSlot_ = 0;
  int numChannels_;
  double nearRadius_ = 0.0;  // nearField * R_T, cached
  MediumStats stats_;
  std::unique_ptr<ThreadPool> pool_;  // present iff numThreads > 1

  // Per-slot SoA staging (channel buckets, flat tx coordinates,
  // listeners); buffers reused across slots to avoid allocation.
  MediumWorkspace ws_;
  std::vector<ChannelField> fields_;
  std::vector<Vec2> fieldPts_;
  std::vector<HierBaseCell> hierBase_;  // pyramid-build scratch

  /// Attribution-only liveness mask (see setAliveMask); empty = alive.
  std::vector<std::uint8_t> aliveMask_;
};

}  // namespace mcs
