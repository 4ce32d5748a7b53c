#pragma once

#include <cstdint>
#include <string>

#include "telemetry/series.h"
#include "util/json.h"
#include "util/sketch.h"

/// Decode-attribution and time-series probes: the cause-and-time layer on
/// the telemetry contract (telemetry/telemetry.h).  Like counters and
/// timers, probes are write-only — arming them never changes a Reception,
/// an RNG draw, or any protocol output — and a disarmed probe site costs
/// one relaxed load (telemetry::probesEnabled()).
///
/// What is recorded (by Medium::resolveSlot and Simulator::step when
/// probesEnabled()):
///  - a campaign-wide SINR-margin sketch in dB — for every decode
///    candidate, 10*log10(best / (beta*(noise + interference))); positive
///    margins decoded, negative failed — plus near/far interference power
///    sketches in dB splitting each listener's interference into the
///    exactly-summed near-field part and the grid-batched far-field part;
///  - a SlotSeries (telemetry/series.h) of per-slot delivery counts,
///    active transmitters, margin quantiles, and optional protocol
///    progress samples.
///
/// Every piece of state is a QuantileSketch (integer bucket counts) or an
/// integer counter, and the global state is mutex-protected and touched
/// once per slot — so probe output is deterministic per seed and
/// invariant to thread count, worker count, and merge order, exactly like
/// the counter registry.  Per-cell capture uses resetProbes() before the
/// cell and snapshotProbes() after it (cells run serially per process,
/// inline or in a forked campaign worker); sketches cannot be
/// diffed like counters, so there is no snapshot-delta idiom here.
namespace mcs::telemetry {

/// One resolved slot's probe payload, accumulated lane-locally in the
/// medium and folded into the global state in a single probeSlot() call.
struct SlotProbeSample {
  std::uint64_t listens = 0;
  std::uint64_t decodes = 0;
  std::uint64_t txIntents = 0;
  QuantileSketch marginDb;
  QuantileSketch nearDb;
  QuantileSketch farDb;
};

/// The mergeable probe aggregate: what a cell captures, a RESULT frame
/// ships, the tree reducer folds, and a store row's probe blob encodes.
struct ProbeState {
  QuantileSketch marginDb;
  QuantileSketch nearDb;
  QuantileSketch farDb;
  SlotSeries series;

  void merge(const ProbeState& other) {
    marginDb.merge(other.marginDb);
    nearDb.merge(other.nearDb);
    farDb.merge(other.farDb);
    series.merge(other.series);
  }

  [[nodiscard]] bool empty() const noexcept {
    return marginDb.count() == 0 && nearDb.count() == 0 && farDb.count() == 0 &&
           series.empty();
  }

  friend bool operator==(const ProbeState& a, const ProbeState& b) noexcept {
    return a.marginDb == b.marginDb && a.nearDb == b.nearDb && a.farDb == b.farDb &&
           a.series == b.series;
  }
};

/// Folds one resolved slot into the global state (no-op when disarmed at
/// the call site — callers gate on probesEnabled() themselves to skip
/// building the sample).
void probeSlot(std::uint64_t slot, const SlotProbeSample& sample);

/// Records one protocol progress sample (Simulator's progress probe).
void probeProgress(std::uint64_t slot, std::uint64_t num, std::uint64_t den);

/// Copies the global probe state (take at a quiesce point).
[[nodiscard]] ProbeState snapshotProbes();

/// Clears the global probe state (call before each cell's batch).
void resetProbes();

/// JSON round-trip for cell files, RESULT frames, and sweep_query --series:
/// {"margin_db": <sketch>, "near_db": <sketch>, "far_db": <sketch>,
///  "series": {"span": s, "windows": [...]}} — lossless, so cell files
/// and RESULT frames carry a cell's probe bytes exactly.
[[nodiscard]] Json probesToJson(const ProbeState& p);
[[nodiscard]] ProbeState probesFromJson(const Json& j);

}  // namespace mcs::telemetry
