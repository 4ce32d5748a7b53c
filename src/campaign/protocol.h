#pragma once

#include <string>

#include "campaign/reduce.h"
#include "sweep/runner.h"
#include "util/json.h"

/// The coordinator <-> worker wire protocol: length-prefixed JSON frames
/// (util/framing.h) carrying one of four message kinds.
///
///   LEASE     coordinator -> worker   {"type": "lease", "cell": i}
///   HEARTBEAT worker -> coordinator   {"type": "heartbeat", "cell": i,
///                                      "queue_depth" echoed back in the
///                                      coordinator's progress line}
///   RESULT    worker -> coordinator   {"type": "result", "cell": i,
///                                      counters, "moments": {...}}
///   DONE      coordinator -> worker   {"type": "done"}  (drain + exit 0)
///
/// A LEASE names a cell by its sweep expansion index only — workers fork
/// from the coordinator *after* expansion, so both sides already hold the
/// identical cell vector and the frame stays tiny.  The HEARTBEAT is the
/// lease acknowledgement (sent before the batch runs; it feeds the
/// campaign.lease_rtt timer).  The RESULT carries the cell's per-metric
/// moment sums (count/mean/m2/min/max/sum per metric) so the coordinator
/// can fold the cell into the streaming tree reduction without reparsing
/// the cell file; the authoritative per-seed rows live in the atomically
/// written cell_<i>.json, which the worker flushes *before* sending
/// RESULT (a RESULT therefore guarantees a complete cell file on disk).
namespace mcs::campaign {

enum class FrameType { Lease, Heartbeat, Result, Done };

[[nodiscard]] const char* toString(FrameType t) noexcept;

struct Frame {
  FrameType type = FrameType::Done;
  /// The whole frame object ("type" plus payload fields).
  Json body = Json::object();
};

/// Builds a frame with "type" set; callers add payload fields to `body`.
[[nodiscard]] Frame makeFrame(FrameType t);

/// Serializes to the JSON bytes that go inside one wire frame.
[[nodiscard]] std::string encodeFrame(const Frame& f);

/// Parses frame bytes; false (with diagnostic) on malformed JSON or an
/// unknown "type".
[[nodiscard]] bool decodeFrame(const std::string& bytes, Frame& out, std::string& err);

/// Per-metric accumulator serialization for RESULT frames: each metric
/// as {"n", "mean", "m2", "min", "max", "sum"} — the full OnlineStats
/// state — plus "q", the streaming quantile state (exact sorted values
/// below the spill threshold, sketch buckets above).  JSON numbers use
/// shortest-round-trip formatting, so the coordinator-side merge is
/// bit-identical to merging the original accumulators in process.
/// Metric order is preserved (display order, NOT sorted): the store
/// writer binds its column schema to this order, so every RESULT must
/// carry the same sequence.
[[nodiscard]] Json momentsToJson(const NamedStats& stats);
[[nodiscard]] NamedStats momentsFromJson(const Json& j);

/// The RESULT frame for one finished cell: batch counters, the wall
/// time of its batch, cellStats(cell) as moments, and the telemetry and
/// probe blocks when present.  Every cell the coordinator counts —
/// executed inline, in a forked worker, or loaded from cache on resume —
/// reaches its one RESULT handler through this frame.
[[nodiscard]] Frame resultFrame(const CellResult& cell, double wallSec);

}  // namespace mcs::campaign
