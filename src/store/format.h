#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "telemetry/probes.h"
#include "util/sketch.h"

/// The columnar campaign store's on-disk format — the shared contract
/// between StoreWriter (store/writer.h) and StoreReader (store/reader.h).
///
/// File layout (all offsets from byte 0, all sections 8-byte aligned):
///
///   [StoreHeader]              120 bytes, native-endian with endian tag
///   [string table]             concatenated NUL-terminated strings;
///                              a string id is its byte offset here
///   [names]                    axis name ids (u32 x axisCount), then
///                              metric name ids (u32 x metricCount)
///   [columns]                  one contiguous array per column, in
///                              columnLayout() order, each column start
///                              padded to 8 so typed pointers into the
///                              mmap are always aligned
///   [blob heap]                per cell, in slot order: one quantile
///                              state blob per metric (metric order),
///                              then the probe blob, then the telemetry
///                              blob
///
/// Column order (n = header.cells rows each):
///
///   cell_index u32 | label_id u32 | axis value ids u32 x axisCount |
///   seeds u32 | failures u32 | delivered u32 | valid u32 | invalid u32 |
///   per metric: count u64, mean f64, m2 f64, min f64, max f64, sum f64,
///               q_off u64, q_len u32 |
///   tm_off u64 | tm_len u32 | pb_off u64 | pb_len u32
///
/// q_off/q_len, tm_off/tm_len and pb_off/pb_len slice the blob heap
/// (offsets relative to header.blobOff).  Everything a row stores is the
/// *full* per-metric accumulator state (moments + quantile sketch) plus
/// the cell's probe state, so any subset of cells can be re-aggregated
/// from the store alone, bit-identically to an in-process merge.
///
/// Version 2 added the probe blob column (decode attribution + slot
/// series, telemetry/probes.h).  The blob is self-contained — no string
/// ids — so it needs no remapping at finish time.
namespace mcs::store {

inline constexpr char kMagic[8] = {'M', 'C', 'S', 'S', 'T', 'O', 'R', '1'};
inline constexpr std::uint32_t kStoreVersion = 2;
/// Written natively; a reader seeing the bytes reversed knows the file
/// crossed an endianness boundary and refuses loudly instead of
/// misreading every column.
inline constexpr std::uint32_t kEndianTag = 0x01020304;
/// Set when wall_sec stats/sketches were zeroed at write time
/// (WorkQueueOptions::storeStripWall), keeping the file byte-identical
/// across runs and worker counts.
inline constexpr std::uint32_t kFlagWallStripped = 1u << 0;

struct StoreHeader {
  char magic[8];
  std::uint32_t version;
  std::uint32_t endian;
  std::uint64_t cells;
  std::uint32_t axisCount;
  std::uint32_t metricCount;
  std::uint32_t flags;
  std::uint32_t sketchThreshold;
  double sketchAlpha;
  std::uint64_t stringsOff;
  std::uint64_t stringsLen;
  std::uint64_t namesOff;
  std::uint64_t columnsOff;
  std::uint64_t blobOff;
  std::uint64_t blobLen;
  std::uint32_t campaignNameId;
  std::uint32_t baseNameId;
  std::uint32_t totalCells;
  std::uint32_t shardIndex;
  std::uint32_t shardCount;
  std::uint32_t reserved;
};
static_assert(sizeof(StoreHeader) == 120, "header layout is the on-disk contract");

/// Element width of every column, in the on-disk order above.  The same
/// list describes one packed row record (the writer's streaming spool),
/// so writer and reader can never disagree about offsets.
[[nodiscard]] std::vector<std::uint32_t> columnLayout(std::uint32_t axisCount,
                                                      std::uint32_t metricCount);

/// Logical field positions inside columnLayout()'s order.
inline constexpr std::size_t kColCellIndex = 0;
inline constexpr std::size_t kColLabel = 1;
[[nodiscard]] inline std::size_t colAxis(std::size_t a) { return 2 + a; }
[[nodiscard]] inline std::size_t colSeeds(std::uint32_t axisCount) { return 2 + axisCount; }
[[nodiscard]] inline std::size_t colFailures(std::uint32_t axisCount) { return 3 + axisCount; }
[[nodiscard]] inline std::size_t colDelivered(std::uint32_t axisCount) { return 4 + axisCount; }
[[nodiscard]] inline std::size_t colValid(std::uint32_t axisCount) { return 5 + axisCount; }
[[nodiscard]] inline std::size_t colInvalid(std::uint32_t axisCount) { return 6 + axisCount; }
/// Per-metric sub-fields, in order.
inline constexpr std::size_t kMetricFields = 8;
inline constexpr std::size_t kMetricCount = 0;
inline constexpr std::size_t kMetricMean = 1;
inline constexpr std::size_t kMetricM2 = 2;
inline constexpr std::size_t kMetricMin = 3;
inline constexpr std::size_t kMetricMax = 4;
inline constexpr std::size_t kMetricSum = 5;
inline constexpr std::size_t kMetricQOff = 6;
inline constexpr std::size_t kMetricQLen = 7;
[[nodiscard]] inline std::size_t colMetric(std::uint32_t axisCount, std::size_t m,
                                           std::size_t field) {
  return 7 + axisCount + m * kMetricFields + field;
}
[[nodiscard]] inline std::size_t colTmOff(std::uint32_t axisCount, std::uint32_t metricCount) {
  return 7 + axisCount + static_cast<std::size_t>(metricCount) * kMetricFields;
}
[[nodiscard]] inline std::size_t colTmLen(std::uint32_t axisCount, std::uint32_t metricCount) {
  return colTmOff(axisCount, metricCount) + 1;
}
[[nodiscard]] inline std::size_t colPbOff(std::uint32_t axisCount, std::uint32_t metricCount) {
  return colTmLen(axisCount, metricCount) + 1;
}
[[nodiscard]] inline std::size_t colPbLen(std::uint32_t axisCount, std::uint32_t metricCount) {
  return colPbOff(axisCount, metricCount) + 1;
}

/// Packed row byte offsets (no padding — rows are memcpy'd field by
/// field) and the row's total width.
[[nodiscard]] std::vector<std::size_t> rowFieldOffsets(
    const std::vector<std::uint32_t>& layout);
[[nodiscard]] std::size_t rowBytes(const std::vector<std::uint32_t>& layout);

/// Quantile state blob: u8 mode (0 = exact, 1 = sketch); exact follows
/// with u32 n + f64 x n sorted values, sketch with u64 zeroCount,
/// u32 negCount, u32 posCount, then (i32 index, u64 count) pairs for the
/// negative side (index ascending) and the positive side.  Alpha and the
/// exact threshold are file-global (header), not per-blob.
void appendQuantileBlob(const StreamingQuantiles& q, std::string& out);
[[nodiscard]] bool parseQuantileBlob(const char* p, std::size_t len, double alpha,
                                     std::size_t exactThreshold, StreamingQuantiles& out,
                                     std::string& err);

/// Telemetry blob: u32 n, then (u32 nameId, f64 value) x n in MetricMap
/// entry order.  Telemetry names vary per cell (zero counters are
/// skipped at capture), which is exactly why telemetry is a ragged blob
/// and not fixed columns.
void appendTelemetryBlob(const std::vector<std::pair<std::uint32_t, double>>& entries,
                         std::string& out);
[[nodiscard]] bool parseTelemetryBlob(const char* p, std::size_t len,
                                      std::vector<std::pair<std::uint32_t, double>>& out,
                                      std::string& err);

/// Probe blob: u8 flag (0 = empty, nothing follows; 1 = full state).
/// Full state is the three attribution sketches (margin_db, near_db,
/// far_db), then the slot series: u64 span, u32 window count, then per
/// window six u64 counts (slots, listens, decodes, tx_intents,
/// progress_num, progress_den) followed by the window's margin sketch.
/// Each sketch serializes as u64 zeroCount, u32 negCount, u32 posCount,
/// then (i32 index, u64 count) pairs, negative side then positive side —
/// the exact bucket state, so parse(append(s)) == s and re-merged
/// subsets stay bit-identical to in-process merges.
void appendProbeBlob(const telemetry::ProbeState& state, std::string& out);
[[nodiscard]] bool parseProbeBlob(const char* p, std::size_t len, telemetry::ProbeState& out,
                                  std::string& err);

/// 8-byte section alignment.
[[nodiscard]] inline std::uint64_t alignUp8(std::uint64_t off) { return (off + 7) & ~7ull; }

}  // namespace mcs::store
