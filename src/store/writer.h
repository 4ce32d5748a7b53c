#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "scenario/driver.h"
#include "store/format.h"
#include "util/sketch.h"

/// Streaming writer for the columnar campaign store.
///
/// appendCell serializes each cell (its counters, its metrics by name
/// and its blobs) as one record appended to a spool file, so the
/// coordinator can append RESULT frames in whatever order workers finish
/// and still produce the same bytes as an inline campaign appending in
/// order: the metric schema is only fixed at finish(), as the union of
/// every row's metric names in slot-scan order, and finish() then walks
/// the slots in order, building the columns in chunks (O(chunk) memory,
/// never all-rows-in-memory) and emitting the blobs canonically, before
/// renaming the file into place atomically.
///
/// Memory: a string table (labels/axis values/metric and telemetry
/// names — shared, tiny), each metric's first (slot, position), and one
/// spool offset + length per slot.  No per-seed rows, no row buffering.
namespace mcs::store {

struct StoreMeta {
  std::string campaign;
  std::string base;
  int totalCells = 0;
  int shardIndex = 0;
  int shardCount = 1;
  /// Rows in this store = cells in this shard.
  std::size_t cellSlots = 0;
  /// Zero wall_sec stats/sketch rows (count survives) — see
  /// kFlagWallStripped.
  bool stripWall = false;
  double sketchAlpha = QuantileSketch::kDefaultAlpha;
  std::uint32_t sketchThreshold = StreamingQuantiles::kDefaultExactThreshold;
};

/// One cell's row.  `stats` in display order (cellStats()).  The first
/// appended row binds the store's axis keys and every later row must
/// carry the same ones; metrics may differ between rows.  The store's
/// metric schema is the union over all rows, ordered as a scan of the
/// slots in order meets the names (each row in its display order), and a
/// metric a row lacks is written as the empty accumulator — so cells of
/// different protocols share one store.
struct StoreCellRow {
  int cellIndex = 0;
  std::string label;
  std::vector<std::pair<std::string, std::string>> assignments;
  int seeds = 0;
  int failures = 0;
  int delivered = 0;
  int valid = 0;
  int invalid = 0;
  const NamedStats* stats = nullptr;
  const MetricMap* telemetry = nullptr;  // optional
  /// Optional probe state (decode attribution + slot series); null or
  /// empty writes the canonical empty blob, so armed and unarmed rows
  /// share one layout.
  const mcs::telemetry::ProbeState* probes = nullptr;
};

class StoreWriter {
 public:
  StoreWriter() = default;
  ~StoreWriter();
  StoreWriter(const StoreWriter&) = delete;
  StoreWriter& operator=(const StoreWriter&) = delete;

  /// Creates the spool file next to `path`.  The store itself only
  /// appears (atomically) when finish() succeeds.
  [[nodiscard]] bool open(const std::string& path, const StoreMeta& meta, std::string& err);

  /// Spools one cell at `slot` (0-based shard-order position,
  /// < cellSlots).  Each slot must be written exactly once, in any order.
  [[nodiscard]] bool appendCell(std::size_t slot, const StoreCellRow& row, std::string& err);

  /// Fixes the union metric schema, assembles the columnar file and
  /// renames it into place.  Fails if any slot is missing.
  [[nodiscard]] bool finish(std::string& err);

  /// Final file size in bytes (valid after finish()).
  [[nodiscard]] std::uint64_t bytesWritten() const noexcept { return bytesWritten_; }

  [[nodiscard]] bool isOpen() const noexcept { return spoolFd_ >= 0; }

 private:
  /// Where a slot's record sits in the spool; len 0 = not yet written.
  struct SpoolEntry {
    std::uint64_t off = 0;
    std::uint32_t len = 0;
  };

  [[nodiscard]] std::uint32_t intern(const std::string& s);
  void closeFds();
  void removeTemps();

  std::string path_;
  StoreMeta meta_;
  int spoolFd_ = -1;
  std::uint64_t spoolSize_ = 0;

  bool axesBound_ = false;
  std::vector<std::string> axisNames_;
  /// Metric name -> (first slot carrying it, its position in that row):
  /// sorting by this pair is the union schema's slot-scan order, whatever
  /// order the rows arrived in.
  std::unordered_map<std::string, std::pair<std::size_t, std::size_t>> metricFirst_;

  std::string strings_;  // concatenated NUL-terminated pool; id = offset
  std::unordered_map<std::string, std::uint32_t> stringIds_;
  std::vector<SpoolEntry> spool_;
  std::size_t writtenCount_ = 0;
  std::uint64_t bytesWritten_ = 0;
};

}  // namespace mcs::store
