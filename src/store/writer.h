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
/// Rows land by *slot* — the cell's position in the shard's expansion
/// order — via pwrite into a fixed-width spool file, so the coordinator
/// can append RESULT frames in whatever order workers finish and still
/// produce the same bytes as an inline campaign appending in order:
/// the spool is positional, the variable-length blobs are reordered
/// canonically at finish(), and the final file is assembled column by
/// column with chunked strided reads (O(chunk) memory, never
/// all-rows-in-memory) and renamed into place atomically.
///
/// Memory: a string table (labels/axis values/telemetry names — shared,
/// tiny), a written-slot bitmap, and one 8-byte blob base per slot at
/// finish time.  No per-seed rows, no row buffering.
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

/// One cell's row.  `stats` must be in display order (cellStats()); the
/// first appended row binds the store's axis and metric schema, later
/// rows must carry the same axis keys, and a metric missing from a row
/// writes as an empty accumulator while an unknown metric name is a
/// loud error.
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

  /// Creates the spool files next to `path`.  The store itself only
  /// appears (atomically) when finish() succeeds.
  [[nodiscard]] bool open(const std::string& path, const StoreMeta& meta, std::string& err);

  /// Writes one cell at `slot` (0-based shard-order position, < cellSlots).
  /// Each slot must be written exactly once, in any order.
  [[nodiscard]] bool appendCell(std::size_t slot, const StoreCellRow& row, std::string& err);

  /// Assembles the columnar file and renames it into place.  Fails if
  /// any slot is missing.
  [[nodiscard]] bool finish(std::string& err);

  /// Final file size in bytes (valid after finish()).
  [[nodiscard]] std::uint64_t bytesWritten() const noexcept { return bytesWritten_; }

  [[nodiscard]] bool isOpen() const noexcept { return rowsFd_ >= 0; }

 private:
  [[nodiscard]] std::uint32_t intern(const std::string& s);
  [[nodiscard]] bool bindSchema(const StoreCellRow& row, std::string& err);
  void closeFds();
  void removeTemps();

  std::string path_;
  StoreMeta meta_;
  int rowsFd_ = -1;
  int blobFd_ = -1;
  std::uint64_t blobSize_ = 0;

  bool schemaBound_ = false;
  std::vector<std::string> axisNames_;
  std::vector<std::string> metricNames_;
  std::vector<std::uint32_t> layout_;
  std::vector<std::size_t> fieldOffsets_;
  std::size_t rowBytes_ = 0;

  std::string strings_;  // concatenated NUL-terminated pool; id = offset
  std::unordered_map<std::string, std::uint32_t> stringIds_;
  std::vector<bool> written_;
  std::size_t writtenCount_ = 0;
  std::uint64_t bytesWritten_ = 0;
};

}  // namespace mcs::store
