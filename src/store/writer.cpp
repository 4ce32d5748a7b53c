#include "store/writer.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "telemetry/telemetry.h"

namespace mcs::store {

namespace {

bool pwriteAll(int fd, const char* p, std::size_t len, std::uint64_t off, std::string& err) {
  while (len > 0) {
    const ssize_t n = ::pwrite(fd, p, len, static_cast<off_t>(off));
    if (n < 0) {
      if (errno == EINTR) continue;
      err = "pwrite: " + std::string(std::strerror(errno));
      return false;
    }
    p += n;
    len -= static_cast<std::size_t>(n);
    off += static_cast<std::uint64_t>(n);
  }
  return true;
}

bool preadAll(int fd, char* p, std::size_t len, std::uint64_t off, std::string& err) {
  while (len > 0) {
    const ssize_t n = ::pread(fd, p, len, static_cast<off_t>(off));
    if (n < 0) {
      if (errno == EINTR) continue;
      err = "pread: " + std::string(std::strerror(errno));
      return false;
    }
    if (n == 0) {
      err = "pread: unexpected EOF";
      return false;
    }
    p += n;
    len -= static_cast<std::size_t>(n);
    off += static_cast<std::uint64_t>(n);
  }
  return true;
}

template <typename T>
void putField(std::string& row, std::size_t offset, T v) {
  std::memcpy(row.data() + offset, &v, sizeof(T));
}

template <typename T>
T getField(const char* row, std::size_t offset) {
  T v;
  std::memcpy(&v, row + offset, sizeof(T));
  return v;
}

/// Appends `bytes` plus zero padding up to the next 8-byte boundary.
bool writeSection(int fd, const std::string& bytes, std::uint64_t& pos, std::string& err) {
  if (!pwriteAll(fd, bytes.data(), bytes.size(), pos, err)) return false;
  pos += bytes.size();
  const std::uint64_t aligned = alignUp8(pos);
  if (aligned > pos) {
    const char pad[8] = {};
    if (!pwriteAll(fd, pad, aligned - pos, pos, err)) return false;
    pos = aligned;
  }
  return true;
}

}  // namespace

StoreWriter::~StoreWriter() {
  if (rowsFd_ >= 0) {
    // open() succeeded but finish() never did: drop the spool files.
    closeFds();
    removeTemps();
  }
}

void StoreWriter::closeFds() {
  if (rowsFd_ >= 0) ::close(rowsFd_);
  if (blobFd_ >= 0) ::close(blobFd_);
  rowsFd_ = -1;
  blobFd_ = -1;
}

void StoreWriter::removeTemps() {
  ::unlink((path_ + ".rows.tmp").c_str());
  ::unlink((path_ + ".blob.tmp").c_str());
  ::unlink((path_ + ".tmp").c_str());
}

std::uint32_t StoreWriter::intern(const std::string& s) {
  const auto it = stringIds_.find(s);
  if (it != stringIds_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(strings_.size());
  strings_.append(s);
  strings_.push_back('\0');
  stringIds_.emplace(s, id);
  return id;
}

bool StoreWriter::open(const std::string& path, const StoreMeta& meta, std::string& err) {
  path_ = path;
  meta_ = meta;
  // The store may open before the campaign's out-dir exists (the runner
  // creates it at report-write time, after the cells run).
  const std::filesystem::path parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(parent, ec);
    if (ec) {
      err = "cannot create \"" + parent.string() + "\": " + ec.message();
      return false;
    }
  }
  const std::string rowsPath = path + ".rows.tmp";
  const std::string blobPath = path + ".blob.tmp";
  rowsFd_ = ::open(rowsPath.c_str(), O_CREAT | O_TRUNC | O_RDWR, 0644);
  if (rowsFd_ < 0) {
    err = "cannot create \"" + rowsPath + "\": " + std::strerror(errno);
    return false;
  }
  blobFd_ = ::open(blobPath.c_str(), O_CREAT | O_TRUNC | O_RDWR, 0644);
  if (blobFd_ < 0) {
    err = "cannot create \"" + blobPath + "\": " + std::strerror(errno);
    ::close(rowsFd_);
    rowsFd_ = -1;
    ::unlink(rowsPath.c_str());
    return false;
  }
  // Interned before any row so their ids do not depend on cell content.
  (void)intern(meta_.campaign);
  (void)intern(meta_.base);
  written_.assign(meta_.cellSlots, false);
  writtenCount_ = 0;
  blobSize_ = 0;
  return true;
}

bool StoreWriter::bindSchema(const StoreCellRow& row, std::string& err) {
  axisNames_.clear();
  metricNames_.clear();
  for (const auto& [key, value] : row.assignments) {
    (void)value;
    axisNames_.push_back(key);
    (void)intern(key);
  }
  if (row.stats != nullptr) {
    for (const auto& [name, stats] : *row.stats) {
      (void)stats;
      metricNames_.push_back(name);
      (void)intern(name);
    }
  }
  layout_ = columnLayout(static_cast<std::uint32_t>(axisNames_.size()),
                         static_cast<std::uint32_t>(metricNames_.size()));
  fieldOffsets_ = rowFieldOffsets(layout_);
  rowBytes_ = rowBytes(layout_);
  schemaBound_ = true;
  (void)err;
  return true;
}

bool StoreWriter::appendCell(std::size_t slot, const StoreCellRow& row, std::string& err) {
  static const telemetry::TimerId kWriteCell = telemetry::timerId("store.write_cell");
  static const telemetry::CounterId kCellsWritten =
      telemetry::counterId("store.cells_written");
  const telemetry::PhaseTimer timer(kWriteCell);

  if (rowsFd_ < 0) {
    err = "store writer is not open";
    return false;
  }
  if (slot >= meta_.cellSlots) {
    err = "store slot " + std::to_string(slot) + " out of range (cells " +
          std::to_string(meta_.cellSlots) + ")";
    return false;
  }
  if (written_[slot]) {
    err = "store slot " + std::to_string(slot) + " written twice";
    return false;
  }
  if (!schemaBound_ && !bindSchema(row, err)) return false;

  const auto axisCount = static_cast<std::uint32_t>(axisNames_.size());
  if (row.assignments.size() != axisNames_.size()) {
    err = "cell " + std::to_string(row.cellIndex) + " has " +
          std::to_string(row.assignments.size()) + " axes, store schema has " +
          std::to_string(axisNames_.size());
    return false;
  }

  std::string rec(rowBytes_, '\0');
  putField(rec, fieldOffsets_[kColCellIndex], static_cast<std::uint32_t>(row.cellIndex));
  putField(rec, fieldOffsets_[kColLabel], intern(row.label));
  for (std::size_t a = 0; a < axisNames_.size(); ++a) {
    if (row.assignments[a].first != axisNames_[a]) {
      err = "cell " + std::to_string(row.cellIndex) + " axis \"" +
            row.assignments[a].first + "\" does not match store schema axis \"" +
            axisNames_[a] + "\"";
      return false;
    }
    putField(rec, fieldOffsets_[colAxis(a)], intern(row.assignments[a].second));
  }
  putField(rec, fieldOffsets_[colSeeds(axisCount)], static_cast<std::uint32_t>(row.seeds));
  putField(rec, fieldOffsets_[colFailures(axisCount)],
           static_cast<std::uint32_t>(row.failures));
  putField(rec, fieldOffsets_[colDelivered(axisCount)],
           static_cast<std::uint32_t>(row.delivered));
  putField(rec, fieldOffsets_[colValid(axisCount)], static_cast<std::uint32_t>(row.valid));
  putField(rec, fieldOffsets_[colInvalid(axisCount)],
           static_cast<std::uint32_t>(row.invalid));

  // Every stat the row carries must be a schema metric: a new name
  // appearing mid-campaign means the first cell bound an incomplete
  // schema, and silently dropping data is worse than failing the run.
  static const NamedStats kEmptyStats;
  const NamedStats& stats = row.stats != nullptr ? *row.stats : kEmptyStats;
  for (const auto& [name, s] : stats) {
    (void)s;
    bool known = false;
    for (const std::string& m : metricNames_) {
      if (m == name) {
        known = true;
        break;
      }
    }
    if (!known) {
      err = "cell " + std::to_string(row.cellIndex) + " metric \"" + name +
            "\" is not in the store schema (bound by the first cell)";
      return false;
    }
  }

  std::string blobs;
  for (std::size_t m = 0; m < metricNames_.size(); ++m) {
    const StreamingStats* s = nullptr;
    // Display order normally matches the schema exactly; fall back to a
    // name search so a metric missing from one cell shifts nothing.
    if (m < stats.size() && stats[m].first == metricNames_[m]) {
      s = &stats[m].second;
    } else {
      for (const auto& [name, candidate] : stats) {
        if (name == metricNames_[m]) {
          s = &candidate;
          break;
        }
      }
    }
    StreamingStats empty;
    const bool strip = meta_.stripWall && metricNames_[m] == "wall_sec";
    if (s == nullptr) s = &empty;

    const OnlineStats& mo = s->moments;
    putField(rec, fieldOffsets_[colMetric(axisCount, m, kMetricCount)],
             static_cast<std::uint64_t>(mo.count()));
    putField(rec, fieldOffsets_[colMetric(axisCount, m, kMetricMean)],
             strip ? 0.0 : mo.mean());
    putField(rec, fieldOffsets_[colMetric(axisCount, m, kMetricM2)], strip ? 0.0 : mo.m2());
    putField(rec, fieldOffsets_[colMetric(axisCount, m, kMetricMin)], strip ? 0.0 : mo.min());
    putField(rec, fieldOffsets_[colMetric(axisCount, m, kMetricMax)], strip ? 0.0 : mo.max());
    putField(rec, fieldOffsets_[colMetric(axisCount, m, kMetricSum)], strip ? 0.0 : mo.sum());

    const std::uint64_t qOff = blobSize_ + blobs.size();
    const std::size_t before = blobs.size();
    appendQuantileBlob(strip ? empty.quantiles : s->quantiles, blobs);
    putField(rec, fieldOffsets_[colMetric(axisCount, m, kMetricQOff)], qOff);
    putField(rec, fieldOffsets_[colMetric(axisCount, m, kMetricQLen)],
             static_cast<std::uint32_t>(blobs.size() - before));
  }

  // Probe blob sits between the quantile blobs and the telemetry blob:
  // it carries no string ids (needs no remap at finish), and keeping the
  // telemetry blob last preserves finish()'s "remap the cell's trailing
  // tmLen bytes" invariant.
  {
    static const telemetry::ProbeState kNoProbes;
    const std::uint64_t pbOff = blobSize_ + blobs.size();
    const std::size_t pbBefore = blobs.size();
    appendProbeBlob(row.probes != nullptr ? *row.probes : kNoProbes, blobs);
    const auto mc = static_cast<std::uint32_t>(metricNames_.size());
    putField(rec, fieldOffsets_[colPbOff(axisCount, mc)], pbOff);
    putField(rec, fieldOffsets_[colPbLen(axisCount, mc)],
             static_cast<std::uint32_t>(blobs.size() - pbBefore));
  }

  std::vector<std::pair<std::uint32_t, double>> tmEntries;
  if (row.telemetry != nullptr) {
    for (const auto& [name, value] : row.telemetry->entries()) {
      // Timer totals (the ".sec" entries) are the only wall-derived
      // values in the telemetry blob; stripWall zeroes them — entry and
      // count survive — so armed stores stay byte-identical across runs
      // and worker counts, same canonicalization as the wall_sec metric.
      const bool isWall = meta_.stripWall && value != 0.0 && name.size() > 4 &&
                          name.compare(name.size() - 4, 4, ".sec") == 0;
      tmEntries.emplace_back(intern(name), isWall ? 0.0 : value);
    }
  }
  const std::uint64_t tmOff = blobSize_ + blobs.size();
  const std::size_t tmBefore = blobs.size();
  appendTelemetryBlob(tmEntries, blobs);
  putField(rec, fieldOffsets_[colTmOff(axisCount, static_cast<std::uint32_t>(
                                                      metricNames_.size()))],
           tmOff);
  putField(rec, fieldOffsets_[colTmLen(axisCount, static_cast<std::uint32_t>(
                                                      metricNames_.size()))],
           static_cast<std::uint32_t>(blobs.size() - tmBefore));

  if (!pwriteAll(blobFd_, blobs.data(), blobs.size(), blobSize_, err)) return false;
  blobSize_ += blobs.size();
  if (!pwriteAll(rowsFd_, rec.data(), rec.size(),
                 static_cast<std::uint64_t>(slot) * rowBytes_, err)) {
    return false;
  }
  written_[slot] = true;
  ++writtenCount_;
  telemetry::counterAdd(kCellsWritten);
  return true;
}

bool StoreWriter::finish(std::string& err) {
  static const telemetry::CounterId kBytesWritten =
      telemetry::counterId("store.bytes_written");
  if (rowsFd_ < 0) {
    err = "store writer is not open";
    return false;
  }
  if (writtenCount_ != meta_.cellSlots) {
    for (std::size_t i = 0; i < written_.size(); ++i) {
      if (!written_[i]) {
        err = "store is missing slot " + std::to_string(i) + " (" +
              std::to_string(writtenCount_) + "/" + std::to_string(meta_.cellSlots) +
              " written)";
        return false;
      }
    }
  }
  if (!schemaBound_) {
    // Zero-cell store: header + strings only, empty column set.
    StoreCellRow empty;
    if (!bindSchema(empty, err)) return false;
  }

  const auto n = static_cast<std::uint64_t>(meta_.cellSlots);
  const auto axisCount = static_cast<std::uint32_t>(axisNames_.size());
  const auto metricCount = static_cast<std::uint32_t>(metricNames_.size());
  const std::size_t tmOffField = colTmOff(axisCount, metricCount);
  const std::size_t tmLenField = colTmLen(axisCount, metricCount);
  const std::size_t pbOffField = colPbOff(axisCount, metricCount);
  const std::size_t pbLenField = colPbLen(axisCount, metricCount);

  // Canonical string table.  The spool interned strings in appendCell
  // arrival order, which differs between an inline campaign and forked
  // workers' completion order; re-pooling sorted (and remapping every
  // id on the way out) makes the final bytes a function of the string
  // SET, which is what the byte-identity contract needs.  Ids are fixed
  // 4-byte fields everywhere (columns, names, telemetry blobs), so no
  // section size or offset moves.
  std::vector<std::string> allStrings;
  allStrings.reserve(stringIds_.size());
  for (const auto& [s, id] : stringIds_) allStrings.push_back(s);
  std::sort(allStrings.begin(), allStrings.end());
  std::string canonicalStrings;
  canonicalStrings.reserve(strings_.size());
  std::unordered_map<std::uint32_t, std::uint32_t> remap;
  remap.reserve(stringIds_.size());
  std::unordered_map<std::string, std::uint32_t> canonicalIds;
  canonicalIds.reserve(stringIds_.size());
  for (const std::string& s : allStrings) {
    const auto id = static_cast<std::uint32_t>(canonicalStrings.size());
    canonicalIds.emplace(s, id);
    remap.emplace(stringIds_.at(s), id);
    canonicalStrings += s;
    canonicalStrings.push_back('\0');
  }

  // Chunked row reads keep finish() at O(chunk) memory no matter the
  // campaign size.
  const std::size_t chunkRows =
      rowBytes_ > 0 ? std::max<std::size_t>(1, (4u << 20) / rowBytes_) : 1;
  std::string chunk;

  // Pass 1: per-slot blob bases in the canonical (slot-order) final
  // layout — the only O(cells) state, 8 bytes per slot.
  std::vector<std::uint64_t> blobBase(meta_.cellSlots, 0);
  std::uint64_t blobTotal = 0;
  for (std::uint64_t at = 0; at < n; at += chunkRows) {
    const std::size_t rows = static_cast<std::size_t>(std::min<std::uint64_t>(chunkRows, n - at));
    chunk.resize(rows * rowBytes_);
    if (!preadAll(rowsFd_, chunk.data(), chunk.size(), at * rowBytes_, err)) return false;
    for (std::size_t r = 0; r < rows; ++r) {
      const char* rec = chunk.data() + r * rowBytes_;
      blobBase[at + r] = blobTotal;
      for (std::uint32_t m = 0; m < metricCount; ++m) {
        blobTotal += getField<std::uint32_t>(
            rec, fieldOffsets_[colMetric(axisCount, m, kMetricQLen)]);
      }
      blobTotal += getField<std::uint32_t>(rec, fieldOffsets_[pbLenField]);
      blobTotal += getField<std::uint32_t>(rec, fieldOffsets_[tmLenField]);
    }
  }

  // Section offsets are all computable up front.
  StoreHeader header{};
  std::memcpy(header.magic, kMagic, sizeof kMagic);
  header.version = kStoreVersion;
  header.endian = kEndianTag;
  header.cells = n;
  header.axisCount = axisCount;
  header.metricCount = metricCount;
  header.flags = meta_.stripWall ? kFlagWallStripped : 0;
  header.sketchThreshold = meta_.sketchThreshold;
  header.sketchAlpha = meta_.sketchAlpha;
  header.stringsOff = sizeof(StoreHeader);
  header.stringsLen = canonicalStrings.size();
  header.namesOff = alignUp8(header.stringsOff + header.stringsLen);
  header.columnsOff =
      alignUp8(header.namesOff + 4ull * (axisCount + static_cast<std::uint64_t>(metricCount)));
  std::uint64_t pos = header.columnsOff;
  for (std::uint32_t size : layout_) pos = alignUp8(pos + size * n);
  header.blobOff = pos;
  header.blobLen = blobTotal;
  header.campaignNameId = canonicalIds.at(meta_.campaign);
  header.baseNameId = canonicalIds.at(meta_.base);
  header.totalCells = static_cast<std::uint32_t>(meta_.totalCells);
  header.shardIndex = static_cast<std::uint32_t>(meta_.shardIndex);
  header.shardCount = static_cast<std::uint32_t>(meta_.shardCount);

  const std::string outPath = path_ + ".tmp";
  const int outFd = ::open(outPath.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (outFd < 0) {
    err = "cannot create \"" + outPath + "\": " + std::strerror(errno);
    return false;
  }
  const auto fail = [&](const std::string& what) {
    ::close(outFd);
    ::unlink(outPath.c_str());
    err = what.empty() ? err : what;
    return false;
  };

  std::uint64_t out = 0;
  {
    std::string headerBytes(reinterpret_cast<const char*>(&header), sizeof header);
    if (!writeSection(outFd, headerBytes, out, err)) return fail("");
    if (!writeSection(outFd, canonicalStrings, out, err)) return fail("");
    std::string names;
    names.reserve(4ull * (axisNames_.size() + metricNames_.size()));
    const auto appendId = [&](const std::string& s) {
      const std::uint32_t id = canonicalIds.at(s);
      names.append(reinterpret_cast<const char*>(&id), sizeof id);
    };
    for (const std::string& a : axisNames_) appendId(a);
    for (const std::string& m : metricNames_) appendId(m);
    if (!writeSection(outFd, names, out, err)) return fail("");
  }
  if (out != header.columnsOff) return fail("store layout accounting bug (columnsOff)");

  // Column passes: one strided scan of the spool per column.  q_off and
  // tm_off are rewritten from spool offsets to canonical blob offsets.
  for (std::size_t field = 0; field < layout_.size(); ++field) {
    const std::uint32_t elemSize = layout_[field];
    bool isQOff = false;
    std::uint32_t qOffMetric = 0;
    for (std::uint32_t m = 0; m < metricCount; ++m) {
      if (field == colMetric(axisCount, m, kMetricQOff)) {
        isQOff = true;
        qOffMetric = m;
        break;
      }
    }
    const bool isTmOff = field == tmOffField;
    const bool isPbOff = field == pbOffField;
    // Label and axis-value columns hold string ids that must follow the
    // canonical re-pooling.
    const bool isStringId =
        field == kColLabel || (field >= colAxis(0) && field < colAxis(axisCount));

    std::string col;
    for (std::uint64_t at = 0; at < n; at += chunkRows) {
      const std::size_t rows =
          static_cast<std::size_t>(std::min<std::uint64_t>(chunkRows, n - at));
      chunk.resize(rows * rowBytes_);
      if (!preadAll(rowsFd_, chunk.data(), chunk.size(), at * rowBytes_, err)) return fail("");
      col.resize(rows * elemSize);
      for (std::size_t r = 0; r < rows; ++r) {
        const char* rec = chunk.data() + r * rowBytes_;
        if (isQOff || isTmOff || isPbOff) {
          // Canonical offset: this slot's base plus the lengths of the
          // blobs that precede it within the cell (metric order, then
          // probes, then telemetry) — all readable from the same row.
          std::uint64_t off = blobBase[at + r];
          const std::uint32_t upto = isQOff ? qOffMetric : metricCount;
          for (std::uint32_t m = 0; m < upto; ++m) {
            off += getField<std::uint32_t>(
                rec, fieldOffsets_[colMetric(axisCount, m, kMetricQLen)]);
          }
          if (isTmOff) {
            off += getField<std::uint32_t>(rec, fieldOffsets_[pbLenField]);
          }
          std::memcpy(col.data() + r * elemSize, &off, sizeof off);
        } else if (isStringId) {
          const std::uint32_t id = remap.at(getField<std::uint32_t>(rec, fieldOffsets_[field]));
          std::memcpy(col.data() + r * elemSize, &id, sizeof id);
        } else {
          std::memcpy(col.data() + r * elemSize, rec + fieldOffsets_[field], elemSize);
        }
      }
      if (!pwriteAll(outFd, col.data(), col.size(), out, err)) return fail("");
      out += col.size();
    }
    const std::uint64_t aligned = alignUp8(out);
    if (aligned > out) {
      const char pad[8] = {};
      if (!pwriteAll(outFd, pad, aligned - out, out, err)) return fail("");
      out = aligned;
    }
  }
  if (out != header.blobOff) return fail("store layout accounting bug (blobOff)");

  // Blob pass: each cell's spool blobs are contiguous (appendCell writes
  // them in one shot), so one read per cell re-emits them in slot order.
  std::string blob;
  for (std::uint64_t at = 0; at < n; at += chunkRows) {
    const std::size_t rows =
        static_cast<std::size_t>(std::min<std::uint64_t>(chunkRows, n - at));
    chunk.resize(rows * rowBytes_);
    if (!preadAll(rowsFd_, chunk.data(), chunk.size(), at * rowBytes_, err)) return fail("");
    for (std::size_t r = 0; r < rows; ++r) {
      const char* rec = chunk.data() + r * rowBytes_;
      std::uint64_t cellLen = getField<std::uint32_t>(rec, fieldOffsets_[tmLenField]);
      cellLen += getField<std::uint32_t>(rec, fieldOffsets_[pbLenField]);
      for (std::uint32_t m = 0; m < metricCount; ++m) {
        cellLen += getField<std::uint32_t>(
            rec, fieldOffsets_[colMetric(axisCount, m, kMetricQLen)]);
      }
      if (cellLen == 0) continue;
      // The cell's first spool blob: metric 0's quantile state, or the
      // probe blob when there are no metrics (it precedes telemetry).
      const std::uint64_t cellOff =
          metricCount > 0
              ? getField<std::uint64_t>(
                    rec, fieldOffsets_[colMetric(axisCount, 0, kMetricQOff)])
              : getField<std::uint64_t>(rec, fieldOffsets_[pbOffField]);
      blob.resize(static_cast<std::size_t>(cellLen));
      if (!preadAll(blobFd_, blob.data(), blob.size(), cellOff, err)) return fail("");
      // The telemetry blob (the cell's last) embeds string ids: remap
      // them in place.  Layout: u32 entry count, then (u32 id, f64) pairs.
      const std::uint32_t tmLen = getField<std::uint32_t>(rec, fieldOffsets_[tmLenField]);
      if (tmLen >= 4) {
        char* tm = blob.data() + blob.size() - tmLen;
        std::uint32_t entries = 0;
        std::memcpy(&entries, tm, sizeof entries);
        for (std::uint32_t e = 0; e < entries; ++e) {
          char* at = tm + 4 + static_cast<std::size_t>(e) * 12;
          std::uint32_t id = 0;
          std::memcpy(&id, at, sizeof id);
          id = remap.at(id);
          std::memcpy(at, &id, sizeof id);
        }
      }
      if (!pwriteAll(outFd, blob.data(), blob.size(), out, err)) return fail("");
      out += blob.size();
    }
  }
  if (out != header.blobOff + header.blobLen) {
    return fail("store layout accounting bug (blobLen)");
  }

  if (::fsync(outFd) != 0) {
    return fail("fsync: " + std::string(std::strerror(errno)));
  }
  ::close(outFd);
  if (::rename(outPath.c_str(), path_.c_str()) != 0) {
    err = "rename \"" + outPath + "\" -> \"" + path_ + "\": " + std::strerror(errno);
    ::unlink(outPath.c_str());
    return false;
  }
  closeFds();
  removeTemps();
  bytesWritten_ = out;
  telemetry::counterAdd(kBytesWritten, static_cast<std::uint64_t>(out));
  return true;
}

}  // namespace mcs::store
