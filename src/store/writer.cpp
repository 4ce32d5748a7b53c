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
void appendRaw(std::string& out, T v) {
  char buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  out.append(buf, sizeof(T));
}

template <typename T>
T getField(const char* row, std::size_t offset) {
  T v;
  std::memcpy(&v, row + offset, sizeof(T));
  return v;
}

template <typename T>
void putField(char* row, std::size_t offset, T v) {
  std::memcpy(row + offset, &v, sizeof(T));
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

// The spool record appendCell writes per cell (internal to the writer):
//   u32 cell_index, label_id, axis value ids x axisCount, seeds,
//   failures, delivered, valid, invalid, k (metric entries), pb_len,
//   tm_len;
//   k entries of u32 name_id + the metric's column fields from count
//   through q_len (kMomentBytes of moments, then u32 q_len);
//   then the k quantile blobs, the probe blob and the telemetry blob.
// String ids are spool ids; finish() remaps them to canonical ones.
constexpr std::size_t kMomentBytes = 6 * 8;  // count, mean, m2, min, max, sum
constexpr std::size_t kEntryBytes = 4 + kMomentBytes + 4;

/// Appends a metric's moment fields and q_len to `fields` and its
/// quantile blob to `blobs`.  `strip` (wall_sec under stripWall) zeroes
/// everything but the count.
void appendMetric(const StreamingStats& s, bool strip, std::string& fields, std::string& blobs) {
  const OnlineStats& mo = s.moments;
  appendRaw<std::uint64_t>(fields, mo.count());
  appendRaw(fields, strip ? 0.0 : mo.mean());
  appendRaw(fields, strip ? 0.0 : mo.m2());
  appendRaw(fields, strip ? 0.0 : mo.min());
  appendRaw(fields, strip ? 0.0 : mo.max());
  appendRaw(fields, strip ? 0.0 : mo.sum());
  static const StreamingQuantiles kNoSamples;
  const std::size_t before = blobs.size();
  appendQuantileBlob(strip ? kNoSamples : s.quantiles, blobs);
  appendRaw(fields, static_cast<std::uint32_t>(blobs.size() - before));
}

}  // namespace

StoreWriter::~StoreWriter() {
  if (spoolFd_ >= 0) {
    // open() succeeded but finish() never did: drop the spool file.
    closeFds();
    removeTemps();
  }
}

void StoreWriter::closeFds() {
  if (spoolFd_ >= 0) ::close(spoolFd_);
  spoolFd_ = -1;
}

void StoreWriter::removeTemps() {
  ::unlink((path_ + ".spool.tmp").c_str());
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
  // The store may open before the campaign's out-dir exists (the cell
  // files create it as the cells run).
  const std::filesystem::path parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(parent, ec);
    if (ec) {
      err = "cannot create \"" + parent.string() + "\": " + ec.message();
      return false;
    }
  }
  const std::string spoolPath = path + ".spool.tmp";
  spoolFd_ = ::open(spoolPath.c_str(), O_CREAT | O_TRUNC | O_RDWR, 0644);
  if (spoolFd_ < 0) {
    err = "cannot create \"" + spoolPath + "\": " + std::strerror(errno);
    return false;
  }
  // Interned before any row so their ids do not depend on cell content.
  (void)intern(meta_.campaign);
  (void)intern(meta_.base);
  spool_.assign(meta_.cellSlots, SpoolEntry{});
  writtenCount_ = 0;
  spoolSize_ = 0;
  return true;
}

bool StoreWriter::appendCell(std::size_t slot, const StoreCellRow& row, std::string& err) {
  static const telemetry::TimerId kWriteCell = telemetry::timerId("store.write_cell");
  static const telemetry::CounterId kCellsWritten =
      telemetry::counterId("store.cells_written");
  const telemetry::PhaseTimer timer(kWriteCell);

  if (spoolFd_ < 0) {
    err = "store writer is not open";
    return false;
  }
  if (slot >= meta_.cellSlots) {
    err = "store slot " + std::to_string(slot) + " out of range (cells " +
          std::to_string(meta_.cellSlots) + ")";
    return false;
  }
  if (spool_[slot].len != 0) {
    err = "store slot " + std::to_string(slot) + " written twice";
    return false;
  }
  if (!axesBound_) {
    for (const auto& [key, value] : row.assignments) {
      (void)value;
      axisNames_.push_back(key);
      (void)intern(key);
    }
    axesBound_ = true;
  }
  if (row.assignments.size() != axisNames_.size()) {
    err = "cell " + std::to_string(row.cellIndex) + " has " +
          std::to_string(row.assignments.size()) + " axes, store schema has " +
          std::to_string(axisNames_.size());
    return false;
  }

  std::string rec;
  appendRaw(rec, static_cast<std::uint32_t>(row.cellIndex));
  appendRaw(rec, intern(row.label));
  for (std::size_t a = 0; a < axisNames_.size(); ++a) {
    if (row.assignments[a].first != axisNames_[a]) {
      err = "cell " + std::to_string(row.cellIndex) + " axis \"" +
            row.assignments[a].first + "\" does not match store schema axis \"" +
            axisNames_[a] + "\"";
      return false;
    }
    appendRaw(rec, intern(row.assignments[a].second));
  }
  appendRaw(rec, static_cast<std::uint32_t>(row.seeds));
  appendRaw(rec, static_cast<std::uint32_t>(row.failures));
  appendRaw(rec, static_cast<std::uint32_t>(row.delivered));
  appendRaw(rec, static_cast<std::uint32_t>(row.valid));
  appendRaw(rec, static_cast<std::uint32_t>(row.invalid));

  static const NamedStats kEmptyStats;
  const NamedStats& stats = row.stats != nullptr ? *row.stats : kEmptyStats;
  std::string entries;
  std::string blobs;
  for (std::size_t k = 0; k < stats.size(); ++k) {
    const auto& [name, s] = stats[k];
    appendRaw(entries, intern(name));
    appendMetric(s, meta_.stripWall && name == "wall_sec", entries, blobs);
    const auto [it, fresh] = metricFirst_.try_emplace(name, slot, k);
    if (!fresh && std::make_pair(slot, k) < it->second) it->second = {slot, k};
  }

  // The probe blob carries no string ids; the telemetry blob (last) does.
  static const telemetry::ProbeState kNoProbes;
  const std::size_t pbBefore = blobs.size();
  appendProbeBlob(row.probes != nullptr ? *row.probes : kNoProbes, blobs);
  const std::size_t pbLen = blobs.size() - pbBefore;

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
  const std::size_t tmBefore = blobs.size();
  appendTelemetryBlob(tmEntries, blobs);

  appendRaw(rec, static_cast<std::uint32_t>(stats.size()));
  appendRaw(rec, static_cast<std::uint32_t>(pbLen));
  appendRaw(rec, static_cast<std::uint32_t>(blobs.size() - tmBefore));
  rec += entries;
  rec += blobs;
  if (!pwriteAll(spoolFd_, rec.data(), rec.size(), spoolSize_, err)) return false;
  spool_[slot] = SpoolEntry{spoolSize_, static_cast<std::uint32_t>(rec.size())};
  spoolSize_ += rec.size();
  ++writtenCount_;
  telemetry::counterAdd(kCellsWritten);
  return true;
}

bool StoreWriter::finish(std::string& err) {
  static const telemetry::CounterId kBytesWritten =
      telemetry::counterId("store.bytes_written");
  if (spoolFd_ < 0) {
    err = "store writer is not open";
    return false;
  }
  if (writtenCount_ != meta_.cellSlots) {
    for (std::size_t i = 0; i < spool_.size(); ++i) {
      if (spool_[i].len == 0) {
        err = "store is missing slot " + std::to_string(i) + " (" +
              std::to_string(writtenCount_) + "/" + std::to_string(meta_.cellSlots) +
              " written)";
        return false;
      }
    }
  }

  // The union metric schema: names in the order a scan of the slots in
  // order meets them, each row in its display order.  When every row
  // carries the same metrics this is the first slot's display order.
  std::vector<std::pair<std::pair<std::size_t, std::size_t>, std::string>> firstSeen;
  firstSeen.reserve(metricFirst_.size());
  for (const auto& [name, first] : metricFirst_) firstSeen.emplace_back(first, name);
  std::sort(firstSeen.begin(), firstSeen.end());
  std::vector<std::string> metricNames;
  metricNames.reserve(firstSeen.size());
  for (const auto& [first, name] : firstSeen) metricNames.push_back(name);

  const auto n = static_cast<std::uint64_t>(meta_.cellSlots);
  const auto axisCount = static_cast<std::uint32_t>(axisNames_.size());
  const auto metricCount = static_cast<std::uint32_t>(metricNames.size());
  const std::vector<std::uint32_t> layout = columnLayout(axisCount, metricCount);
  const std::vector<std::size_t> fieldOffsets = rowFieldOffsets(layout);
  const std::size_t recBytes = rowBytes(layout);

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
  // Spool metric-name id -> schema position.
  std::unordered_map<std::uint32_t, std::uint32_t> schemaOf;
  for (std::uint32_t m = 0; m < metricCount; ++m) {
    schemaOf.emplace(stringIds_.at(metricNames[m]), m);
  }

  // Every section offset but the blob length is known up front.
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
  std::vector<std::uint64_t> colStart(layout.size());
  std::uint64_t pos = header.columnsOff;
  for (std::size_t f = 0; f < layout.size(); ++f) {
    colStart[f] = pos;
    pos = alignUp8(pos + layout[f] * n);
  }
  header.blobOff = pos;
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

  // The empty accumulator a row lacking a metric gets.
  std::string absentFields;
  std::string absentBlob;
  appendMetric(StreamingStats(), false, absentFields, absentBlob);

  // One pass over the slots in order, a chunk of rows at a time (O(chunk)
  // memory whatever the campaign size): each spool record becomes one
  // packed row in the final layout, with canonical string ids and blob
  // offsets, while its blobs go straight to the blob section in schema
  // order (metrics, then probes, then telemetry).  Each full chunk is
  // then transposed into its slice of every column.
  const std::size_t chunkRows = std::max<std::size_t>(1, (4u << 20) / recBytes);
  std::string chunk;
  std::string col;
  std::string rec;
  std::string cellBlobs;
  std::vector<int> entryOf(metricCount);
  std::vector<std::uint64_t> qStart;
  std::uint64_t blobPos = 0;
  for (std::uint64_t at = 0; at < n; at += chunkRows) {
    const auto rows = static_cast<std::size_t>(std::min<std::uint64_t>(chunkRows, n - at));
    chunk.assign(rows * recBytes, '\0');
    for (std::size_t r = 0; r < rows; ++r) {
      const SpoolEntry& entry = spool_[at + r];
      rec.resize(entry.len);
      if (!preadAll(spoolFd_, rec.data(), rec.size(), entry.off, err)) return fail("");
      char* out = chunk.data() + r * recBytes;
      const char* in = rec.data();
      std::size_t cursor = 0;
      const auto take = [&]() {
        const auto v = getField<std::uint32_t>(in, cursor);
        cursor += 4;
        return v;
      };
      putField(out, fieldOffsets[kColCellIndex], take());
      putField(out, fieldOffsets[kColLabel], remap.at(take()));
      for (std::uint32_t a = 0; a < axisCount; ++a) {
        putField(out, fieldOffsets[colAxis(a)], remap.at(take()));
      }
      for (std::size_t f = colSeeds(axisCount); f <= colInvalid(axisCount); ++f) {
        putField(out, fieldOffsets[f], take());
      }
      const std::uint32_t k = take();
      const std::uint32_t pbLen = take();
      const std::uint32_t tmLen = take();
      const char* entries = in + cursor;
      const char* blobs = entries + static_cast<std::size_t>(k) * kEntryBytes;

      std::fill(entryOf.begin(), entryOf.end(), -1);
      qStart.assign(k, 0);
      std::uint64_t q = 0;
      for (std::uint32_t i = 0; i < k; ++i) {
        const char* e = entries + static_cast<std::size_t>(i) * kEntryBytes;
        int& slot = entryOf[schemaOf.at(getField<std::uint32_t>(e, 0))];
        if (slot < 0) slot = static_cast<int>(i);
        qStart[i] = q;
        q += getField<std::uint32_t>(e, 4 + kMomentBytes);
      }

      cellBlobs.clear();
      for (std::uint32_t m = 0; m < metricCount; ++m) {
        const std::uint64_t qOff = blobPos + cellBlobs.size();
        std::uint32_t qLen = 0;
        char* fields = out + fieldOffsets[colMetric(axisCount, m, kMetricCount)];
        if (entryOf[m] >= 0) {
          const char* e = entries + static_cast<std::size_t>(entryOf[m]) * kEntryBytes;
          std::memcpy(fields, e + 4, kMomentBytes);
          qLen = getField<std::uint32_t>(e, 4 + kMomentBytes);
          cellBlobs.append(blobs + qStart[entryOf[m]], qLen);
        } else {
          std::memcpy(fields, absentFields.data(), kMomentBytes);
          qLen = static_cast<std::uint32_t>(absentBlob.size());
          cellBlobs += absentBlob;
        }
        putField(out, fieldOffsets[colMetric(axisCount, m, kMetricQOff)], qOff);
        putField(out, fieldOffsets[colMetric(axisCount, m, kMetricQLen)], qLen);
      }
      putField(out, fieldOffsets[colPbOff(axisCount, metricCount)],
               blobPos + cellBlobs.size());
      putField(out, fieldOffsets[colPbLen(axisCount, metricCount)], pbLen);
      cellBlobs.append(blobs + q, pbLen);
      putField(out, fieldOffsets[colTmOff(axisCount, metricCount)],
               blobPos + cellBlobs.size());
      putField(out, fieldOffsets[colTmLen(axisCount, metricCount)], tmLen);
      // The telemetry blob embeds string ids: remap them in place.
      // Layout: u32 entry count, then (u32 id, f64) pairs.
      const std::size_t tmAt = cellBlobs.size();
      cellBlobs.append(blobs + q + pbLen, tmLen);
      const auto tmEntries = getField<std::uint32_t>(cellBlobs.data(), tmAt);
      for (std::uint32_t e = 0; e < tmEntries; ++e) {
        const std::size_t idAt = tmAt + 4 + static_cast<std::size_t>(e) * 12;
        putField(cellBlobs.data(), idAt,
                 remap.at(getField<std::uint32_t>(cellBlobs.data(), idAt)));
      }

      if (!pwriteAll(outFd, cellBlobs.data(), cellBlobs.size(), header.blobOff + blobPos,
                     err)) {
        return fail("");
      }
      blobPos += cellBlobs.size();
    }
    for (std::size_t f = 0; f < layout.size(); ++f) {
      const std::uint32_t elemSize = layout[f];
      col.resize(rows * elemSize);
      for (std::size_t r = 0; r < rows; ++r) {
        std::memcpy(col.data() + r * elemSize, chunk.data() + r * recBytes + fieldOffsets[f],
                    elemSize);
      }
      if (!pwriteAll(outFd, col.data(), col.size(), colStart[f] + at * elemSize, err)) {
        return fail("");
      }
    }
  }
  for (std::size_t f = 0; f < layout.size(); ++f) {
    const std::uint64_t end = colStart[f] + layout[f] * n;
    const char pad[8] = {};
    if (alignUp8(end) > end && !pwriteAll(outFd, pad, alignUp8(end) - end, end, err)) {
      return fail("");
    }
  }
  header.blobLen = blobPos;

  std::uint64_t front = 0;
  {
    std::string headerBytes(reinterpret_cast<const char*>(&header), sizeof header);
    if (!writeSection(outFd, headerBytes, front, err)) return fail("");
    if (!writeSection(outFd, canonicalStrings, front, err)) return fail("");
    std::string names;
    names.reserve(4ull * (axisNames_.size() + metricNames.size()));
    for (const std::string& a : axisNames_) appendRaw(names, canonicalIds.at(a));
    for (const std::string& m : metricNames) appendRaw(names, canonicalIds.at(m));
    if (!writeSection(outFd, names, front, err)) return fail("");
  }
  if (front != header.columnsOff) return fail("store layout accounting bug (columnsOff)");

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
  bytesWritten_ = header.blobOff + blobPos;
  telemetry::counterAdd(kBytesWritten, bytesWritten_);
  return true;
}

}  // namespace mcs::store
