#include "store/reader.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace mcs::store {

StoreReader::~StoreReader() {
  if (map_ != nullptr) {
    ::munmap(const_cast<char*>(map_), static_cast<std::size_t>(size_));
  }
}

bool StoreReader::open(const std::string& path, std::string& err) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    err = "cannot open store \"" + path + "\": " + std::strerror(errno);
    return false;
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    err = "fstat \"" + path + "\": " + std::strerror(errno);
    ::close(fd);
    return false;
  }
  size_ = static_cast<std::uint64_t>(st.st_size);
  if (size_ < sizeof(StoreHeader)) {
    err = "store \"" + path + "\" is smaller than its header";
    ::close(fd);
    return false;
  }
  void* m = ::mmap(nullptr, static_cast<std::size_t>(size_), PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps the file alive
  if (m == MAP_FAILED) {
    err = "mmap \"" + path + "\": " + std::strerror(errno);
    return false;
  }
  map_ = static_cast<const char*>(m);
  header_ = reinterpret_cast<const StoreHeader*>(map_);

  if (std::memcmp(header_->magic, kMagic, sizeof kMagic) != 0) {
    err = "\"" + path + "\" is not a campaign store (bad magic)";
    return false;
  }
  if (header_->version != kStoreVersion) {
    err = "store \"" + path + "\" has version " + std::to_string(header_->version) +
          ", this build reads version " + std::to_string(kStoreVersion);
    return false;
  }
  if (header_->endian != kEndianTag) {
    err = "store \"" + path + "\" was written on a different-endian machine";
    return false;
  }
  // The quantile blobs rebuild sketches at the file's alpha, which the
  // sketch itself only accepts inside (0, 1).
  if (!(header_->sketchAlpha > 0.0 && header_->sketchAlpha < 1.0)) {
    err = "store \"" + path + "\" has sketch alpha " + std::to_string(header_->sketchAlpha) +
          " outside (0, 1)";
    return false;
  }
  // Every bound is checked without overflow: a damaged header must fail
  // here, not wrap an offset past the mapping.
  const auto within = [&](std::uint64_t off, std::uint64_t len) {
    return off <= size_ && len <= size_ - off;
  };
  if (!within(header_->stringsOff, header_->stringsLen) || header_->namesOff > size_ ||
      header_->columnsOff > size_ || !within(header_->blobOff, header_->blobLen)) {
    err = "store \"" + path + "\" has sections past EOF (truncated?)";
    return false;
  }
  // The names section bounds the axis and metric counts, so the column
  // layout below is never sized from a wild count.
  if (!within(header_->namesOff,
              4ull * (static_cast<std::uint64_t>(header_->axisCount) + header_->metricCount))) {
    err = "store \"" + path + "\" names section past EOF";
    return false;
  }

  const std::vector<std::uint32_t> layout =
      columnLayout(header_->axisCount, header_->metricCount);
  if (header_->cells > size_ / rowBytes(layout)) {
    err = "store \"" + path + "\" claims more cells than the file holds";
    return false;
  }
  columnOff_.clear();
  columnOff_.reserve(layout.size());
  std::uint64_t pos = header_->columnsOff;
  for (std::uint32_t size : layout) {
    columnOff_.push_back(pos);
    pos = alignUp8(pos + size * header_->cells);
  }
  if (pos != header_->blobOff) {
    err = "store \"" + path + "\" column section does not meet its blob section";
    return false;
  }

  const char* names = map_ + header_->namesOff;
  axisNames_.clear();
  metricNames_.clear();
  for (std::uint32_t a = 0; a < header_->axisCount; ++a) {
    std::uint32_t id = 0;
    std::memcpy(&id, names + 4ull * a, sizeof id);
    axisNames_.push_back(str(id));
  }
  for (std::uint32_t m = 0; m < header_->metricCount; ++m) {
    std::uint32_t id = 0;
    std::memcpy(&id, names + 4ull * (header_->axisCount + m), sizeof id);
    metricNames_.push_back(str(id));
  }
  return true;
}

std::string StoreReader::str(std::uint32_t id) const {
  if (id >= header_->stringsLen) return "";
  const char* base = map_ + header_->stringsOff;
  const char* end = base + header_->stringsLen;
  const char* p = base + id;
  const char* nul = static_cast<const char*>(std::memchr(p, '\0', end - p));
  return nul != nullptr ? std::string(p, nul) : std::string(p, end);
}

int StoreReader::axisIndex(const std::string& name) const {
  for (std::size_t a = 0; a < axisNames_.size(); ++a) {
    if (axisNames_[a] == name) return static_cast<int>(a);
  }
  return -1;
}

int StoreReader::metricIndex(const std::string& name) const {
  for (std::size_t m = 0; m < metricNames_.size(); ++m) {
    if (metricNames_[m] == name) return static_cast<int>(m);
  }
  return -1;
}

const std::uint32_t* StoreReader::u32Col(std::size_t field) const {
  return reinterpret_cast<const std::uint32_t*>(map_ + columnOff_[field]);
}

StoreReader::MetricView StoreReader::metric(std::size_t m) const {
  const std::uint32_t axisCount = header_->axisCount;
  MetricView v;
  v.count = reinterpret_cast<const std::uint64_t*>(
      map_ + columnOff_[colMetric(axisCount, m, kMetricCount)]);
  v.mean = reinterpret_cast<const double*>(
      map_ + columnOff_[colMetric(axisCount, m, kMetricMean)]);
  v.m2 = reinterpret_cast<const double*>(
      map_ + columnOff_[colMetric(axisCount, m, kMetricM2)]);
  v.min = reinterpret_cast<const double*>(
      map_ + columnOff_[colMetric(axisCount, m, kMetricMin)]);
  v.max = reinterpret_cast<const double*>(
      map_ + columnOff_[colMetric(axisCount, m, kMetricMax)]);
  v.sum = reinterpret_cast<const double*>(
      map_ + columnOff_[colMetric(axisCount, m, kMetricSum)]);
  v.qOff = reinterpret_cast<const std::uint64_t*>(
      map_ + columnOff_[colMetric(axisCount, m, kMetricQOff)]);
  v.qLen = reinterpret_cast<const std::uint32_t*>(
      map_ + columnOff_[colMetric(axisCount, m, kMetricQLen)]);
  return v;
}

const char* StoreReader::blobAt(std::uint64_t off, std::uint32_t len) const {
  if (off + len > header_->blobLen) return nullptr;
  return map_ + header_->blobOff + off;
}

OnlineStats StoreReader::momentsAt(std::size_t m, std::size_t row) const {
  const MetricView v = metric(m);
  return OnlineStats::fromMoments(static_cast<std::size_t>(v.count[row]), v.mean[row],
                                  v.m2[row], v.min[row], v.max[row], v.sum[row]);
}

bool StoreReader::statsAt(std::size_t m, std::size_t row, StreamingStats& out,
                          std::string& err) const {
  const MetricView v = metric(m);
  out.moments = momentsAt(m, row);
  const char* blob = blobAt(v.qOff[row], v.qLen[row]);
  if (blob == nullptr) {
    err = "row " + std::to_string(row) + " quantile blob out of bounds";
    return false;
  }
  return parseQuantileBlob(blob, v.qLen[row], header_->sketchAlpha,
                           header_->sketchThreshold, out.quantiles, err);
}

bool StoreReader::telemetryAt(std::size_t row,
                              std::vector<std::pair<std::string, double>>& out,
                              std::string& err) const {
  const std::uint64_t* tmOff = reinterpret_cast<const std::uint64_t*>(
      map_ + columnOff_[colTmOff(header_->axisCount, header_->metricCount)]);
  const std::uint32_t* tmLen = reinterpret_cast<const std::uint32_t*>(
      map_ + columnOff_[colTmLen(header_->axisCount, header_->metricCount)]);
  const char* blob = blobAt(tmOff[row], tmLen[row]);
  if (blob == nullptr) {
    err = "row " + std::to_string(row) + " telemetry blob out of bounds";
    return false;
  }
  std::vector<std::pair<std::uint32_t, double>> raw;
  if (!parseTelemetryBlob(blob, tmLen[row], raw, err)) return false;
  out.clear();
  out.reserve(raw.size());
  for (const auto& [id, value] : raw) out.emplace_back(str(id), value);
  return true;
}

bool StoreReader::probesAt(std::size_t row, mcs::telemetry::ProbeState& out,
                           std::string& err) const {
  const std::uint64_t* pbOff = reinterpret_cast<const std::uint64_t*>(
      map_ + columnOff_[colPbOff(header_->axisCount, header_->metricCount)]);
  const std::uint32_t* pbLen = reinterpret_cast<const std::uint32_t*>(
      map_ + columnOff_[colPbLen(header_->axisCount, header_->metricCount)]);
  const char* blob = blobAt(pbOff[row], pbLen[row]);
  if (blob == nullptr) {
    err = "row " + std::to_string(row) + " probe blob out of bounds";
    return false;
  }
  return parseProbeBlob(blob, pbLen[row], out, err);
}

}  // namespace mcs::store
