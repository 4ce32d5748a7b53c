#include "campaign/protocol.h"

#include <cstddef>

namespace mcs::campaign {

const char* toString(FrameType t) noexcept {
  switch (t) {
    case FrameType::Lease: return "lease";
    case FrameType::Heartbeat: return "heartbeat";
    case FrameType::Result: return "result";
    case FrameType::Done: return "done";
  }
  return "done";
}

Frame makeFrame(FrameType t) {
  Frame f;
  f.type = t;
  f.body.set("type", toString(t));
  return f;
}

std::string encodeFrame(const Frame& f) { return f.body.dump(); }

bool decodeFrame(const std::string& bytes, Frame& out, std::string& err) {
  if (!Json::parse(bytes, out.body, err)) return false;
  if (!out.body.isObject()) {
    err = "frame is not a JSON object";
    return false;
  }
  const std::string type = out.body.stringAt("type");
  if (type == "lease") {
    out.type = FrameType::Lease;
  } else if (type == "heartbeat") {
    out.type = FrameType::Heartbeat;
  } else if (type == "result") {
    out.type = FrameType::Result;
  } else if (type == "done") {
    out.type = FrameType::Done;
  } else {
    err = "unknown frame type \"" + type + "\"";
    return false;
  }
  return true;
}

namespace {

Json quantileStateToJson(const StreamingQuantiles& q) {
  Json out = Json::object();
  if (!q.sketchMode()) {
    out.set("k", "exact");
    Json values = Json::array();
    for (double v : q.sortedExactValues()) values.push_back(v);
    out.set("v", std::move(values));
    return out;
  }
  const QuantileSketch& s = q.sketch();
  out.set("k", "sketch");
  out.set("a", s.alpha());
  out.set("z", static_cast<std::size_t>(s.zeroCount()));
  const auto sideToJson = [](const std::vector<QuantileSketch::Bucket>& side) {
    Json arr = Json::array();
    for (const QuantileSketch::Bucket& b : side) {
      Json pair = Json::array();
      pair.push_back(b.index);
      pair.push_back(static_cast<std::size_t>(b.count));
      arr.push_back(std::move(pair));
    }
    return arr;
  };
  out.set("neg", sideToJson(s.negativeBuckets()));
  out.set("pos", sideToJson(s.positiveBuckets()));
  return out;
}

StreamingQuantiles quantileStateFromJson(const Json* j) {
  if (j == nullptr || !j->isObject()) return StreamingQuantiles{};
  if (j->stringAt("k") == "exact") {
    std::vector<double> values;
    if (const Json* v = j->find("v"); v != nullptr && v->isArray()) {
      values.reserve(v->size());
      for (const Json& x : v->items()) values.push_back(x.asDouble());
    }
    return StreamingQuantiles::fromExact(QuantileSketch::kDefaultAlpha,
                                         StreamingQuantiles::kDefaultExactThreshold,
                                         std::move(values));
  }
  const auto sideFromJson = [](const Json* arr) {
    std::vector<QuantileSketch::Bucket> side;
    if (arr == nullptr || !arr->isArray()) return side;
    side.reserve(arr->size());
    for (const Json& pair : arr->items()) {
      if (!pair.isArray() || pair.size() != 2) continue;
      side.push_back(QuantileSketch::Bucket{
          static_cast<std::int32_t>(pair.items()[0].asDouble()),
          static_cast<std::uint64_t>(pair.items()[1].asDouble())});
    }
    return side;
  };
  QuantileSketch sketch = QuantileSketch::fromState(
      j->numberAt("a", QuantileSketch::kDefaultAlpha),
      static_cast<std::uint64_t>(j->numberAt("z")), sideFromJson(j->find("neg")),
      sideFromJson(j->find("pos")));
  return StreamingQuantiles::fromSketch(StreamingQuantiles::kDefaultExactThreshold,
                                        std::move(sketch));
}

}  // namespace

Json momentsToJson(const NamedStats& stats) {
  Json j = Json::object();
  for (const auto& [name, s] : stats) {
    Json m = Json::object();
    m.set("n", s.moments.count());
    m.set("mean", s.moments.mean());
    m.set("m2", s.moments.m2());
    m.set("min", s.moments.min());
    m.set("max", s.moments.max());
    m.set("sum", s.moments.sum());
    m.set("q", quantileStateToJson(s.quantiles));
    j.set(name, std::move(m));
  }
  return j;
}

NamedStats momentsFromJson(const Json& j) {
  NamedStats out;
  if (!j.isObject()) return out;
  out.reserve(j.size());
  for (const auto& [name, m] : j.members()) {
    StreamingStats s;
    s.moments = OnlineStats::fromMoments(static_cast<std::size_t>(m.numberAt("n")),
                                         m.numberAt("mean"), m.numberAt("m2"),
                                         m.numberAt("min"), m.numberAt("max"),
                                         m.numberAt("sum"));
    s.quantiles = quantileStateFromJson(m.find("q"));
    out.emplace_back(name, std::move(s));
  }
  return out;
}

Frame resultFrame(const CellResult& cell, double wallSec) {
  Frame result = makeFrame(FrameType::Result);
  result.body.set("cell", cell.cell.index);
  result.body.set("failures", cell.batch.failures());
  result.body.set("delivered", cell.batch.deliveredCount());
  result.body.set("valid", cell.batch.validCount());
  result.body.set("invalid", cell.batch.invalidCount());
  result.body.set("wall_sec", wallSec);
  result.body.set("moments", momentsToJson(cellStats(cell)));
  // Telemetry and probes ride along so the coordinator's store rows and
  // reduction see exactly what the cell file holds (both round-trip
  // losslessly through JSON).
  if (!cell.telemetry.entries().empty()) {
    Json tm = Json::object();
    for (const auto& [name, value] : cell.telemetry.entries()) tm.set(name, value);
    result.body.set("telemetry", std::move(tm));
  }
  if (!cell.probes.empty()) result.body.set("probes", telemetry::probesToJson(cell.probes));
  return result;
}

}  // namespace mcs::campaign
