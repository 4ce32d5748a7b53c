#include "sweep/runner.h"

namespace mcs {

bool cellCacheMatches(const CellResult& cached, const SweepCell& cell) {
  return cached.cell.label == cell.label &&
         cached.specFingerprint == scenarioToKeyValues(cell.spec) &&
         static_cast<int>(cached.batch.perSeed.size()) == cell.spec.seeds;
}

NamedStats cellStats(const CellResult& cell) {
  NamedStats out;
  StreamingStats slots, decodeRate, structureSlots, wallSec;
  for (const SeedResult& r : cell.batch.perSeed) {
    wallSec.add(r.wallSec);  // wall time counts failed seeds, like summarizeWallSec
    if (r.failed()) continue;
    slots.add(static_cast<double>(r.slots));
    decodeRate.add(r.decodeRate);
    structureSlots.add(static_cast<double>(r.structureSlots));
  }
  out.emplace_back("slots", std::move(slots));
  out.emplace_back("decode_rate", std::move(decodeRate));
  out.emplace_back("structure_slots", std::move(structureSlots));
  out.emplace_back("wall_sec", std::move(wallSec));
  for (const std::string& name : cell.batch.metricNames()) {
    StreamingStats s;
    for (const SeedResult& r : cell.batch.perSeed) {
      if (r.failed()) continue;
      if (const double* v = r.metrics.find(name)) s.add(*v);
    }
    out.emplace_back(name, std::move(s));
  }
  return out;
}

std::vector<std::pair<std::string, Summary>> CellResult::summaries() const {
  std::vector<std::pair<std::string, Summary>> out;
  const NamedStats stats = cellStats(*this);
  out.reserve(stats.size());
  for (const auto& [name, s] : stats) out.emplace_back(name, s.summary());
  return out;
}

std::string cellFilePath(const std::string& outDir, const std::string& campaign,
                         int cellIndex) {
  return outDir + "/sweep_cells/" + campaign + "/cell_" + std::to_string(cellIndex) + ".json";
}

}  // namespace mcs
