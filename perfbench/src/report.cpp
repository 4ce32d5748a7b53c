#include "report.h"

#include <algorithm>
#include <cmath>
#include <fstream>

#include "util/clock.h"
#include "util/stats.h"

namespace perfbench {

namespace {

double perSlot(double total, double slots) { return slots > 0 ? total / slots : 0.0; }

}  // namespace

void Result::metric(const std::string& name, double value, const std::string& unit) {
  mcs::Json m = mcs::Json::object();
  m.set("value", std::isfinite(value) ? value : 0.0);
  m.set("unit", unit);
  metrics_.set(name, std::move(m));
}

void Result::failedUnit(const std::string& what) {
  ++failed_;
  std::fprintf(stderr, "perfbench: failed: %s\n", what.c_str());
}

void Result::check(bool ok, const std::string& what) {
  if (ok) return;
  ++failed_;
  ++checksFailed_;
  if (failures_.size() < 8) failures_.push_back(what);
  std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
}

void Result::setTraceFile(std::string path, std::size_t events) {
  traceFile_ = std::move(path);
  traceEvents_ = events;
}

std::string Result::jsonLine(const Options& opts) const {
  mcs::Json j = mcs::Json::object();
  j.set("workload", opts.workload);
  j.set("correct", correct());
  j.set("attempted", static_cast<double>(attempted_));
  j.set("failed", static_cast<double>(failed_));
  mcs::Json fails = mcs::Json::array();
  for (const std::string& f : failures_) fails.push_back(f);
  j.set("failures", std::move(fails));
  j.set("metrics", metrics_);
  mcs::Json fp = mcs::Json::object();
  fp.set("compiler", PERFBENCH_COMPILER);
  fp.set("build_type", PERFBENCH_BUILD_TYPE);
  j.set("build", std::move(fp));
  if (!traceFile_.empty()) {
    j.set("trace_file", traceFile_);
    j.set("trace_events", traceEvents_);
  }
  return j.dump();
}

int LayerTree::add(const std::string& name, double sec, int parent) {
  nodes_.push_back({name, sec, parent});
  return static_cast<int>(nodes_.size()) - 1;
}

double LayerTree::childSum(int id) const {
  double s = 0.0;
  for (const Node& n : nodes_) s += n.parent == id ? n.sec : 0.0;
  return s;
}

bool LayerTree::hasChildren(int id) const {
  return std::any_of(nodes_.begin(), nodes_.end(),
                     [id](const Node& n) { return n.parent == id; });
}

void LayerTree::print(std::FILE* out, const std::string& title) const {
  std::fprintf(out, "per-layer tree: %s\n", title.c_str());
  for (int id = 0; id < static_cast<int>(nodes_.size()); ++id) {
    if (!hasChildren(id)) continue;
    const Node& p = nodes_[static_cast<std::size_t>(id)];
    std::fprintf(out, "  %-34s %12.6f s  100.0%%\n", p.name.c_str(), p.sec);
    for (const Node& c : nodes_) {
      if (c.parent != id) continue;
      std::fprintf(out, "    %-32s %12.6f s  %5.1f%%\n", c.name.c_str(), c.sec,
                   p.sec > 0 ? 100.0 * c.sec / p.sec : 0.0);
    }
    const double covered = childSum(id);
    std::fprintf(out, "    %-32s %12.6f s  %5.1f%%   coverage %.1f%%\n", "(untimed)",
                 p.sec - covered, p.sec > 0 ? 100.0 * (p.sec - covered) / p.sec : 0.0,
                 p.sec > 0 ? 100.0 * covered / p.sec : 0.0);
  }
}

double LayerTree::minCoverage() const {
  double worst = 1.0;
  for (int id = 0; id < static_cast<int>(nodes_.size()); ++id) {
    const double sec = nodes_[static_cast<std::size_t>(id)].sec;
    if (hasChildren(id) && sec > 0) worst = std::min(worst, childSum(id) / sec);
  }
  return worst;
}

double timerSec(const mcs::telemetry::MetricsSnapshot& s, const char* name) {
  const mcs::telemetry::TimerSample* t = s.findTimer(name);
  return t ? t->totalSec : 0.0;
}

double timerMeanUs(const mcs::telemetry::MetricsSnapshot& s, const char* name) {
  const mcs::telemetry::TimerSample* t = s.findTimer(name);
  return t && t->count ? 1e6 * t->totalSec / static_cast<double>(t->count) : 0.0;
}

double reportMediumLayers(const mcs::telemetry::MetricsSnapshot& d, double slots, Result& r) {
  const double resolve = timerSec(d, "medium.resolve_slot");
  const double populate = timerSec(d, "medium.populate");
  const double build = timerSec(d, "medium.build_fields");
  const double sweep = timerSec(d, "medium.sweep");
  const auto count = [&d](const char* name) { return static_cast<double>(d.counterOr(name)); };
  const double listens = count("medium.listen_intents");
  const double decodes = count("medium.decodes");
  r.metric("sinr.resolve_us_per_slot", 1e6 * perSlot(resolve, slots), "us");
  r.metric("sinr.populate_us_per_slot", 1e6 * perSlot(populate, slots), "us");
  r.metric("sinr.build_fields_us_per_slot", 1e6 * perSlot(build, slots), "us");
  r.metric("sinr.sweep_us_per_slot", 1e6 * perSlot(sweep, slots), "us");
  r.metric("sinr.resolve_untimed_us_per_slot",
           1e6 * perSlot(std::max(0.0, resolve - populate - build - sweep), slots), "us");
  r.metric("sinr.exact_pairs_per_slot", perSlot(count("medium.exact_pairs"), slots), "count");
  r.metric("sinr.decode_rate", listens > 0 ? decodes / listens : 0.0, "fraction");
  r.metric("sinr.candidates_per_decode",
           decodes > 0 ? count("medium.decode_candidates") / decodes : 0.0, "count");
  r.metric("geom.hier_traverse_us_per_slot",
           1e6 * perSlot(timerSec(d, "geom.hier_traverse"), slots), "us");
  r.metric("geom.far_cells_per_listen",
           listens > 0 ? count("medium.far_cells_batched") / listens : 0.0, "count");
  for (const char* level : {"L0", "L1", "L2", "L3"}) {
    r.metric(std::string("geom.hier_far_cells.").append(level),
             perSlot(count(std::string("medium.hier_far_cells.").append(level).c_str()), slots),
             "count");
  }
  r.metric("geom.grid_update_us_per_slot",
           1e6 * perSlot(timerSec(d, "geom.grid_update"), slots), "us");
  return resolve;
}

double median(std::vector<double> xs) {
  return xs.empty() ? 0.0 : mcs::quantile(std::move(xs), 0.5);
}

double medianSetupSec(const Options& opts, const std::function<void()>& build) {
  const double batchFloor = opts.small ? 0.004 : 0.04;
  const double totalFloor = opts.small ? 0.03 : 0.3;
  const double t0 = mcs::nowSec();
  build();
  const double once = std::max(mcs::nowSec() - t0, 1e-7);
  const int perBatch = std::max(1, static_cast<int>(std::ceil(batchFloor / once)));
  std::vector<double> batches;
  const double start = mcs::nowSec();
  while (batches.size() < 5 || mcs::nowSec() - start < totalFloor) {
    const double a = mcs::nowSec();
    for (int i = 0; i < perBatch; ++i) build();
    batches.push_back((mcs::nowSec() - a) / perBatch);
  }
  return median(std::move(batches));
}

std::vector<mcs::store::StoreQuery> queryRotation(
    const std::array<mcs::store::StoreQuery, 3>& kinds, const std::string& heavyGroupBy) {
  std::vector<mcs::store::StoreQuery> mix;
  for (std::size_t i = 0; i < 9; ++i) mix.push_back(kinds[i % kinds.size()]);
  mix.emplace_back();  // every metric
  mix.back().groupBy = heavyGroupBy;
  return mix;
}

void QueryPhase::run(std::uint64_t minQueries, double minSeconds, Result& r) {
  const double t0 = mcs::nowSec();
  std::string err;
  while (latency_.count() < minQueries || mcs::nowSec() - t0 < minSeconds) {
    const std::uint64_t a = mcs::nowNanos();
    const bool ok = mcs::store::runStoreQuery(*reader_, mix_[latency_.count() % mix_.size()],
                                              groups_, err);
    latency_.add(static_cast<double>(mcs::nowNanos() - a) / 1e3);
    if ((!ok || groups_.empty()) && !failed_) {
      failed_ = true;
      r.check(false, "store query failed: " + err);
    }
  }
  seconds_ += mcs::nowSec() - t0;
}

double peakRssMb() {
  // VmHWM, not getrusage: ru_maxrss survives exec, so it would report the
  // launching process's peak whenever that was larger than ours.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  return 0.0;
}

}  // namespace perfbench
