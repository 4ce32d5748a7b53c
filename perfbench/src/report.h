#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "store/query.h"
#include "telemetry/telemetry.h"
#include "util/json.h"
#include "util/sketch.h"

/// Shared pieces of the perfbench driver: run options, the result record
/// (metrics, correctness checks, attempt counts), the per-layer tree
/// printer, set-up timing and the traced store-query phase.
namespace perfbench {

/// One benchmark run, as parsed from the command line.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Self-test sizes: every code path, a fraction of the work.
  bool small = false;
  /// Per-run scratch directory (cell files, stores, the Chrome trace).
  std::string workDir;
};

/// What a run reports: named metrics with units, plus the ledger of
/// failed work and failed correctness checks.  Both count in `failed`;
/// only a failed check makes the run incorrect.
class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Counts `n` attempted units of work (seed runs or campaign cells).
  void attempted(std::uint64_t n) { attempted_ += n; }
  /// Records one failed unit of work: a seed that threw, was not
  /// delivered or failed its ground-truth check.  The protocols succeed
  /// with high probability, not always, so this is a measurement.
  void failedUnit(const std::string& what);
  /// Records one correctness check (reproducibility, traced vs untraced,
  /// store vs direct merge); a failure makes the run incorrect.
  void check(bool ok, const std::string& what);
  void setTraceFile(std::string path, std::size_t events);

  [[nodiscard]] bool correct() const noexcept { return checksFailed_ == 0; }

  /// The one-line JSON record run.py consumes.
  [[nodiscard]] std::string jsonLine(const Options& opts) const;

 private:
  mcs::Json metrics_ = mcs::Json::object();
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t checksFailed_ = 0;
  std::vector<std::string> failures_;
  std::string traceFile_;
  std::size_t traceEvents_ = 0;
};

/// A timing tree: each node's children should account for its time; the
/// remainder prints as an explicit "(untimed)" row with the coverage.
class LayerTree {
 public:
  /// Adds a node under `parent` (-1: a root); returns its id.
  int add(const std::string& name, double sec, int parent = -1);
  /// Prints every parent with its children, untimed row and coverage.
  void print(std::FILE* out, const std::string& title) const;
  /// Lowest share of any parent's time that its children explain.
  [[nodiscard]] double minCoverage() const;

 private:
  struct Node {
    std::string name;
    double sec = 0.0;
    int parent = -1;
  };
  [[nodiscard]] double childSum(int id) const;
  [[nodiscard]] bool hasChildren(int id) const;
  std::vector<Node> nodes_;
};

/// Seconds of a timer in a snapshot (0 when absent).
[[nodiscard]] double timerSec(const mcs::telemetry::MetricsSnapshot& s, const char* name);
/// Mean sample of a timer in microseconds (0 when it has no samples).
[[nodiscard]] double timerMeanUs(const mcs::telemetry::MetricsSnapshot& s, const char* name);

/// Medium-level telemetry over `slots` simulated slots: sinr.* and geom.*
/// per-slot figures.  Returns the resolve-slot seconds so callers can
/// split the protocol time around it.
double reportMediumLayers(const mcs::telemetry::MetricsSnapshot& d, double slots, Result& r);

/// Median of a sample (0 for an empty one).
[[nodiscard]] double median(std::vector<double> xs);

/// The set-up figure: `build` (one complete set-up of the run's inputs) is
/// repeated in batches of at least 40 ms, at least five batches and 0.3 s
/// in all; returns the median batch's seconds per set-up.  Batching keeps
/// timer and interrupt jitter small against sub-millisecond set-ups.
[[nodiscard]] double medianSetupSec(const Options& opts, const std::function<void()>& build);

/// The rotation of ten queries the query phase cycles through: each of the
/// three targeted `kinds` three times, then every metric grouped by
/// `heavyGroupBy`.  With three light kinds of 30% each, the p50 lands
/// inside the middle kind's distribution, not on the gap between two; the
/// heavy query is 10%, so the p99 lands on its 90th percentile rather
/// than on the interrupt-hit tail of the light ones.
[[nodiscard]] std::vector<mcs::store::StoreQuery> queryRotation(
    const std::array<mcs::store::StoreQuery, 3>& kinds, const std::string& heavyGroupBy);

/// The store-query phase: `mix` in order, round and round, each query
/// timed on its own into streaming quantiles (exact below 4096 samples,
/// within 1% above).
class QueryPhase {
 public:
  QueryPhase(const mcs::store::StoreReader& reader, std::vector<mcs::store::StoreQuery> mix)
      : reader_(&reader), mix_(std::move(mix)) {}
  /// Runs queries until at least `minQueries` ran and `minSeconds` passed.
  void run(std::uint64_t minQueries, double minSeconds, Result& r);
  /// Query latencies, in microseconds.
  [[nodiscard]] const mcs::StreamingQuantiles& latencyUs() const noexcept { return latency_; }
  [[nodiscard]] double seconds() const noexcept { return seconds_; }

 private:
  const mcs::store::StoreReader* reader_;
  std::vector<mcs::store::StoreQuery> mix_;
  std::vector<mcs::store::QueryGroup> groups_;
  mcs::StreamingQuantiles latency_;
  double seconds_ = 0.0;
  bool failed_ = false;
};

/// Current process peak resident set, in MB.
[[nodiscard]] double peakRssMb();

/// Runs a workload; each returns false only on a setup error it already
/// reported (failed checks are carried in the Result).
bool runSimWorkload(const Options& opts, Result& r);
bool runCampaignWorkload(const Options& opts, Result& r);

}  // namespace perfbench
