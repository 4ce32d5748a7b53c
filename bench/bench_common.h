#pragma once

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>

#include "mcs.h"

/// Shared helpers for the bench CLIs (bench_*, scenario_runner,
/// sweep_runner): telemetry flag handling, terminal tables, and the
/// BenchReport that writes machine-readable BENCH_<name>.json so runs can
/// be diffed across commits (sweep_check's rows mode reads it).
namespace mcs::bench {

/// Arms engine metrics (--metrics), decode-attribution/time-series probes
/// (--probes — implies --metrics, since the cause counters ride the
/// counter registry), and the slot-level trace recorder
/// (--trace-out=<path>) from the shared CLI flags.  Call before the run;
/// pair with finishTelemetryCli() after it.
inline void armTelemetryCli(const Args& args) {
  if (args.getBool("metrics")) telemetry::setEnabled(true);
  if (args.getBool("probes")) telemetry::setProbesEnabled(true);
  if (!args.get("trace-out").empty()) telemetry::setTraceEnabled(true);
}

/// After a run: prints the merged counter/timer table (timer totals with
/// their share of `wallSec` — shares can exceed 100% when several lanes
/// time the same phase concurrently) when metrics are armed, and writes
/// the Chrome trace file when --trace-out was given.  Returns false when
/// the trace write fails, so binaries can propagate it to the exit code.
/// Pass writeTrace=false when something else already wrote the trace file
/// (the campaign coordinator merging worker rings) — the counter/timer
/// table still prints.
inline bool finishTelemetryCli(const Args& args, double wallSec, bool writeTrace = true) {
  if (telemetry::enabled()) {
    const telemetry::MetricsSnapshot snap = telemetry::snapshotMetrics();
    std::printf("\ntelemetry counters:\n");
    for (const telemetry::CounterSample& c : snap.counters) {
      if (c.value != 0) {
        std::printf("  %-34s %llu\n", c.name.c_str(),
                    static_cast<unsigned long long>(c.value));
      }
    }
    std::printf("telemetry timers (wall %.3fs):\n", wallSec);
    for (const telemetry::TimerSample& t : snap.timers) {
      if (t.count == 0) continue;
      const double pct = wallSec > 0.0 ? t.totalSec / wallSec * 100.0 : 0.0;
      std::printf("  %-34s count=%-10llu total=%8.3fs (%5.1f%% of wall) mean=%9.1fus "
                  "max=%9.1fus\n",
                  t.name.c_str(), static_cast<unsigned long long>(t.count), t.totalSec, pct,
                  t.count ? t.totalSec * 1e6 / static_cast<double>(t.count) : 0.0,
                  t.maxSec * 1e6);
    }
    std::fflush(stdout);
  }
  const std::string tracePath = args.get("trace-out");
  if (!tracePath.empty() && writeTrace) {
    std::string terr;
    if (!telemetry::writeTraceFile(tracePath, terr)) {
      std::fprintf(stderr, "%s\n", terr.c_str());
      return false;
    }
    std::printf("wrote %s (%zu trace events)\n", tracePath.c_str(),
                telemetry::traceEventCount());
    std::fflush(stdout);
  }
  return true;
}

/// Accumulates bench output as ordered key -> (number | string) rows
/// plus run-level metadata, and serializes to BENCH_<name>.json:
///
///   {"name": "...", "meta": {...}, "rows": [{...}, ...]}
///
/// Keys keep insertion order (sweep_check keys rows by their string
/// columns in order); a repeated key overwrites its earlier value.
/// Numbers use shortest round-trip formatting; NaN/inf serialize as null.
class BenchReport {
 public:
  explicit BenchReport(std::string name) : name_(std::move(name)) {}

  BenchReport& meta(const std::string& key, double v) { return put(meta_, key, v); }
  BenchReport& meta(const std::string& key, const std::string& v) { return put(meta_, key, v); }

  /// Starts a new row; follow with col() calls.
  BenchReport& row() {
    rows_.push_back(Json::object());
    return *this;
  }
  BenchReport& col(const std::string& key, double v) { return put(currentRow(), key, v); }
  BenchReport& col(const std::string& key, const std::string& v) {
    return put(currentRow(), key, v);
  }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  [[nodiscard]] std::string json() const {
    Json root = Json::object();
    root.set("name", name_);
    root.set("meta", meta_);
    root.set("rows", rows_);
    // Every BENCH_*.json grows a "telemetry" block when metrics are armed
    // (--metrics); disabled runs keep the historical two-key layout.
    if (telemetry::enabled()) {
      const telemetry::MetricsSnapshot snap = telemetry::snapshotMetrics();
      if (!snap.empty()) root.set("telemetry", snap.toJson());
    }
    return root.dump() + "\n";
  }

  /// Writes BENCH_<name>.json into `dir` and reports the path on stdout.
  /// Returns false (after reporting on stderr) when the write failed, so
  /// binaries can propagate the failure to their exit code.
  [[nodiscard]] bool write(const std::string& dir = ".") const {
    const std::string path = dir + "/BENCH_" + name_ + ".json";
    std::ofstream f(path);
    f << json();
    f.flush();
    if (!f.good()) {
      std::fprintf(stderr, "FAILED to write %s\n", path.c_str());
      return false;
    }
    std::printf("wrote %s\n", path.c_str());
    std::fflush(stdout);
    return true;
  }

 private:
  /// col() before any row() starts one implicitly rather than hitting
  /// undefined behavior on an empty array.
  Json& currentRow() {
    if (rows_.size() == 0) row();
    return rows_.items().back();
  }

  BenchReport& put(Json& obj, const std::string& key, Json v) {
    obj.set(key, std::move(v));
    return *this;
  }

  std::string name_;
  Json meta_ = Json::object();
  Json rows_ = Json::array();
};

/// printf-style row helper keeping tables readable in a terminal.
template <class... Ts>
void row(const char* fmt, Ts... args) {
  std::printf(fmt, args...);
  std::printf("\n");
  std::fflush(stdout);
}

/// A table's banner: its title, then one line saying what it measures.
inline void header(const std::string& title, const std::string& what) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("%s\n\n", what.c_str());
  std::fflush(stdout);
}

}  // namespace mcs::bench
