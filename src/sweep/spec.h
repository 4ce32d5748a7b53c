#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/spec.h"

/// Declarative parameter-sweep campaigns layered on the scenario engine.
///
/// A sweep file is the same `key = value` / `#`-comment format as a
/// scenario file, with three extra key forms:
///
///   name      = e2_scaling          # campaign name (BENCH_sweep_<name>.store)
///   base      = uniform_square      # start from a registry preset...
///   base_file = specs/dense.txt     # ...or from a scenario file
///   sweep.<key> = <values>          # a sweep axis over any scenario key
///   zip.<key>   = <values>          # paired axes: all zip.* advance together
///   <key>       = <value>           # fixed scenario override
///
/// Axis values are either a comma list (`1000,4000,16000`, also for enum
/// keys: `none,rayleigh`) or a numeric range `lo:hi:step` where the step
/// is additive (`1:9:+2` or `1:9:2`) or geometric (`1:8:*2`); a bare
/// `lo:hi` steps by +1.  Fixed overrides and axes apply to each cell in
/// file order, so e.g. `range = 1.0` placed after `sweep.alpha` rescales
/// the noise floor using the cell's alpha.
///
/// Expansion (sweep/expand.h) crosses every axis (the zip group counts as
/// one axis) into a deterministic row-major grid of ScenarioSpecs; the
/// campaign runner (sweep/runner.h) executes each cell as a seed batch.
namespace mcs {

enum class SweepAssignKind : std::uint8_t {
  Fixed = 0,  ///< One value applied to every cell.
  Axis,       ///< Own sweep dimension.
  Zip,        ///< Shares the single zipped dimension with all other Zip axes.
};

/// One `key = value(s)` line of a sweep file, in declaration order.
struct SweepAssignment {
  SweepAssignKind kind = SweepAssignKind::Fixed;
  std::string key;
  std::vector<std::string> values;  // Fixed: exactly one
};

/// A parsed sweep campaign: the resolved base scenario plus the ordered
/// assignment list.
struct SweepSpec {
  std::string name = "sweep";
  /// The resolved base scenario (registry preset or scenario file);
  /// defaults when the file names neither.
  ScenarioSpec base;
  /// What `base` / `base_file` named ("" when defaulted).
  std::string baseName;
  std::vector<SweepAssignment> assignments;

  /// Keys of the non-fixed assignments, in declaration order (zip keys
  /// included individually).  These are the campaign's axis columns.
  [[nodiscard]] std::vector<std::string> axisKeys() const;
};

/// Parses an axis value list: comma list or `lo:hi[:step]` range (see the
/// header comment for the syntax).  Returns false with a diagnostic for
/// malformed ranges, empty elements, or absurd expansions (> 10000).
bool parseAxisValues(const std::string& value, std::vector<std::string>& out, std::string& err);

/// Applies one sweep-file assignment.  `baseDir` anchors relative
/// `base_file` paths (pass the sweep file's directory, or "" for cwd).
bool applySweepKey(SweepSpec& spec, const std::string& key, const std::string& value,
                   const std::string& baseDir, std::string& err);

/// CLI-override variant: replaces any existing assignment of the same
/// scenario key instead of rejecting the duplicate, so
/// `sweep_runner --preset=e2_scaling --seeds=1` shrinks a campaign.
bool applySweepOverride(SweepSpec& spec, const std::string& key, const std::string& value,
                        std::string& err);

/// Parses sweep-file text (`sourceName` labels diagnostics).
bool parseSweepText(SweepSpec& spec, const std::string& text, const std::string& sourceName,
                    const std::string& baseDir, std::string& err);

/// Loads a sweep file; `base_file` paths resolve relative to it.
bool loadSweepFile(SweepSpec& spec, const std::string& path, std::string& err);

/// One-line human-readable summary (axis keys and sizes).
[[nodiscard]] std::string describeSweep(const SweepSpec& spec);

}  // namespace mcs
