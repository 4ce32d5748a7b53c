#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "store/reader.h"
#include "util/json.h"
#include "util/sketch.h"

/// Query engine over a memory-mapped campaign store: filter by axis
/// value, group by an axis, and re-aggregate the per-cell accumulator
/// states — moments merge exactly, quantile sketches merge within the
/// documented alpha bound (exactly below the spill threshold).  Scans
/// touch only the columns a query names; nothing is loaded wholesale.
namespace mcs::store {

struct StoreQuery {
  /// Metric names to aggregate; empty = every metric in the stores (their
  /// union, first store first).  A metric a store lacks reads as empty
  /// there; one no store holds is an error.  A name starting with "tm."
  /// selects a per-cell telemetry counter instead (e.g.
  /// "tm.cause.noise_limited"): each matching cell contributes its
  /// counter value as one sample, absent entries count as 0.0 — so mean
  /// is the per-cell average and sum the campaign total.
  std::vector<std::string> metrics;
  /// Conjunctive equality filters: axis name (or "label") == value.
  std::vector<std::pair<std::string, std::string>> where;
  /// Axis name to group by; empty = one "all" group.
  std::string groupBy;
};

struct QueryGroup {
  /// The group's axis value ("all" for the ungrouped query).
  std::string key;
  std::uint64_t cells = 0;
  /// Selected metrics in query order, each the merge of the group's
  /// per-cell states in slot order (deterministic).
  NamedStats stats;
};

/// Runs the query; groups come out in first-appearance (slot) order.
/// Unknown metric/axis names fail with a message listing what the store
/// holds.  Instrumented with the query.scan timer and the
/// store.sketch_merges counter.
[[nodiscard]] bool runStoreQuery(const StoreReader& reader, const StoreQuery& query,
                                 std::vector<QueryGroup>& out, std::string& err);

/// Union precondition for multi-store queries: every cell index must
/// appear in at most one store (the intended shape is shards of one
/// campaign).  An overlap fails with the offending index and stores.
[[nodiscard]] bool checkStoreUnion(const std::vector<const StoreReader*>& readers,
                                   std::string& err);

/// Runs the query over several stores as one logical campaign.  Checks
/// the union precondition first; groups merge by axis-value string
/// across stores, ordered by first appearance scanning the stores in
/// argument order.
[[nodiscard]] bool runStoreQueryUnion(const std::vector<const StoreReader*>& readers,
                                      const StoreQuery& query, std::vector<QueryGroup>& out,
                                      std::string& err);

/// Merges the probe states (decode attribution + slot series) of every
/// cell passing `where`, across all stores — the input for
/// sweep_query --series.  Probe merges commute, so the result is
/// independent of store order and bit-identical to an in-process merge
/// of the same cells.
[[nodiscard]] bool mergeStoreProbes(
    const std::vector<const StoreReader*>& readers,
    const std::vector<std::pair<std::string, std::string>>& where,
    mcs::telemetry::ProbeState& out, std::string& err);

/// The campaign-summaries view of a store: a campaign JSON tree
/// ({"name","kind","meta","cells":[{index,label,assignments,seeds,
/// failures,delivered,valid,invalid,summaries}]}) whose summary blocks
/// are recomputed from the stored accumulators.  Moment-derived fields
/// are bit-identical to the legacy report; p50/p95 are exact below the
/// sketch threshold and within alpha above it.  This is what lets
/// sweep_check gate a store against a JSON baseline (--candidate-store)
/// — the store is the source of truth, the JSON a view.
[[nodiscard]] bool storeSummariesJson(const StoreReader& reader, Json& out, std::string& err);

}  // namespace mcs::store
