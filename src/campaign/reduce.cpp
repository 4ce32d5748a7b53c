#include "campaign/reduce.h"

#include <algorithm>
#include <cassert>

#include "telemetry/telemetry.h"

namespace mcs::campaign {

namespace {

std::uint64_t nodeKey(std::size_t level, std::size_t idx) {
  return (static_cast<std::uint64_t>(level) << 48) | static_cast<std::uint64_t>(idx);
}

}  // namespace

void sortMetricStats(NamedStats& stats) {
  std::sort(stats.begin(), stats.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
}

NamedStats mergeMetricStats(const NamedStats& left, const NamedStats& right) {
  NamedStats out;
  out.reserve(std::max(left.size(), right.size()));
  std::size_t i = 0, j = 0;
  while (i < left.size() || j < right.size()) {
    if (j >= right.size() || (i < left.size() && left[i].first < right[j].first)) {
      out.push_back(left[i++]);
    } else if (i >= left.size() || right[j].first < left[i].first) {
      out.push_back(right[j++]);
    } else {
      static const telemetry::CounterId kSketchMerges =
          telemetry::counterId("store.sketch_merges");
      StreamingStats s = left[i].second;
      if (s.quantiles.sketchMode() || right[j].second.quantiles.sketchMode()) {
        telemetry::counterAdd(kSketchMerges);
      }
      s.merge(right[j].second);
      out.emplace_back(left[i].first, std::move(s));
      ++i;
      ++j;
    }
  }
  return out;
}

TreeReducer::TreeReducer(std::size_t leaves) : leaves_(leaves) {
  std::size_t size = leaves;
  levelSize_.push_back(size);
  while (size > 1) {
    size = (size + 1) / 2;
    levelSize_.push_back(size);
  }
}

void TreeReducer::addLeaf(std::size_t index, NamedStats stats) {
  assert(index < leaves_);
  sortMetricStats(stats);
  ++received_;
  place(0, index, std::move(stats));
}

void TreeReducer::place(std::size_t level, std::size_t idx, NamedStats node) {
  for (;;) {
    if (levelSize_[level] <= 1) {
      root_ = std::move(node);
      return;
    }
    const std::size_t sibling = idx ^ 1;
    if (sibling >= levelSize_[level]) {
      // Lone tail node of an odd level: promotes unchanged.
      ++level;
      idx /= 2;
      continue;
    }
    const auto it = pending_.find(nodeKey(level, sibling));
    if (it == pending_.end()) {
      pending_.emplace(nodeKey(level, idx), std::move(node));
      return;
    }
    NamedStats other = std::move(it->second);
    pending_.erase(it);
    // Children always merge left-into-right regardless of which arrived
    // first — this is the whole determinism argument.
    node = (idx & 1) ? mergeMetricStats(other, node) : mergeMetricStats(node, other);
    ++level;
    idx /= 2;
  }
}

}  // namespace mcs::campaign
