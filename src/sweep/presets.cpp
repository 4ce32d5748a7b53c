#include "sweep/presets.h"

#include <iterator>

namespace mcs {

namespace {

struct PresetEntry {
  const char* name;
  const char* description;
  const char* text;
};

/// The E1-E10 grids, one per paper experiment (README.md maps each to its
/// sweep_query table).  Fixed-density sweeps hold 900 nodes per unit area:
/// side = sqrt(n / 900), paired with n via zip axes.  Sizes are the
/// experiments' own; override with flags (e.g. `--seeds=1 --n=...`) for
/// smoke runs.
constexpr PresetEntry kPresets[] = {
    {"e1_speedup",
     "E1: aggregation slots vs channel count F on a dense patch (Thm 22 speedup)",
     "name = e1_speedup\n"
     "base = uniform_square\n"
     "n = 3500\n"
     "side = 0.65\n"
     "seeds = 1\n"
     "seed0 = 1\n"
     "sweep.channels = 1:32:*2\n"},

    {"e2_scaling",
     "E2: aggregation cost vs n at fixed density 900 and F=8 (Thm 22 in n)",
     "name = e2_scaling\n"
     "base = uniform_square\n"
     "protocol = agg_max\n"
     "channels = 8\n"
     "seeds = 2\n"
     "seed0 = 2\n"
     "# fixed node density 900 per unit area: side = sqrt(n / 900)\n"
     "zip.n = 250,500,1000,2000,4000\n"
     "zip.side = 0.527046,0.745356,1.054093,1.490712,2.108185\n"},

    {"e3_structure",
     "E3: structure construction cost vs n at fixed density (Thm 10 stages)",
     "name = e3_structure\n"
     "base = uniform_square\n"
     "protocol = structure\n"
     "channels = 8\n"
     "seeds = 2\n"
     "seed0 = 3\n"
     "zip.n = 250,500,1000,2000,4000\n"
     "zip.side = 0.527046,0.745356,1.054093,1.490712,2.108185\n"},

    {"e4_coloring",
     "E4: node coloring vs channel count on a dense patch (Thm 24)",
     "name = e4_coloring\n"
     "base = coloring_patch\n"
     "n = 1500\n"
     "side = 1.0\n"
     "seeds = 1\n"
     "seed0 = 4\n"
     "sweep.channels = 1,2,4,8,16\n"},

    {"e5_ruling",
     "E5: (r, 2r)-ruling set size and rounds vs n at fixed density (Lemma 6)",
     "name = e5_ruling\n"
     "base = ruling_field\n"
     "seeds = 3\n"
     "seed0 = 5\n"
     "zip.n = 250,500,1000,2000,4000\n"
     "zip.side = 0.527046,0.745356,1.054093,1.490712,2.108185\n"},

    {"e6_csa",
     "E6: cluster-size approximation across F, DeltaHat knowledge, and variant (Lemma 14)",
     "name = e6_csa\n"
     "base = csa_patch\n"
     "n = 1000\n"
     "side = 1.1\n"
     "seeds = 1\n"
     "seed0 = 6\n"
     "sweep.channels = 2,8,32\n"
     "sweep.delta_hat = -1,128\n"
     "sweep.csa_variant = large,small\n"},

    {"e7_chain",
     "E7: exponential-chain concurrency sampling vs channel count (the §1 lower bound)",
     "name = e7_chain\n"
     "# the base's chain_base = 2, chain_max_gap = 0.9: the literal {2^i} chain\n"
     "# of §1, where at most one descending sender per channel can succeed\n"
     "base = chain_lowerbound\n"
     "n = 48\n"
     "chain_trials = 600\n"
     "seeds = 1\n"
     "seed0 = 7\n"
     "sweep.channels = 1:8:*2\n"},

    {"e8_robustness",
     "E8: aggregation across the physical alpha x beta range (§2 robustness)",
     "name = e8_robustness\n"
     "base = uniform_square\n"
     "n = 800\n"
     "side = 1.0\n"
     "channels = 8\n"
     "seeds = 2\n"
     "seed0 = 8\n"
     "sweep.alpha = 2.5,3,4\n"
     "sweep.beta = 1.2,1.5,3\n"
     "# after the axes: rescale noise so R_T = 1 under the cell's alpha/beta\n"
     "range = 1.0\n"},

    {"e8_uncertainty",
     "E8b: aggregation as the nodes' parameter knowledge degrades (bounds_width)",
     "name = e8_uncertainty\n"
     "base = uniform_square\n"
     "n = 800\n"
     "side = 1.0\n"
     "channels = 8\n"
     "seeds = 2\n"
     "seed0 = 8\n"
     "sweep.bounds_width = 0,0.1,0.2,0.4\n"},

    {"e9_contention",
     "E9: uplink contention machinery vs n on a fixed dense patch (Lemmas 19-21)",
     "name = e9_contention\n"
     "base = uniform_square\n"
     "protocol = agg_max\n"
     "side = 1.0\n"
     "channels = 8\n"
     "seeds = 1\n"
     "seed0 = 9\n"
     "sweep.n = 500,1000,2000,4000\n"},

    {"e10_mobility",
     "E10: aggregation under mobility x churn — graph drift, survival, re-delivery",
     "name = e10_mobility\n"
     "base = uniform_square\n"
     "protocol = agg_max\n"
     "n = 350\n"
     "side = 1.3\n"
     "channels = 8\n"
     "seeds = 2\n"
     "seed0 = 10\n"
     "mobility = random_walk\n"
     "churn_arrival_rate = 0.01\n"
     "sweep.mobility_speed = 0.0005,0.002,0.008\n"
     "sweep.churn_departure_rate = 0,0.0005\n"},
};

}  // namespace

std::vector<SweepPresetInfo> SweepRegistry::list() {
  std::vector<SweepPresetInfo> out;
  out.reserve(std::size(kPresets));
  for (const PresetEntry& e : kPresets) out.push_back({e.name, e.description});
  return out;
}

std::string SweepRegistry::text(const std::string& name) {
  for (const PresetEntry& e : kPresets) {
    if (name == e.name) return e.text;
  }
  return "";
}

bool SweepRegistry::find(const std::string& name, SweepSpec& out, std::string& err) {
  for (const PresetEntry& e : kPresets) {
    if (name != e.name) continue;
    out = SweepSpec{};
    return parseSweepText(out, e.text, std::string("preset ") + e.name, "", err);
  }
  err = "unknown sweep preset \"" + name + "\"";
  return false;
}

}  // namespace mcs
