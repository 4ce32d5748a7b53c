// perfbench: one benchmark run of one workload, in a fresh process.
//
//   perfbench --workload=<agg_static|agg_mobile|farfield|campaign_store>
//             --seed=N --seconds=S --trace=0|1 --work-dir=DIR [--small=1]
//
// Prints human-readable progress, then one JSON line as the last line of
// stdout: {"workload", "correct", "attempted", "failed", "failures",
// "metrics": {name: {"value", "unit"}}, "build", ["trace_file",
// "trace_events"]}.  --trace=0 reports the end-to-end metrics, --trace=1
// the per-layer ones the workload exercises.  Exit 0 when every check passed, 1 when one failed,
// 2 on a usage or set-up error.  perfbench/run.py builds and drives it.

#include <cstdio>
#include <string>

#include "report.h"
#include "util/args.h"

int main(int argc, char** argv) {
  const mcs::Args args(argc, argv);
  perfbench::Options opts;
  opts.workload = args.get("workload");
  opts.seed = static_cast<std::uint64_t>(args.getInt("seed", 1));
  opts.seconds = args.getDouble("seconds", 10.0);
  opts.trace = args.getInt("trace", 0) != 0;
  opts.small = args.getInt("small", 0) != 0;
  opts.workDir = args.get("work-dir", ".");
  if (opts.workload.empty() || opts.seconds <= 0) {
    std::fprintf(stderr, "usage: perfbench --workload=NAME --seed=N --seconds=S --trace=0|1 "
                         "--work-dir=DIR [--small=1]\n");
    return 2;
  }

  perfbench::Result r;
  const bool ok = opts.workload == "campaign_store" ? perfbench::runCampaignWorkload(opts, r)
                                                    : perfbench::runSimWorkload(opts, r);
  if (!ok) return 2;
  if (!opts.trace) r.metric("peak_rss_mb", perfbench::peakRssMb(), "MB");
  std::printf("%s\n", r.jsonLine(opts).c_str());
  return r.correct() ? 0 : 1;
}
