#!/usr/bin/env bash
# Tier-1 verify: configure, build (warnings are errors), run the full suite.
# This is the exact sequence CI runs; keep it in sync with ROADMAP.md.
set -euo pipefail
cd "$(dirname "$0")/.."

# Succeeds when the output of the command "$2..." contains pattern $1.
# The output is captured before grep sees it: piping straight into
# `grep -q`, which exits at its first match, can SIGPIPE a producer that
# is still writing, and pipefail then fails a check that matched.
output_has() {
  local pattern=$1 out
  shift
  out=$("$@") || return 1
  grep -q -- "${pattern}" <<< "${out}"
}

cmake -B build -S .
cmake --build build -j "$(nproc)"
(cd build && ctest --output-on-failure -j "$(nproc)")

# --- Bench seeding + scenario smoke -----------------------------------------
# Runs the medium regression bench and every registered scenario preset at
# its (small) default size, collecting the BENCH_*.json reports into
# build/bench-artifacts so CI can upload them and the perf history
# accumulates per commit.  Any nonzero exit or empty report fails the job.
cd build
mkdir -p bench-artifacts
(cd bench-artifacts && ../bench/bench_medium --budget=0.05)

# --list prints `name  description`, one preset per line, then a blank
# line and the mobility-model list; the preset names are the first column
# of the first block only.
./bench/scenario_runner --list
presets=$(./bench/scenario_runner --list | awk 'NF == 0 { exit } { print $1 }')

# The registry must keep at least one preset per ProtocolKind — static
# AND mobile — so the smoke loop below exercises every protocol driver
# end-to-end on both static and dynamic topologies.
for required in uniform_square corridor aloha_patch exponential_chain \
                coloring_patch cluster_palette csa_patch ruling_field \
                dominators chain_lowerbound \
                mobile_agg_max mobile_agg_sum mobile_aloha mobile_structure \
                mobile_coloring mobile_palette mobile_csa mobile_ruling \
                mobile_dominators mobile_chain mobile_nearfar; do
  grep -qx "${required}" <<< "${presets}" \
    || { echo "FAIL: registry is missing required preset ${required}"; exit 1; }
done

for preset in ${presets}; do
  case "${preset}" in
    huge_*)
      # Million-node presets are smoked separately below at a reduced
      # round budget; at --seeds=2 with default rounds they would
      # dominate the whole verify wall time.
      echo "--- scenario smoke: ${preset} (deferred to the huge-tier smoke)"
      continue
      ;;
  esac
  echo "--- scenario smoke: ${preset}"
  ./bench/scenario_runner --scenario="${preset}" --seeds=2 --out-dir=bench-artifacts
done

# --- Huge-tier smoke ---------------------------------------------------------
# One seed, two ruling-set rounds: enough to prove the hierarchical medium
# resolves million-node slots end-to-end without paying a full election.
./bench/scenario_runner --scenario=huge_hier --seeds=1 --ruling_rounds=2 \
  --out-dir=bench-artifacts

# --- Telemetry smoke ---------------------------------------------------------
# One preset with --metrics + --trace-out: the BENCH json must grow a
# telemetry block, and the Chrome trace must pass the trace_check
# validator (slot spans plus seed instants => well over 100 events).
./bench/scenario_runner --scenario=corridor --seeds=2 --metrics \
  --trace-out=bench-artifacts/trace_corridor.json --out-dir=bench-artifacts
./bench/trace_check bench-artifacts/trace_corridor.json --min-events=100 \
  --max-bytes=50000000
grep -q '"telemetry"' bench-artifacts/BENCH_scenario_corridor.json \
  || { echo "FAIL: --metrics produced no telemetry block"; exit 1; }

# The dynamics hook is timed: a mobile preset's telemetry block carries the
# mobility.advance timer (and its mobility.sample child).
./bench/scenario_runner --scenario=mobile_agg_max --seeds=1 --metrics \
  --out-dir=bench-artifacts
grep -q '"mobility.advance"' bench-artifacts/BENCH_scenario_mobile_agg_max.json \
  || { echo "FAIL: --metrics on a mobile preset did not time mobility.advance"; exit 1; }

# Telemetry-overhead smoke: the same batch with metrics+trace armed must
# stay within 1.5x + 0.2s of the plain run (the real budget is <5%,
# measured on bench_medium locally; this loose gate only catches a
# hot-path instrumentation blunder through CI noise).
overhead_wall() {
  grep -o '"batch_wall_sec": [0-9.e+-]*' "$1" | head -1 | awk '{print $2}'
}
./bench/scenario_runner --scenario=uniform_square --seeds=3 --threads=2 \
  --out-dir=bench-artifacts
base_wall=$(overhead_wall bench-artifacts/BENCH_scenario_uniform_square.json)
./bench/scenario_runner --scenario=uniform_square --seeds=3 --threads=2 --metrics \
  --trace-out=bench-artifacts/trace_uniform_square.json --out-dir=bench-artifacts
telem_wall=$(overhead_wall bench-artifacts/BENCH_scenario_uniform_square.json)
awk -v off="${base_wall}" -v on="${telem_wall}" 'BEGIN {
  budget = off * 1.5 + 0.2;
  printf "telemetry overhead smoke: off=%.3fs on=%.3fs budget=%.3fs\n", off, on, budget;
  exit (on <= budget) ? 0 : 1;
}' || { echo "FAIL: telemetry overhead exceeds the smoke budget"; exit 1; }

# --- Sweep campaign smoke + perf-regression gate -----------------------------
# Runs the committed smoke campaign and diffs its store against the
# committed baseline: metric drift beyond 20% or a wall-time regression
# beyond 9x fails the build.  (The tight bit-identical guarantees are
# locked by the unit tests; the loose tolerances here absorb cross-machine
# noise.)  After an intentional change, re-capture a baseline from a store:
#   ./bench/sweep_query <store> --cells --format=json > ../sweeps/baseline.json
./bench/sweep_runner --list
./bench/sweep_runner --sweep=../sweeps/smoke.sweep --out-dir=bench-artifacts --threads=2
./bench/sweep_check --baseline=../sweeps/baseline.json \
  --candidate-store=bench-artifacts/BENCH_sweep_smoke.store --metric-tol=0.2 --wall-tol=9

# The E10 mobility campaign's smoke slice (one seed per cell) behind the
# same gate at zero metric tolerance: drift metrics and re-delivery are
# deterministic per seed, so any mean moving against
# sweeps/e10_baseline.json is a real change.
./bench/sweep_runner --sweep=../sweeps/e10_mobility.sweep --seeds=1 \
  --out-dir=bench-artifacts --threads=2
./bench/sweep_check --baseline=../sweeps/e10_baseline.json \
  --candidate-store=bench-artifacts/BENCH_sweep_e10_mobility.store --metric-tol=0 \
  --wall-tol=9

# The paper experiments run as sweep presets, their tables as store
# queries.  E9 at two small sizes: the uplink contention column must come
# out of the store.
./bench/sweep_runner --preset=e9_contention --sweep.n=150,300 \
  --out-dir=bench-artifacts/e9-smoke
output_has 'uplink_max_contention_ratio' ./bench/sweep_query \
  bench-artifacts/e9-smoke/BENCH_sweep_e9_contention.store --group-by=n \
  --select=uplink_max_contention_ratio \
  || { echo "FAIL: the e9_contention store has no uplink contention metric"; exit 1; }

# --- Work-queue campaign smoke -----------------------------------------------
# The same smoke campaign through forked workers (--workers): its store
# must pass the identical baseline gate as the inline run — the
# byte-identity contract makes one baseline serve both executors.
# Separate out-dirs keep the inline artifact intact.
./bench/sweep_runner --sweep=../sweeps/smoke.sweep --workers=4 \
  --out-dir=bench-artifacts/wq-smoke
./bench/sweep_check --baseline=../sweeps/baseline.json \
  --candidate-store=bench-artifacts/wq-smoke/BENCH_sweep_smoke.store --metric-tol=0.2 \
  --wall-tol=9

# Fault-injection smoke: SIGKILL the worker holding cell 0's first lease
# mid-cell.  The requeue/respawn path must still produce a store that
# passes the same baseline gate — worker deaths are invisible in output.
./bench/sweep_runner --sweep=../sweeps/smoke.sweep --workers=2 --fault-kill-cell=0 \
  --out-dir=bench-artifacts/wq-fault
./bench/sweep_check --baseline=../sweeps/baseline.json \
  --candidate-store=bench-artifacts/wq-fault/BENCH_sweep_smoke.store --metric-tol=0.2 \
  --wall-tol=9

# --- Campaign store smoke -----------------------------------------------------
# Executor parity: the smoke campaign inline and through 4 workers with
# the wall times stripped.  The two store files must be byte-for-byte
# identical — every accumulator, sketch and blob, not just the summary
# means — since the one cell body and the one RESULT handler feed a
# slot-positional spool and a canonical string table that make worker
# arrival order invisible.
./bench/sweep_runner --sweep=../sweeps/smoke.sweep --threads=2 \
  --store-strip-wall --out-dir=bench-artifacts/store-smoke
./bench/sweep_runner --sweep=../sweeps/smoke.sweep --workers=4 \
  --store-strip-wall --out-dir=bench-artifacts/store-wq
cmp bench-artifacts/store-smoke/BENCH_sweep_smoke.store \
    bench-artifacts/store-wq/BENCH_sweep_smoke.store \
  || { echo "FAIL: worker store differs from inline store"; exit 1; }

# Mixed-schema campaigns: cells of different protocols (and static vs
# moving cells) carry different metrics, and the store's schema is their
# union.  Both comparisons the paper's results rest on must write one
# store, byte-identical between the inline and the 4-worker executor.
for mixed in "protocol --sweep.protocol=agg_max,coloring" \
             "mobility --zip.mobility=static,random_walk --zip.mobility_speed=0,0.01"; do
  tag=${mixed%% *}
  # shellcheck disable=SC2086  # the axis flags are meant to split
  ./bench/sweep_runner --sweep=../sweeps/smoke.sweep ${mixed#* } --threads=2 \
    --store-strip-wall --out-dir=bench-artifacts/mixed-${tag}
  # shellcheck disable=SC2086
  ./bench/sweep_runner --sweep=../sweeps/smoke.sweep ${mixed#* } --workers=4 \
    --store-strip-wall --out-dir=bench-artifacts/mixed-${tag}-wq
  cmp bench-artifacts/mixed-${tag}/BENCH_sweep_smoke.store \
      bench-artifacts/mixed-${tag}-wq/BENCH_sweep_smoke.store \
    || { echo "FAIL: ${tag}-mixed worker store differs from inline store"; exit 1; }
done
output_has '^random_walk,3,redelivered,' ./bench/sweep_query \
  bench-artifacts/mixed-mobility/BENCH_sweep_smoke.store --group-by=mobility \
  --select=redelivered --format=csv \
  || { echo "FAIL: the static-vs-moving store cannot answer redelivered"; exit 1; }

# sweep_query must read the store it just gated: schema lists the swept
# axis, and a group-by over it aggregates every metric.
./bench/sweep_query bench-artifacts/store-smoke/BENCH_sweep_smoke.store --schema
./bench/sweep_query bench-artifacts/store-smoke/BENCH_sweep_smoke.store \
  --group-by=channels --select=slots,decode_rate
output_has '"decode_rate"' ./bench/sweep_query \
  bench-artifacts/store-smoke/BENCH_sweep_smoke.store --group-by=channels --format=json \
  || { echo "FAIL: sweep_query json output missing decode_rate"; exit 1; }

# Sharded stores union in one query (disjoint cell indices merge), and
# overlapping stores are rejected loudly instead of double-counted.
./bench/sweep_runner --sweep=../sweeps/smoke.sweep --threads=2 --shard=0/2 \
  --store-strip-wall --out-dir=bench-artifacts/store-sh0
./bench/sweep_runner --sweep=../sweeps/smoke.sweep --threads=2 --shard=1/2 \
  --store-strip-wall --out-dir=bench-artifacts/store-sh1
output_has '^all,3,slots,6,' ./bench/sweep_query \
  bench-artifacts/store-sh0/BENCH_sweep_smoke.store \
  bench-artifacts/store-sh1/BENCH_sweep_smoke.store --select=slots --format=csv \
  || { echo "FAIL: sharded store union did not merge 3 cells / 6 seeds"; exit 1; }
if ./bench/sweep_query bench-artifacts/store-smoke/BENCH_sweep_smoke.store \
     bench-artifacts/store-smoke/BENCH_sweep_smoke.store --select=slots \
     >/dev/null 2>&1; then
  echo "FAIL: overlapping store union was not rejected"; exit 1
fi

# --- Decode-attribution probes smoke ------------------------------------------
# The cause-and-time layer end-to-end.  Armed runs must stay within the
# same loose overhead budget as metrics (probes imply metrics, so this
# bounds the whole armed stack).
./bench/scenario_runner --scenario=uniform_square --seeds=3 --threads=2 --probes \
  --out-dir=bench-artifacts
probe_wall=$(overhead_wall bench-artifacts/BENCH_scenario_uniform_square.json)
awk -v off="${base_wall}" -v on="${probe_wall}" 'BEGIN {
  budget = off * 1.5 + 0.2;
  printf "probes overhead smoke: off=%.3fs on=%.3fs budget=%.3fs\n", off, on, budget;
  exit (on <= budget) ? 0 : 1;
}' || { echo "FAIL: probes overhead exceeds the smoke budget"; exit 1; }

# Probes-armed smoke campaign.  Three gates in one artifact: the armed
# store must pass the unarmed committed baseline bit-exactly
# (arming probes never changes a result), the cause counters must
# partition failed listens exactly (sum(cause.*) == listens - decodes),
# and the 4-worker armed store must be byte-identical to the inline
# one (probe blobs reduce associatively; wall-derived telemetry is
# stripped with the wall stats).
./bench/sweep_runner --sweep=../sweeps/smoke.sweep --threads=2 --probes \
  --store-strip-wall --out-dir=bench-artifacts/probe-smoke
./bench/sweep_check --baseline=../sweeps/baseline.json \
  --candidate-store=bench-artifacts/probe-smoke/BENCH_sweep_smoke.store \
  --metric-tol=0 --wall-tol=9
./bench/sweep_query bench-artifacts/probe-smoke/BENCH_sweep_smoke.store \
  --select=tm.cause.no_transmitter,tm.cause.dead_listener,tm.cause.noise_limited,tm.cause.interference_limited,tm.cause.nearfar_truncated,tm.cause.lost_tie,tm.medium.listen_intents,tm.medium.decodes \
  --format=csv | awk -F, '
    $3 ~ /^tm\.cause\./           { causes += $4 * $5 }
    $3 == "tm.medium.listen_intents" { listens = $4 * $5 }
    $3 == "tm.medium.decodes"        { decodes = $4 * $5 }
    END {
      printf "cause partition: sum=%d listens=%d decodes=%d\n", causes, listens, decodes;
      exit (causes == listens - decodes && listens > 0) ? 0 : 1;
    }' || { echo "FAIL: cause counters do not partition failed listens"; exit 1; }
./bench/sweep_runner --sweep=../sweeps/smoke.sweep --workers=4 --probes \
  --store-strip-wall --out-dir=bench-artifacts/probe-wq
cmp bench-artifacts/probe-smoke/BENCH_sweep_smoke.store \
    bench-artifacts/probe-wq/BENCH_sweep_smoke.store \
  || { echo "FAIL: probes-armed worker store differs from inline store"; exit 1; }

# The probe views: --series must surface the slot series and attribution
# sketches, --pivot the axis-by-axis table.
output_has 'slot series' ./bench/sweep_query \
  bench-artifacts/probe-smoke/BENCH_sweep_smoke.store --series \
  || { echo "FAIL: sweep_query --series printed no slot series"; exit 1; }
output_has '"series"' ./bench/sweep_query \
  bench-artifacts/probe-smoke/BENCH_sweep_smoke.store --series --format=json \
  || { echo "FAIL: sweep_query --series json missing series"; exit 1; }
output_has 'decode_rate: mean by channels' ./bench/sweep_query \
  bench-artifacts/probe-smoke/BENCH_sweep_smoke.store --pivot=channels,label \
  --select=decode_rate \
  || { echo "FAIL: sweep_query --pivot printed no pivot table"; exit 1; }

# Multi-process trace merge: 4 cells so all 4 workers lease work, then the
# merged Chrome trace must carry 4 labeled worker lanes with per-lane
# monotonic timestamps (trace_check validates all of it).
./bench/sweep_runner --sweep=../sweeps/smoke.sweep --sweep.channels=1:8:*2 \
  --workers=4 --probes --trace-out=bench-artifacts/trace_workers.json \
  --out-dir=bench-artifacts/wq-trace
./bench/trace_check bench-artifacts/trace_workers.json --min-pids=4 \
  --max-bytes=100000000

# The 10^4-cell synthetic store bench: streams the write, answers a
# group-by from the mapping, and self-checks the aggregates (exit 1 on
# any mismatch).  Records BENCH_store.json for the perf history.
(cd bench-artifacts && ../bench/bench_store)

# Scheduling bench + its committed baseline (sweep_check's rows mode):
# the work queue must beat static round-robin shards by >= 1.5x makespan
# on the adversarial 8-worker grid, and the recorded rows must not drift
# from sweeps/campaign_baseline.json (lease/requeue counts are exact;
# makespans and speedups ride the loose wall tolerance plus the hard
# 1.5x floor).  After an intentional scheduling change, regenerate with
#   cp bench-artifacts/BENCH_campaign.json ../sweeps/campaign_baseline.json
(cd bench-artifacts && ../bench/bench_campaign --require-speedup=1.5)
./bench/sweep_check --baseline=../sweeps/campaign_baseline.json \
  --candidate=bench-artifacts/BENCH_campaign.json --metric-tol=0.2 --wall-tol=9

for report in bench-artifacts/BENCH_*.json; do
  if [ ! -s "${report}" ] || grep -qE '"(rows|cells)": \[\]' "${report}"; then
    echo "FAIL: empty bench report ${report}"
    exit 1
  fi
done
echo "bench artifacts:"
ls -l bench-artifacts
