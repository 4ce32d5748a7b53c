#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds the library and the perfbench
driver from source (CMake, Release) into $CARGO_TARGET_DIR or
.bench_build, runs one workload in a fresh process, checks its outputs
and prints, as the last line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (and validates the run's Chrome trace with trace_check).
A per-layer metric the workload does not exercise is reported as 0; the
run lists those on an "unexercised:" line.
Every run also prints a machine fingerprint line (CPU model, nproc,
compiler, build type).  Exit status 0 only when every check passed.
"""

import argparse
import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(os.path.join(ROOT, target)), "perfbench")


def build(bdir, env):
    """Configures once, then brings perfbench and trace_check up to date."""
    os.makedirs(bdir, exist_ok=True)
    with open(os.path.join(bdir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps = []
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", bdir, "-j", jobs, "--target", "perfbench",
                      "trace_check"])
        for cmd in steps:
            p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                               text=True, env=env)
            if p.returncode != 0:
                sys.stderr.write(p.stdout[-4000:])
                fail("build failed: " + " ".join(cmd))


def run_child(cmd, env):
    """Runs `cmd` in its own process group; kills the whole group on timeout."""
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                         start_new_session=True)
    try:
        out, _ = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        fail("%s timed out after %d s" % (os.path.basename(cmd[0]), RUN_TIMEOUT_S))
    return p.returncode, out


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def check_metrics(metrics, expected):
    """Every expected metric present with its unit, nothing else."""
    problems = []
    for m in expected:
        got = metrics.get(m["name"])
        if got is None:
            problems.append("missing metric " + m["name"])
        elif got.get("unit") != m["unit"]:
            problems.append("metric %s has unit %r, expected %r"
                            % (m["name"], got.get("unit"), m["unit"]))
    names = {m["name"] for m in expected}
    problems += ["unexpected metric " + n for n in metrics if n not in names]
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="self-test sizes: every code path, a fraction of the work")
    args = ap.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no library sources next to perfbench/ (expected CMakeLists.txt and src/)")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)

    bdir = build_dir()
    env = dict(os.environ)
    env["TMPDIR"] = os.path.join(bdir, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    build(bdir, env)

    work = os.path.join(bdir, "runs", "%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        code, out = run_child([os.path.join(bdir, "perfbench"),
                               "--workload=" + args.workload, "--seed=%d" % args.seed,
                               "--seconds=%r" % args.seconds, "--trace=%d" % args.trace,
                               "--small=%d" % int(args.small), "--work-dir=" + work], env)
        lines = out.rstrip("\n").split("\n")
        try:
            rec = json.loads(lines[-1])
        except ValueError:
            sys.stdout.write(out)
            fail("%s exited %d without a result" % (args.workload, code))
        for line in lines[:-1]:
            print(line)

        problems = list(rec.get("failures", []))
        if code != 0 and not problems:
            problems.append("perfbench exited %d" % code)
        expected = spec["per_layer" if args.trace else "end_to_end"]
        if args.trace:
            unexercised = [m["name"] for m in expected if m["name"] not in rec["metrics"]]
            print("unexercised: " + json.dumps(unexercised))
            for m in expected:
                rec["metrics"].setdefault(m["name"], {"value": 0, "unit": m["unit"]})
        problems += check_metrics(rec["metrics"], expected)
        if args.trace:
            trace = rec.get("trace_file")
            if not trace:
                problems.append("traced run wrote no Chrome trace")
            else:
                tc, tout = run_child([os.path.join(bdir, "mcs", "bench", "trace_check"), trace,
                                      "--min-events=2"], env)
                print(tout.strip())
                if tc != 0:
                    problems.append("trace_check rejected the Chrome trace")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    fingerprint = {"cpu": cpu_model(), "nproc": nproc(),
                   "compiler": rec.get("build", {}).get("compiler"),
                   "build_type": rec.get("build", {}).get("build_type"),
                   "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace}
    print("fingerprint: " + json.dumps(fingerprint, sort_keys=True))
    failed = int(rec["failed"])
    if problems:
        for p in problems:
            print("perfbench: %s: %s" % (args.workload, p), file=sys.stderr)
        failed = max(failed, 1)
    ok = not problems and rec["correct"]
    print(json.dumps({"correct": ok, "attempted": int(rec["attempted"]), "failed": failed,
                      "metrics": rec["metrics"]}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
