#!/usr/bin/env python3
"""Self-test for the repository benchmark, at small sizes.

    python3 perfbench/selftest.py

From the repository root: checks BENCHMARK.json's shape, runs
`run.py --small` on every workload with --trace 0 and --trace 1, and
asserts that each run passes its output checks and reports every metric
BENCHMARK.json names, with its unit, and that every per-layer metric is
exercised (measured rather than filled in as 0) by at least one workload.  Finally copies BENCHMARK.json and
perfbench/ alone into a scratch directory under the build directory and
asserts that run.py fails there without printing a result.  Takes about a
minute after the first build.  Exit 0 when everything holds.
"""

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_spec(spec, errors):
    names = []
    for section in ("workloads", "end_to_end", "per_layer"):
        for entry in spec[section]:
            names.append(entry["name"])
            if not NAME.match(entry["name"]):
                errors.append("bad name %r" % entry["name"])
            if "unit" in entry and not UNIT.match(entry["unit"]):
                errors.append("bad unit %r" % entry["unit"])
    if len(names) != len(set(names)):
        errors.append("a name is used twice")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        errors.append("setup_s must be an end-to-end metric in s, lower is better")
    bounds = [m["bound"] for m in spec["end_to_end"]]
    if max(bounds) > 0.25 or (setup and setup[0]["bound"] != max(bounds)):
        errors.append("bounds must be <= 0.25, with setup_s the largest")


def run(workload, trace, cwd, errors, expected):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--small"]
    p = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True)
    tag = "%s --trace %d" % (workload, trace)
    before = len(errors)
    try:
        rec = json.loads(p.stdout.strip().split("\n")[-1])
    except (ValueError, IndexError):
        errors.append(tag + ": no JSON result line")
        return set()
    if p.returncode != 0 or not rec["correct"] or rec["failed"] != 0:
        errors.append(tag + ": run failed (exit %d)" % p.returncode)
    if sorted(rec) != ["attempted", "correct", "failed", "metrics"] or rec["attempted"] < 1:
        errors.append(tag + ": malformed result keys or attempted < 1")
    for m in expected:
        got = rec["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            errors.append("%s: metric %s missing or not in %s" % (tag, m["name"], m["unit"]))
    extra = set(rec["metrics"]) - {m["name"] for m in expected}
    if extra:
        errors.append("%s: unexpected metrics %s" % (tag, sorted(extra)))
    print("%-28s %s" % (tag, "ok" if len(errors) == before else "FAILED"), flush=True)
    for line in p.stdout.split("\n"):
        if line.startswith("unexercised: "):
            return set(json.loads(line[len("unexercised: "):]))
    return set()


def isolated_run_fails(errors):
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    iso = os.path.join(ROOT, target, "selftest-isolated")
    shutil.rmtree(iso, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(iso, "perfbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), iso)
    try:
        p = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), "--workload",
                            "agg_static", "--seed", "1", "--seconds", "1", "--trace", "0"],
                           cwd=iso, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           text=True, timeout=180)
        if p.returncode == 0 or '"metrics"' in p.stdout:
            errors.append("run.py did not fail without the library sources")
    finally:
        shutil.rmtree(iso, ignore_errors=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    errors = []
    check_spec(spec, errors)
    never = {m["name"] for m in spec["per_layer"]}
    for w in spec["workloads"]:
        run(w["name"], 0, ROOT, errors, spec["end_to_end"])
        never &= run(w["name"], 1, ROOT, errors, spec["per_layer"])
    if never:
        errors.append("per-layer metrics no workload measures: %s" % sorted(never))
    isolated_run_fails(errors)
    for e in errors:
        print("selftest: " + e, file=sys.stderr)
    print("selftest: %s" % ("FAILED" if errors else "ok"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
