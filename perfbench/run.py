#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selfcheck

The first form builds perfbench (and libmopt through the repository's
own CMakeLists.txt) into .bench_build/perfbench, runs one workload and
relays its output. The last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}. The exit code is non-zero
when the build fails, a check fails, or the printed metrics do not
match BENCHMARK.json.

--selfcheck runs every workload for about a second, untraced and
traced, and asserts that the correctness gate passes and that every
metric BENCHMARK.json names is printed with its unit.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "perfbench-out")
BINARY = os.path.join(BUILD, "perfbench")
FIXTURE = os.path.join(HERE, "fixtures", "mini.cfg")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench/run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no libmopt sources next to perfbench/ (src/CMakeLists.txt)")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def expected_metrics(trace):
    s = spec()
    return {m["name"]: m["unit"] for m in s["per_layer" if trace else "end_to_end"]}


def run(workload, seed, seconds, trace, extra=(), echo=True):
    """Run the binary; return (exit code, result dict or None)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out-dir", OUT, "--fixture", FIXTURE, *extra]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench/run.py: run timed out", file=sys.stderr)
        return 1, None
    lines = p.stdout.splitlines()
    if echo:
        for line in lines[:-1]:
            print(line)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return p.returncode, result


def problems(result, trace):
    """Ways @p result breaks the output contract (empty when none)."""
    if result is None:
        return ["no result line"]
    out = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        out.append("result keys are %s" % sorted(result))
        return out
    want = expected_metrics(trace)
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    for name in sorted(set(want) - set(got)):
        out.append("metric %s missing" % name)
    for name in sorted(set(got) - set(want)):
        out.append("metric %s not in BENCHMARK.json" % name)
    for name in sorted(set(want) & set(got)):
        if want[name] != got[name]:
            out.append("metric %s has unit %s, want %s" % (name, got[name], want[name]))
    if not result["correct"] or result["failed"] != 0:
        out.append("correctness gate failed (%s of %s)" % (result["failed"], result["attempted"]))
    if result["attempted"] < 1:
        out.append("nothing attempted")
    return out


def selfcheck():
    build()
    bad = 0
    for w in [x["name"] for x in spec()["workloads"]]:
        for trace in (False, True):
            code, result = run(w, 1, 1, trace, extra=["--setup-reps", "1"], echo=False)
            issues = problems(result, trace)
            if code != 0:
                issues.append("exit code %d" % code)
            label = "%s trace=%d" % (w, trace)
            if issues:
                bad += 1
                print("selfcheck FAIL %s: %s" % (label, "; ".join(issues)))
            else:
                print("selfcheck ok   %s: %d metrics, %d ops" %
                      (label, len(result["metrics"]), result["attempted"]))
    print("selfcheck: %s" % ("FAIL" if bad else "PASS"))
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    a = ap.parse_args()
    if a.selfcheck:
        return selfcheck()
    if not a.workload:
        fail("--workload is required")
    build()
    code, result = run(a.workload, a.seed, a.seconds, a.trace == 1)
    issues = problems(result, a.trace == 1)
    for msg in issues:
        print("perfbench/run.py: " + msg, file=sys.stderr)
    if result is not None:
        print(json.dumps(result), flush=True)
    return code if code else (1 if issues else 0)


if __name__ == "__main__":
    sys.exit(main())
