#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the perfbench executable from
the checkout's own sources with dune, runs one workload, prints a
table of every metric by name and unit, and prints as its last line
the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json; with --trace 1 they are its per-layer metrics (a layer
the workload does not exercise reads 0) and the Chrome trace of the
run is written to perfbench/out/<workload>.trace.json.

Exit codes: 0 correct; 2 usage, build or harness failure (no result
line); 3 a wrong output, silent corruption or invalid run; 4 timeout.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = os.path.join(ROOT, "BENCHMARK.json")
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
BUILD_TIMEOUT_S = 850


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def lanes():
    """Cores this process may run on: every pool and server is sized
    from this, never from the caller's environment."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build():
    dune = shutil.which("dune")
    if dune:
        cmd = [dune]
    elif shutil.which("opam"):
        cmd = ["opam", "exec", "--", "dune"]
    else:
        fail("dune not found on PATH")
    cmd += ["build", "--root", ROOT, "./perfbench/perfbench.exe"]
    try:
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True,
                           timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if p.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(p.stdout)
        fail("build failed")


def run(args, n_lanes):
    # a workload stops at the end of a whole cycle after --seconds and
    # adds its set-ups and probes, so the limit grows with the run
    timeout = 3 * args.seconds + 100
    env = dict(os.environ)
    # read once at start-up; the checked kernels are a debug build
    env.pop("ABFT_BOUNDS_CHECK", None)
    # With glibc's adaptive threshold, freed large blocks come back from
    # the heap, so a whole run reuses one physical layout for its
    # megabyte matrices and runs differ by it; a fixed threshold maps
    # every large block afresh, so layouts vary within a run instead.
    env["MALLOC_MMAP_THRESHOLD_"] = "131072"
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--lanes", str(n_lanes)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{args.workload} did not finish in {timeout:.0f} s", 4)
    lines = [l for l in out.splitlines() if l.startswith("PERFBENCH ")]
    if not lines:
        fail(f"{args.workload} exited {proc.returncode} without a result")
    return proc.returncode, json.loads(lines[-1][len("PERFBENCH "):])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")
    try:
        with open(SPEC) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {SPEC}: {e}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    build()
    n_lanes = lanes()
    code, res = run(args, n_lanes)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = {m["name"] for m in wanted}
    got = res["metrics"]
    unknown = sorted(set(got) - names)
    if unknown:
        fail(f"metrics not declared in BENCHMARK.json: {unknown}")
    if not args.trace:
        missing = sorted(names - set(got))
        if missing:
            fail(f"end-to-end metrics not measured: {missing}")
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}"
          f"  trace {args.trace}  nproc {n_lanes}")
    for m in wanted:
        v = got.get(m["name"])
        note = "" if v is not None else "  (layer not exercised)"
        print(f"  {m['name']:<40} {0.0 if v is None else v:>16.6g} {m['unit']}{note}")
    for k, v in res.get("extra", {}).items():
        print(f"  {k:<40} {v:>16.6g}  (reported, not gated)")
    print(f"  attempted {res['attempted']}  failed {res['failed']}"
          f"  correct {str(res['correct']).lower()}")
    result = {
        "correct": bool(res["correct"]) and code == 0,
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": {m["name"]: {"value": float(got.get(m["name"], 0.0)),
                                "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    sys.exit(0 if code == 0 else 3)


if __name__ == "__main__":
    main()
