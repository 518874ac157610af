#!/usr/bin/env python3
"""flowbench: end-to-end and per-layer benchmark of tsc3d.

Run from the root of a checkout:

    python3 flowbench/run.py --workload tsc_n100 --seed 1 --seconds 40 --trace 0

Builds the program from source into .bench_build (or $CARGO_TARGET_DIR)
on first use, runs one workload, checks its outputs and prints, as the
last line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports every end-to-end metric of BENCHMARK.json, measured
on the plain build.  --trace 1 runs the workload on the plain build and
then on the traced build, and reports every per-layer metric.  See
flowbench/README.md.
"""

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

# Wall-clock cost of one operation (with its share of set-up and checks)
# on a 4-vCPU x86-64 VM, single thread.  A run measures
# max(1, seconds // cost) operations, so the work in a run depends only
# on --seconds, never on how fast the machine or the program is.
OP_COST_S = {"tsc_n100": 13.0, "campaign_n100": 26.0}

DEADLINE_S = 175  # a run must end within 180 s
BUILD_DEADLINE_S = 880


def fail(msg):
    print("flowbench: " + msg, file=sys.stderr)
    sys.exit(1)


def run_group(cmd, timeout, **kwargs):
    """Run cmd in its own process group; on timeout kill the whole group
    (a build's compilers too) and wait.  Returns (returncode or None,
    stdout)."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, ""


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(OP_COST_S))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smoke-test size: 2000 moves, smallest campaign")
    a = p.parse_args()
    if a.seed < 1:
        p.error("--seed must be at least 1")
    return a


def build(root, start, targets):
    """Configure (once) and build `targets`; returns the build dir.  The
    traced driver is built only for --trace 1 runs, so a change that
    breaks the wrappers cannot stop the end-to-end numbers."""
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    log_path = os.path.join(build_dir, "build.log")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "flowbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j4", "--target"] + targets)
    with open(log_path, "a") as log:
        for cmd in steps:
            left = BUILD_DEADLINE_S - (time.monotonic() - start)
            rc, _ = run_group(cmd, max(left, 1), stdout=log,
                              stderr=subprocess.STDOUT, env=env)
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed: " + " ".join(cmd))
    return build_dir


def run_driver(exe, args, ops, extra, start, deadline):
    cmd = [exe, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--ops=%d" % ops, "--work-dir=" + os.path.join(
               ".bench_out", "work", args.workload)] + extra
    if args.tiny:
        cmd.append("--tiny")
    left = deadline - (time.monotonic() - start)
    if left <= 1:
        fail("no time left for " + os.path.basename(exe))
    rc, out = run_group(cmd, left, stdout=subprocess.PIPE, text=True)
    if rc is None:
        fail(os.path.basename(exe) + " did not finish in time")
    lines = out.strip().splitlines()
    if rc != 0 or not lines:
        sys.stdout.write(out)
        fail("%s exited with %d" % (os.path.basename(exe), rc))
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def main():
    start = time.monotonic()
    args = parse_args()
    root = os.getcwd()
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    for need in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.exists(os.path.join(root, need)):
            fail("run from the root of a tsc3d checkout (no %s)" % need)

    build_dir = build(root, start, ["flowbench"] if args.trace == 0
                      else ["flowbench", "flowbench_traced"])
    deadline = BUILD_DEADLINE_S if time.monotonic() - start > 60 else DEADLINE_S
    ops = max(1, int(args.seconds // OP_COST_S[args.workload]))

    plain = run_driver(os.path.join(build_dir, "flowbench"), args, ops, [],
                       start, deadline)
    attempted, failed = plain["attempted"], plain["failed"]
    correct = failed == 0
    values = {}
    if args.trace == 0:
        values["wall_s"] = statistics.median(plain["wall_s"])
        values["setup_s"] = statistics.median(plain["setup_s"])
        values["peak_rss_mb"] = plain["peak_rss_mb"]
        for name, per_op in plain["quality"].items():
            values[name] = statistics.fmean(per_op) if per_op else float("nan")
        wanted = spec["end_to_end"]
    else:
        spans = os.path.join(".bench_out", "spans-%s.csv" % args.workload)
        traced = run_driver(os.path.join(build_dir, "flowbench_traced"), args,
                            ops, ["--spans=" + spans], start, deadline)
        attempted += traced["attempted"]
        failed += traced["failed"]
        if traced["digest"] != plain["digest"]:
            print("FAILED traced digest %s != plain digest %s"
                  % (traced["digest"], plain["digest"]))
            failed += traced["attempted"]
        correct = failed == 0
        values.update(traced["layers"])
        values["trace.overhead_frac"] = (
            sum(traced["wall_s"]) / sum(plain["wall_s"]) - 1.0)
        print("spans written to " + spans)
        wanted = spec["per_layer"]

    print("workload %s seed %d: %d operation(s), digest %s, failed_frac %.4g"
          % (args.workload, args.seed, ops, plain["digest"],
             failed / max(attempted, 1)))
    metrics = {}
    for m in wanted:
        v = values.pop(m["name"], None)
        if v is None or not math.isfinite(v):
            if correct:
                fail("metric %s was not measured" % m["name"])
            v = 0.0  # every operation failed; `correct` already says so
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
        print("  %-44s %.6g %s" % (m["name"], v, m["unit"]))
    for name, v in sorted(values.items()):
        print("  %-44s %.6g (reported only)" % (name, v))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
