#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at a tiny budget.

Run from the root of a checkout:

    python3 flowbench/smoke.py

For every workload of BENCHMARK.json it runs flowbench/run.py once with
--trace 0 and once with --trace 1, at the --tiny size (2000 moves, the
smallest campaign) and one operation (--seconds 1), and checks that

  * the run is correct and no operation failed;
  * every metric BENCHMARK.json names is printed with its unit;
  * the traced digest equals the plain one (run.py counts a mismatch as
    failed operations, so `correct` covers it);
  * trace.coverage reaches COVERAGE_FLOOR;
  * every boundary in EXERCISED[workload] was called at least once.

Exits 0 when every check passes.  After the first build it takes about
a minute.
"""

import json
import subprocess
import sys

COVERAGE_FLOOR = 0.9

# The boundaries each workload calls: the layer groups that README.md's
# table says the workload moves.  A wrapper whose function was renamed or
# changed signature is never called and reports zero calls, while its time
# folds into the caller's self time and trace.coverage stays high; this
# check is what catches it.
EXERCISED = {
    "tsc_n100": [
        # entropy
        "leakage.spatial_entropy", "leakage.pearson", "core.power_map",
        "floorplan.evaluate_cheap",
        # thermal fast loop
        "thermal.solve_steady.fast_loop",
        # move pipeline
        "floorplan.run_stage", "floorplan.evaluate_thermal",
        "floorplan.evaluate_full", "floorplan.apply_to", "floorplan.tx_stage",
        "floorplan.tx_rollback", "core.hpwl_cached", "core.tsv_density_map",
        "power.analyze_cached", "power.voltage_assign",
        # dummy TSVs
        "tsv.place_signal", "tsv.insert_dummy",
        "thermal.solve_steady.sampling",
    ],
    "campaign_n100": [
        # thermal verify and transients
        "thermal.solve_steady.verify", "thermal.solve_transient",
        "thermal.solve_transient_feedback",
        # campaign stages, and the scenarios' leakage metrics
        "attack.localization", "attack.monitoring", "attack.covert_channel",
        "mitigation.dtm", "mitigation.noise_injection",
        "campaign.evaluate_scenario", "leakage.mutual_information",
        # service
        "service.artifact_write", "service.artifact_read",
        "service.queue_claim",
    ],
}


def run(workload, trace):
    cmd = [sys.executable, "flowbench/run.py", "--workload", workload,
           "--seed", "1", "--tiny", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, "exit code %d" % proc.returncode
    return json.loads(lines[-1]), ""


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    problems = []
    for w in spec["workloads"]:
        name = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            before = len(problems)
            result, err = run(name, trace)
            where = "%s --trace %d" % (name, trace)
            if result is None:
                problems.append("%s: %s" % (where, err))
                continue
            if not result["correct"] or result["failed"] != 0:
                problems.append("%s: %d of %d operations failed"
                                % (where, result["failed"], result["attempted"]))
            for m in spec[key]:
                got = result["metrics"].get(m["name"])
                if got is None or got.get("unit") != m["unit"]:
                    problems.append("%s: metric %s missing or without unit %s"
                                    % (where, m["name"], m["unit"]))
            if trace == 1:
                metrics = result["metrics"]
                cov = metrics.get("trace.coverage", {}).get("value", 0)
                if cov < COVERAGE_FLOOR:
                    problems.append("%s: trace.coverage %.3f below %.2f"
                                    % (where, cov, COVERAGE_FLOOR))
                for b in EXERCISED[name]:
                    if metrics.get(b + ".calls", {}).get("value", 0) <= 0:
                        problems.append("%s: no call reached %s"
                                        % (where, b))
            print("ok  " if len(problems) == before else "FAIL", where,
                  flush=True)
    for p in problems:
        print("FAIL " + p)
    print("smoke: %s" % ("passed" if not problems else "FAILED"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
