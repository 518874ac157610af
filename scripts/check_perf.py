#!/usr/bin/env python3
"""Perf gates for CI over a google-benchmark JSON report.

Eight checks, in order:

1. Warm-start gate (hard): the warm-started steady solve must be at
   least --min-warm-speedup (default 2.0) times faster than the cold
   solve at the 64x64 grid -- the ThermalEngine contract since PR 2.
2. Sweep-scaling gate (hard): the sharded fixed-work solve at 4 threads
   must be at least --min-scaling (default 1.8) times faster than at 1
   thread on the 128x128 grid -- the sweep-pool contract.  Skipped with
   a notice when the report has no sharded entries (machines without
   the benchmark) unless --require-scaling is given.
3. Multigrid gate (hard): plain V-cycles from a flat ambient field
   must solve the 128x128 steady state at least --min-mg-speedup
   (default 2.0) times faster than a cold SOR solve
   (BM_SolveSteadyCold/128 vs BM_SolveSteadyMultigrid/128) -- the
   solver-policy contract since PR 5.  Every cold multigrid solve is
   FMG-seeded, so BM_SolveSteadyMultigrid warm-starts from an
   all-ambient field snapshot: the arithmetic of a cold solve without
   the seed.  Cold starts are where SOR's smooth-error tail is worst;
   the warm 64x64 gate (check 1) and the drift check keep the warm path
   honest at the same time.  Skipped like the scaling gate when the
   entries are missing, unless --require-scaling is given.
4. FMG gate (hard): the FMG-seeded cold solve at 192x192 must be at
   least --min-fmg-speedup (default 2.0) times faster than plain
   V-cycles from a flat ambient field, the cold path FMG replaced
   (BM_SolveSteadyMultigrid/192 vs BM_SolveSteadyFmg/192) -- the
   full-multigrid contract since PR 10.  The FMG descent/ascent leaves
   a seed at ~truncation error, so the fine V-cycle loop stops after ~2
   cycles instead of 6-9; the edge widens with the grid because the
   seed is truncation-limited while the stopping tolerance is fixed
   (1.6x at 128, >= 2.1x at 192 and 256 on the reference VM).  Skipped
   like the scaling gate when the entries are missing, unless
   --require-scaling is given.
5. Transient-multigrid gate (hard): stiff implicit-Euler stepping
   through the multigrid preconditioner (BM_TransientStiff/mg:1, a
   V-cycle on G + C/dt per step) must be at least
   --min-transient-mg-speedup (default 2.0) times faster than the
   per-step SOR loop (mg:0) -- the transient-preconditioner contract
   since PR 10.  Large steps relative to the thermal RC make each
   implicit solve as hard as a steady solve, which is where per-step
   SOR drowns in sweeps (>= 20x on the reference VM; the gate is set
   well below to absorb runner variance).  Skipped like the scaling
   gate when the entries are missing, unless --require-scaling is
   given.
6. SIMD sweep gate (hard): the AVX2 red-black sweep kernel on a fixed
   sweep budget at the L2-resident 64x64 grid (BM_SweepKernel/simd:1)
   must be at least --min-simd-speedup (default 1.05) times faster
   than the scalar kernel (simd:0) -- the vectorized-smoother contract
   since PR 10.  The margin is structurally modest: the stride-2
   red-black access forces a deinterleave (2 loads + unpack + permute
   per operand vector) and the bitwise contract forbids FMA, so the
   4-wide ALU win is mostly spent on shuffles (measured ~1.15x
   in-cache; at DRAM-bound sizes the kernels tie, which is why the
   gate pins the cache-resident grid).  Skipped when the simd:1 entry
   is missing (hosts without AVX2 skip that benchmark), unless
   --require-scaling is given.
7. Moves/sec gate (hard): the end-to-end annealing step loop at n800
   (BM_AnnealStepCheap/incremental:1, every move through
   MoveTransaction) must sustain at least --min-moves-per-sec moves per
   second (default 5500).  The pipeline measures ~6200 on the 1-CPU
   reference VM, 1.23x the PR 6 loop's recorded 5040 (the pack-time
   id->slot maps plus the journaled-rollback reject path); the gate
   sits between the two so a regression to the PR 6 shape fails while
   runner variance does not.  Skipped like the scaling gate when the
   entry is missing, unless --require-scaling is given.
8. Baseline drift (hard when --baseline is given): benchmarks present
   in both the report and --baseline are compared; regressions beyond
   --max-regression (default 2.5x) fail the check.  The generous
   default tolerates CI-runner variance while still catching
   catastrophic slowdowns against the committed BENCH_pr10.json.  The
   n800 move-pipeline benchmarks (BM_CheapEval/incremental:1,
   BM_AnnealStepCheap/incremental:1, BM_AnnealStepReject/
   transactional:1) are held to this absolute floor: the ratio gates
   that compared them against the deleted rescan and revert paths are
   gone.

The run ends with a gate-summary table (measured vs threshold with the
margin in percent); --json-out writes the same data machine-readably.

Usage:
  check_perf.py RESULT.json [--baseline BENCH_pr10.json] [options]
"""
import argparse
import json
import sys

# Median aggregates are gated (robust to a noisy repetition); the mean is
# reported alongside for context.
AGG = "_median"


def load_times(path, agg=AGG):
    """Map benchmark name (aggregate suffix stripped) -> real_time."""
    return {name: t for name, (t, _) in load_report(path, agg).items()}


def load_report(path, agg=AGG):
    """Map name (aggregate stripped) -> (real_time, items_per_second).

    items_per_second is None for benchmarks without SetItemsProcessed.
    Unaggregated reports (no repetitions) fall back to the plain entries.
    """
    with open(path) as fh:
        data = json.load(fh)
    report = {}
    plain = {}
    for bench in data.get("benchmarks", []):
        name = bench["name"]
        if "real_time" not in bench:
            continue  # complexity-fit entries (_BigO/_RMS) have no time
        ips = bench.get("items_per_second")
        row = (float(bench["real_time"]),
               float(ips) if ips is not None else None)
        if name.endswith(agg):
            report[name[: -len(agg)]] = row
        elif bench.get("run_type", "iteration") == "iteration":
            plain[name] = row
    return report or plain


class GateLog:
    """Collects per-gate outcomes for the summary table and --json-out."""

    def __init__(self):
        self.rows = []
        self.failures = []

    def record(self, gate, measured, threshold, detail=""):
        """A measured hard gate: fails when measured < threshold."""
        passed = measured >= threshold
        self.rows.append({"gate": gate, "measured": measured,
                          "threshold": threshold, "passed": passed,
                          "skipped": False})
        if not passed:
            self.failures.append(
                f"{gate}: {detail or f'{measured:.2f}'} below the "
                f"{threshold:g} gate")
        return passed

    def skip(self, gate, reason, hard):
        self.rows.append({"gate": gate, "measured": None, "threshold": None,
                          "passed": not hard, "skipped": True})
        if hard:
            self.failures.append(f"{gate}: {reason}")
        else:
            print(f"{gate}: SKIPPED ({reason})")

    def summary(self):
        print("\n--- gate summary " + "-" * 49)
        header = f"{'gate':<16} {'measured':>10} {'threshold':>10} " \
                 f"{'margin':>8}  status"
        print(header)
        for row in self.rows:
            if row["skipped"]:
                print(f"{row['gate']:<16} {'-':>10} {'-':>10} {'-':>8}  SKIP")
                continue
            margin = (row["measured"] / row["threshold"] - 1.0) * 100.0
            status = "PASS" if row["passed"] else "FAIL"
            print(f"{row['gate']:<16} {row['measured']:>10.2f} "
                  f"{row['threshold']:>10.2f} {margin:>+7.0f}%  {status}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("result", help="google-benchmark JSON report")
    parser.add_argument("--baseline", help="committed baseline JSON")
    parser.add_argument("--min-warm-speedup", type=float, default=2.0)
    parser.add_argument("--min-scaling", type=float, default=1.8)
    parser.add_argument("--scaling-threads", type=int, default=4)
    parser.add_argument("--min-mg-speedup", type=float, default=2.0)
    parser.add_argument("--min-fmg-speedup", type=float, default=2.0)
    parser.add_argument("--min-transient-mg-speedup", type=float, default=2.0)
    parser.add_argument("--min-simd-speedup", type=float, default=1.05)
    parser.add_argument("--min-moves-per-sec", type=float, default=5500.0)
    parser.add_argument("--max-regression", type=float, default=2.5)
    parser.add_argument(
        "--require-scaling", action="store_true",
        help="fail (instead of skip) when gated benchmark entries are "
             "missing from the report")
    parser.add_argument(
        "--json-out", metavar="PATH",
        help="write the gate summary and drift table as JSON")
    args = parser.parse_args()

    report = load_report(args.result)
    times = {name: t for name, (t, _) in report.items()}
    log = GateLog()

    # --- 1. warm-start speedup -------------------------------------------
    cold = times.get("BM_SolveSteadyCold/64")
    warm = times.get("BM_SolveSteadyWarm/64")
    if cold is None or warm is None:
        log.skip("warm-start", "warm-start benchmarks missing from the "
                 "report", hard=True)
    else:
        speedup = cold / warm
        print(f"warm-start: cold {cold:.2f} vs warm {warm:.2f} "
              f"({speedup:.2f}x, gate >= {args.min_warm_speedup:.1f}x)")
        log.record("warm-start", speedup, args.min_warm_speedup,
                   f"warm-start speedup {speedup:.2f}x")

    # --- 2. sharded-sweep scaling ----------------------------------------
    base = times.get("BM_SolveSteadySharded/threads:1/real_time")
    wide = times.get(
        f"BM_SolveSteadySharded/threads:{args.scaling_threads}/real_time")
    if base is None or wide is None:
        log.skip("scaling", "sharded-sweep benchmarks missing from the "
                 "report", hard=args.require_scaling)
    else:
        scaling = base / wide
        print(f"scaling: 1 thread {base:.2f} vs {args.scaling_threads} "
              f"threads {wide:.2f} ({scaling:.2f}x, gate >= "
              f"{args.min_scaling:.1f}x)")
        log.record("scaling", scaling, args.min_scaling,
                   f"sharded-sweep scaling {scaling:.2f}x at "
                   f"{args.scaling_threads} threads")

    # --- 3. multigrid vs SOR on field-cold 128x128 solves ----------------
    sor_cold = times.get("BM_SolveSteadyCold/128")
    mg_cold = times.get("BM_SolveSteadyMultigrid/128")
    if sor_cold is None or mg_cold is None:
        log.skip("multigrid", "multigrid benchmarks missing from the "
                 "report", hard=args.require_scaling)
    else:
        speedup = sor_cold / mg_cold
        print(f"multigrid: SOR cold {sor_cold:.2f} vs V-cycle cold "
              f"{mg_cold:.2f} ({speedup:.2f}x, gate >= "
              f"{args.min_mg_speedup:.1f}x)")
        log.record("multigrid", speedup, args.min_mg_speedup,
                   f"multigrid speedup {speedup:.2f}x")

    # --- 4. FMG vs plain V-cycle cold starts at 192x192 ------------------
    plain_v = times.get("BM_SolveSteadyMultigrid/192")
    fmg = times.get("BM_SolveSteadyFmg/192")
    if plain_v is None or fmg is None:
        log.skip("fmg", "FMG benchmarks missing from the report",
                 hard=args.require_scaling)
    else:
        speedup = plain_v / fmg
        print(f"fmg: plain V-cycle cold {plain_v:.2f} vs FMG-seeded "
              f"{fmg:.2f} ({speedup:.2f}x, gate >= "
              f"{args.min_fmg_speedup:.1f}x)")
        log.record("fmg", speedup, args.min_fmg_speedup,
                   f"FMG speedup {speedup:.2f}x")

    # --- 5. multigrid-preconditioned stiff transients --------------------
    t_sor = times.get("BM_TransientStiff/mg:0")
    t_mg = times.get("BM_TransientStiff/mg:1")
    if t_sor is None or t_mg is None:
        log.skip("transient-mg", "stiff-transient benchmarks missing from "
                 "the report", hard=args.require_scaling)
    else:
        speedup = t_sor / t_mg
        print(f"transient-mg: per-step SOR {t_sor:.2f} vs V-cycle "
              f"preconditioner {t_mg:.2f} ({speedup:.2f}x, gate >= "
              f"{args.min_transient_mg_speedup:.1f}x)")
        log.record("transient-mg", speedup, args.min_transient_mg_speedup,
                   f"transient multigrid speedup {speedup:.2f}x")

    # --- 6. SIMD vs scalar sweep kernel ----------------------------------
    scalar = times.get("BM_SweepKernel/simd:0")
    simd = times.get("BM_SweepKernel/simd:1")
    if scalar is None or simd is None:
        log.skip("simd-sweep", "SIMD sweep benchmarks missing from the "
                 "report (host without AVX2?)", hard=args.require_scaling)
    else:
        speedup = scalar / simd
        print(f"simd-sweep: scalar {scalar:.2f} vs AVX2 {simd:.2f} "
              f"({speedup:.2f}x, gate >= {args.min_simd_speedup:.2f}x)")
        log.record("simd-sweep", speedup, args.min_simd_speedup,
                   f"SIMD sweep speedup {speedup:.2f}x")

    # --- 7. absolute annealing throughput at n800 ------------------------
    step_name = "BM_AnnealStepCheap/incremental:1/real_time"
    moves_per_sec = report.get(step_name, (None, None))[1]
    if moves_per_sec is None:
        log.skip("moves/sec", "annealing-step benchmark missing from the "
                 "report", hard=args.require_scaling)
    else:
        print(f"moves/sec: {moves_per_sec:.0f} at n800 "
              f"(gate >= {args.min_moves_per_sec:.0f})")
        log.record("moves/sec", moves_per_sec, args.min_moves_per_sec,
                   f"annealing throughput {moves_per_sec:.0f} moves/sec")

    # --- 8. drift against the committed baseline ------------------------
    drift = []
    if args.baseline:
        baseline = load_times(args.baseline)
        shared = sorted(set(times) & set(baseline))
        if not shared:
            print("baseline: no overlapping benchmarks, nothing to compare")
        for name in shared:
            ratio = times[name] / baseline[name]
            regressed = ratio > args.max_regression
            drift.append({"benchmark": name, "ratio": ratio,
                          "regressed": regressed})
            marker = ""
            if regressed:
                log.failures.append(
                    f"{name}: {ratio:.2f}x slower than the baseline "
                    f"(limit {args.max_regression:.1f}x)")
                marker = "  <-- REGRESSION"
            print(f"baseline: {name}: {ratio:5.2f}x of recorded "
                  f"time{marker}")

    log.summary()

    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump({"gates": log.rows, "drift": drift,
                       "failures": log.failures,
                       "passed": not log.failures}, fh, indent=2)
            fh.write("\n")
        print(f"\njson summary written to {args.json_out}")

    if log.failures:
        print("\nPERF CHECK FAILED:")
        for failure in log.failures:
            print(f"  - {failure}")
        return 1
    print("\nperf check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
