#!/usr/bin/env python3
"""Does the benchmark repeat?  Two full sets of runs of the same code.

    python benchmarks/e2e/noise.py                 # 2 sets x 10 seeds
    python benchmarks/e2e/noise.py --runs 3 --workloads sl-wide

Each set runs every workload once per seed (seeds 1..N, untraced) plus
one traced run.  Per (end-to-end metric, workload) it prints the spread
of each set (IQR / median over the seeds), how much worse the second
set's median is than the first's, and the metric's bound from
``BENCHMARK.json``.  It fails if a spread or a disagreement exceeds the
bound, or if an exact-count per-layer metric differs between the sets.
``>1/3`` marks a spread above a third of its bound (the target) and
``>1/2`` one above half of it (the demotion rule in README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

from stats import iqr

HERE = os.path.dirname(os.path.abspath(__file__))
#: Units of per-layer metrics that must repeat exactly.
EXACT_UNITS = ("count", "cycles", "B")


def run_once(args, workload: str, seed: int, trace: int) -> Dict:
    argv = [sys.executable, os.path.join(HERE, "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--trace", str(trace), "--workdir", args.workdir]
    if args.seconds is not None:
        argv += ["--seconds", str(args.seconds)]
    if args.smoke:
        argv.append("--smoke")
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: run failed its checks")
    return {k: v["value"] for k, v in result["metrics"].items()}


def worsening(first: float, second: float, better: str) -> float:
    """Relative change of the median, positive when the second is worse."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    import run

    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--runs", type=int, default=10, help="seeds per set")
    parser.add_argument("--workloads", help="comma-separated subset")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--workdir", default=run.DEFAULT_WORKDIR)
    args = parser.parse_args(argv)
    contract = run.load_contract()
    names = [w["name"] for w in contract["workloads"]]
    if args.workloads:
        names = [n for n in names if n in args.workloads.split(",")]

    sets: List[Dict[str, List[Dict]]] = []
    layers: List[Dict[str, Dict]] = []
    for number in (1, 2):
        runs: Dict[str, List[Dict]] = {name: [] for name in names}
        for seed in range(1, args.runs + 1):
            for name in names:
                runs[name].append(run_once(args, name, seed, trace=0))
                print(f"set {number} seed {seed} {name} done", flush=True)
        sets.append(runs)
        layers.append(
            {name: run_once(args, name, 1, trace=1) for name in names})

    ok = True
    print(f"\n{'metric':<18s}{'workload':<16s}{'median 1':>12s}"
          f"{'median 2':>12s}{'spread 1':>10s}{'spread 2':>10s}"
          f"{'worse by':>10s}{'bound':>8s}")
    for metric in contract["end_to_end"]:
        key, bound = metric["name"], metric["bound"]
        for name in names:
            values = [[r[key] for r in s[name]] for s in sets]
            medians = [statistics.median(v) for v in values]
            spreads = [iqr(v) / m for v, m in zip(values, medians)]
            worse = worsening(medians[0], medians[1], metric["better"])
            # The driver holds setup_s to the disagreement only.
            held = [worse] + ([] if key == "setup_s" else spreads)
            flag = ""
            if max(held) > bound:
                flag = "  EXCEEDS BOUND"
                ok = False
            elif max(spreads) > bound / 2:
                flag = "  >1/2"
            elif max(spreads) > bound / 3:
                flag = "  >1/3"
            print(f"{key:<18s}{name:<16s}{medians[0]:>12.5g}"
                  f"{medians[1]:>12.5g}{spreads[0]:>10.1%}"
                  f"{spreads[1]:>10.1%}{worse:>+10.1%}{bound:>8.0%}{flag}")
    differing = [
        (metric["name"], name)
        for metric in contract["per_layer"]
        if metric["unit"] in EXACT_UNITS
        for name in names
        if layers[0][name][metric["name"]] != layers[1][name][metric["name"]]
    ]
    for key, name in differing:
        print(f"EXACT COUNT DIFFERS {key} {name}: "
              f"{layers[0][name][key]} != {layers[1][name][key]}")
    if not differing:
        print("exact per-layer counts identical between the sets")
    ok = ok and not differing
    print("NOISE OK" if ok else "NOISE FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
