#!/usr/bin/env python3
"""End-to-end benchmark of the FlexMiner reproduction.

    python benchmarks/e2e/run.py                      # all workloads
    python benchmarks/e2e/run.py --trace 1            # + per-layer runs
    python benchmarks/e2e/run.py --smoke --trace 1    # tiny tiers, < 30 s
    python benchmarks/e2e/run.py --workload sl-wide --seed 7 \\
        --seconds 20 --trace 0                        # one driver run

One fresh process per workload.  With ``--workload`` the last line of
stdout is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics of ``BENCHMARK.json`` (``--trace
0``) or its per-layer metrics (``--trace 1``).  Without it every
workload runs in a child and the metric x workload grid is printed,
ending with ``CHECKS OK`` or ``CHECKS FAILED``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.abspath(os.path.join(HERE, "..", ".."))
DEFAULT_WORKDIR = os.path.join(ROOT, ".bench_e2e")
#: One BLAS/OpenMP thread, so generator + program never exceed nproc
#: runnable threads; set before numpy loads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: Share of ``--seconds`` given to the timed rounds (the rest covers
#: interpreter start, input generation, the untimed reference pass).
ROUNDS_SHARE = 0.85
MIN_ROUNDS = 5
MAX_ROUNDS = 16


def load_contract() -> Dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def host_info() -> Dict[str, object]:
    import numpy

    model = ""
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_1m": os.getloadavg()[0],
    }


def adopt_orphans() -> None:
    """Make this process the reaper of its descendants (Linux
    ``PR_SET_CHILD_SUBREAPER``), so a grandchild whose parent ends first
    is re-parented here, where ``stop_children`` sees it, not to init."""
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def child_pids() -> List[int]:
    me = os.getpid()
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                # "pid (comm) state ppid ...": comm may hold ')' or ' '.
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        if ppid == me:
            out.append(int(entry))
    return out


def stop_children() -> None:
    """Stop every process this one started and wait until each has ended.

    ``multiprocessing``'s resource tracker (started by the first
    ``SharedMemory``, so by every pool and ``SharedCSRBuffers`` of the
    traced run) ignores SIGINT and SIGTERM and would otherwise outlive
    this process: it ends when its pipe closes, which ``_stop()`` does
    before waiting for it.  Whatever else is still a child by now was
    leaked, and is killed and reaped.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    stop = getattr(
        getattr(tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        stop()
    while True:
        for pid in child_pids():
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def prepare_inputs(name: str, seed: int, workdir: str, smoke: bool) -> str:
    """Write the workload's edge-list files in a child process (once per
    (workload, seed); never timed, never in this process's peak RSS)."""
    import workloads

    out = workloads.input_dir(workdir, name, seed, smoke)
    argv = [sys.executable, os.path.join(HERE, "workloads.py"),
            "--workload", name, "--seed", str(seed), "--out", out]
    subprocess.run(argv + (["--smoke"] if smoke else []), check=True)
    return out


# ----------------------------------------------------------------------
# The untraced run: end-to-end metrics
# ----------------------------------------------------------------------
def measure_e2e(battery, stream, seconds: float, smoke: bool) -> Dict:
    """Every end-to-end metric: value, median/min/max/IQR, samples.

    A round is one of everything -- a setup, a mine sweep, the frontier
    sweeps, a sim sweep, a request segment, a CLI call -- and rounds
    repeat until ``ROUNDS_SHARE`` of ``seconds`` is used, so every metric
    samples the whole window and none is stuck in one slow burst.
    """
    from stats import summarize, summarize_sweeps

    battery.setup()
    # Untimed: pins the reference counts of the sim and serve tiers and
    # fills the service's plan and result caches.
    battery.reference_pass()
    battery.serve_warm()

    stages = {
        "mine_s": battery.mine_pass,
        "mine_frontier_s": lambda: battery.mine_pass(frontier=True),
        "sim_s": battery.sim_pass,
    }
    sweeps: Dict[str, List] = {name: [] for name in stages}
    setups, segments, cli = [], [], []
    deadline = time.perf_counter() + ROUNDS_SHARE * seconds
    for segment in stream:
        setups.append(battery.setup(keep=False))
        for name, stage in stages.items():
            sweeps[name].extend(stage())
        segments.append((segment, battery.serve_segment(segment)))
        cli.append(battery.cli_cold())
        if len(cli) >= (1 if smoke else MIN_ROUNDS) and (
            time.perf_counter() > deadline
        ):
            break

    out: Dict[str, Dict[str, object]] = {"setup_s": summarize(setups)}
    for name in stages:
        out[name] = summarize_sweeps(sweeps[name])
    out["serve_rps"] = summarize(
        [len(got) / sum(got) for _, got in segments], best=max)
    # Same estimator as the sweeps: every request at the best latency
    # seen for its (cell, forced) class.
    requests = [
        ((item.cell, item.forced), latency)
        for segment, got in segments
        for item, latency in zip(segment, got)
    ]
    best: Dict[tuple, float] = {}
    for key, latency in requests:
        best[key] = min(best.get(key, latency), latency)
    out["serve_rps"]["value"] = len(requests) / sum(
        best[key] for key, _ in requests)
    out["cli_cold_s"] = summarize([seconds for seconds, _ in cli])
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["peak_rss_mb"] = summarize([max([own] + [rss for _, rss in cli])])
    return out


# ----------------------------------------------------------------------
def run_workload(args) -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    import workloads
    from battery import Battery, Gate
    from spans import Spans

    contract = load_contract()
    traced = bool(args.trace)
    declared = contract["per_layer" if traced else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    host = host_info()
    workload = workloads.get_workload(args.workload, args.smoke)
    input_dir = prepare_inputs(
        args.workload, args.seed, args.workdir, args.smoke)
    stream = workloads.request_stream(
        workload, args.seed,
        segments=2 if args.smoke else MAX_ROUNDS,
        min_forced=3 if args.smoke else 6,
    )
    spans = Spans(args.workload, enabled=traced)
    gate = Gate()
    battery = Battery(workload, input_dir, spans, gate)
    out_dir = os.path.join(args.workdir, "out")
    os.makedirs(out_dir, exist_ok=True)
    tag = f"{args.workload}-s{args.seed}"
    detail: Dict[str, object] = {}
    started = time.perf_counter()
    try:
        if traced:
            from layers import measure_layers

            items = [item for segment in stream[:4] for item in segment]
            values = measure_layers(battery, items, args.seed)
            spans.write_chrome(os.path.join(out_dir, f"trace-{tag}.json"))
            detail["self_time_s"] = spans.self_times()
        else:
            detail["samples"] = measure_e2e(
                battery, stream, args.seconds, args.smoke)
            values = {k: v["value"] for k, v in detail["samples"].items()}
    finally:
        battery.close()
    host["loadavg_1m_end"] = os.getloadavg()[0]

    if set(values) != set(units):
        raise SystemExit(
            "metrics differ from BENCHMARK.json: "
            f"{sorted(set(values) ^ set(units))}"
        )
    metrics = {
        name: {"value": values[name], "unit": units[name]} for name in units
    }
    failures = gate.failures
    result = {
        "correct": not failures,
        "attempted": gate.attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    detail.update(
        result, workload=args.workload, seed=args.seed, traced=traced,
        smoke=args.smoke, host=host, failures=failures[:20],
        wall_s=time.perf_counter() - started,
    )
    kind = "layers" if traced else "result"
    with open(os.path.join(out_dir, f"{kind}-{tag}.json"), "w") as f:
        json.dump(detail, f, indent=1, sort_keys=True)

    print(f"# {args.workload} seed={args.seed} trace={int(traced)} "
          f"host={host}")
    for name, metric in metrics.items():
        spread = ""
        if not traced:
            s = detail["samples"][name]
            spread = (f"  (median {s['median']:.6g} min {s['min']:.6g} "
                      f"max {s['max']:.6g} iqr {s['iqr']:.3g} n={s['n']})")
        print(f"{name:<40s}{metric['value']:>16.6g} {metric['unit']}{spread}")
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    print(f"operations attempted {gate.attempted}, failed {len(failures)}")
    print("CHECKS OK" if not failures else "CHECKS FAILED")
    print(json.dumps(result))
    return 0 if not failures else 1


def run_all(args) -> int:
    """Every workload in a fresh child; prints the metric x workload
    grid and the verdict."""
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    passes = [0, 1] if args.trace else [0]
    ok = True
    for trace in passes:
        declared = contract["per_layer" if trace else "end_to_end"]
        grid: Dict[str, Dict[str, float]] = {}
        for name in names:
            argv = [sys.executable, os.path.abspath(__file__),
                    "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace),
                    "--workdir", args.workdir]
            proc = subprocess.run(
                argv + (["--smoke"] if args.smoke else []),
                stdout=subprocess.PIPE, text=True,
            )
            lines = proc.stdout.strip().split("\n")
            try:
                result = json.loads(lines[-1])
            except ValueError:
                result = {"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}
            print("\n".join(line for line in lines if line.startswith(
                ("#", "FAILED", "operations"))))
            ok = ok and proc.returncode == 0 and result["correct"]
            grid[name] = {
                k: v["value"] for k, v in result["metrics"].items()}
        print()
        print(f"{'metric':<40s}{'unit':<8s}"
              + "".join(f"{n:>16s}" for n in names))
        for metric in declared:
            row = "".join(
                f"{grid[n].get(metric['name'], float('nan')):>16.6g}"
                for n in names)
            print(f"{metric['name']:<40s}{metric['unit']:<8s}{row}")
        print()
    print("CHECKS OK" if ok else "CHECKS FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", help="run this workload in-process")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny tiers: prove the plumbing, not speed")
    parser.add_argument("--workdir", default=DEFAULT_WORKDIR,
                        help="inputs, traces and result files")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else load_contract()["run_seconds"]
    return run_workload(args) if args.workload else run_all(args)


if __name__ == "__main__":
    # Not in main(): the smoke test calls that inside pytest, whose
    # children are not this program's to stop.
    adopt_orphans()
    try:
        code = main()
    finally:
        stop_children()
    sys.exit(code)
