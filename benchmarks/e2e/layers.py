"""The traced run: the battery once under spans, plus per-layer probes.

Layers are named after the modules (``graph``, ``patterns``,
``compiler``, ``kernels``, ``engine``, ``pool``, ``hw``, ``serve``,
``cli``, ``obs``).  Stage numbers are single samples from one traced
round (after an untraced round of the same code, which warms caches and
is the base of ``bench.trace_overhead_pct``); micro-probes report their
best repeat.  Per-layer metrics carry no regression bound, and
end-to-end metrics never come from here.
"""

from __future__ import annotations

import json
import statistics
import sys
import threading
import time
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.compiler import compile_pattern, estimate_plan
from repro.engine import MinerPool, PatternAwareEngine, kernels
from repro.graph import SharedCSRBuffers, attach_shared_csr
from repro.hw import FlexMinerAccelerator, simulate_parallel
from repro.obs import PhaseProfiler, Tracer
from repro.patterns import from_name
from repro.serve import handle_request

from battery import SIM_CONFIG, Battery, motif_k, run_child
from stats import percentile
from workloads import Cell, StreamItem

Metrics = Dict[str, float]


def timed(fn: Callable, *args, **kwargs) -> Tuple[object, float]:
    started = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - started


def best_of(repeats: int, fn: Callable[[], float]) -> float:
    """Least-disturbed repeat (see stats.py for why not the median)."""
    return min(fn() for _ in range(repeats))


def mine_graphs(b: Battery) -> List[str]:
    return sorted({graph for graph, _ in b.workload.mine_cells})


def single_patterns(b: Battery) -> List[Tuple[object, bool]]:
    """The workload's patterns one by one as (pattern, induced); a
    k-motif plan contributes each of its vertex-induced motifs."""
    out = []
    for name in b.patterns:
        if motif_k(name):
            out.extend((p, True) for p in b.plans[name].patterns)
        else:
            out.append((from_name(name), False))
    return out


# ----------------------------------------------------------------------
# Battery stages decomposed at layer boundaries
# ----------------------------------------------------------------------
def engine_pass(
    b: Battery, frontier: bool, profiler=None, stage: str = ""
) -> List:
    """One sweep over the mine cells, construct and run spanned apart."""
    stage = stage or ("mine-frontier" if frontier else "mine")
    engines = []
    with b.spans.span(stage):
        for cell in b.workload.mine_cells:
            graph, pattern = cell
            with b.spans.span("cell", cell="/".join(cell)) as counts:
                with b.spans.span("construct"):
                    engine = PatternAwareEngine(
                        b.graphs[graph], b.plans[pattern],
                        batch_frontier=frontier, profiler=profiler,
                    )
                with b.spans.span("run"):
                    op = b.gate.attempt(f"{stage} {graph}/{pattern}",
                                        engine.run)
                b.check_mined(op, cell)
                if op.result is not None:
                    counts.update(op.result.counters.as_dict())
                    counts.update(engine.frontier_stats())
            engines.append((engine, op))
    return engines


def sim_pass(b: Battery) -> List:
    reports = []
    with b.spans.span("sim"):
        for cell in b.workload.sim_cells:
            graph, pattern = cell
            with b.spans.span("cell", cell="/".join(cell)) as counts:
                with b.spans.span("construct"):
                    accel = FlexMinerAccelerator(
                        b.graphs[graph], b.plans[pattern], SIM_CONFIG
                    )
                with b.spans.span("simulate"):
                    op = b.gate.attempt(f"sim {graph}/{pattern}", accel.run)
                b.check_simulated(op, cell)
                if op.result is not None:
                    counts.update(cycles=op.result.cycles,
                                  tasks=op.result.tasks)
                    reports.append(op.result)
    return reports


def serve_pass(b: Battery, items: Sequence[StreamItem]) -> List[float]:
    with b.spans.span("serve"):
        return b.serve_segment(items)


def cli_pass(b: Battery) -> float:
    with b.spans.span("cli-stage"):
        return b.cli_cold()[0]


def battery_round(b: Battery, items: Sequence[StreamItem]) -> Dict:
    """mine + frontier + sim + serve + cli once; stage seconds and the
    objects the layer metrics read."""
    out: Dict[str, object] = {}
    out["engines"], out["mine_s"] = timed(engine_pass, b, False)
    out["frontier_engines"], out["frontier_s"] = timed(engine_pass, b, True)
    out["reports"], out["sim_s"] = timed(sim_pass, b)
    out["latencies"], out["serve_s"] = timed(serve_pass, b, items)
    out["cli_s"] = cli_pass(b)
    out["total_s"] = sum(
        out[k] for k in ("mine_s", "frontier_s", "sim_s", "serve_s", "cli_s")
    )
    return out


# ----------------------------------------------------------------------
# Layer probes
# ----------------------------------------------------------------------
def graph_layer(b: Battery, m: Metrics) -> None:
    graphs = [b.graphs[key] for key in mine_graphs(b)]
    m["graph.vertices"] = sum(g.num_vertices for g in graphs)
    m["graph.edges"] = sum(g.num_edges for g in graphs)
    m["graph.max_degree"] = max(g.max_degree() for g in graphs)

    def share() -> float:
        started = time.perf_counter()
        for g in graphs:
            with SharedCSRBuffers(g) as shared:
                attach_shared_csr(shared.spec)
        return time.perf_counter() - started

    def gather() -> float:
        started = time.perf_counter()
        for g in graphs:
            for lo in range(0, g.num_vertices, 4096):
                hi = min(lo + 4096, g.num_vertices)
                g.gather_neighbors(np.arange(lo, hi))
        return time.perf_counter() - started

    with b.spans.span("graph-probes"):
        m["graph.share_s"] = best_of(5, share)
        m["graph.gather_s"] = best_of(9, gather)
    gathered = sum(int(g.indptr[-1]) for g in graphs)
    m["graph.gather_mnbrs_per_s"] = gathered / 1e6 / m["graph.gather_s"]


def compiler_layer(b: Battery, m: Metrics) -> None:
    singles = single_patterns(b)
    graph = b.graphs[b.workload.mine_cells[0][0]]

    def fresh() -> List:
        # automorphisms() caches on the object: probe fresh copies.
        return [p.relabel(range(p.num_vertices)) for p, _ in singles]

    def canonical() -> float:
        return timed(lambda ps: [p.canonical_form() for p in ps], fresh())[1]

    def automorphisms() -> float:
        return timed(lambda ps: [p.automorphisms() for p in ps], fresh())[1]

    with b.spans.span("compiler-probes"):
        per_pattern_us = 1e6 / len(singles)
        m["patterns.canonical_us"] = best_of(9, canonical) * per_pattern_us
        m["patterns.automorphisms_us"] = (
            best_of(9, automorphisms) * per_pattern_us)
        plans = [compile_pattern(p, induced=ind) for p, ind in singles]
        m["compiler.estimate_ms"] = 1e3 * best_of(5, lambda: timed(
            lambda: [estimate_plan(plan, graph) for plan in plans])[1])
    m["compiler.plans"] = len(b.plans)


def kernels_layer(b: Battery, m: Metrics, seed: int) -> None:
    """Set-op kernels on adjacency lists of seeded edge samples from the
    first mine-tier graph."""
    g = b.graphs[b.workload.mine_cells[0][0]]
    rng = np.random.default_rng(seed)
    src = np.repeat(np.arange(g.num_vertices), np.diff(g.indptr))
    picks = rng.choice(len(src), size=min(2000, len(src)), replace=False)
    us, vs = src[picks], np.asarray(g.indices)[picks]
    pairs = [(g.neighbors(int(u)), g.neighbors(int(v)))
             for u, v in zip(us, vs)]
    pair_elems = sum(len(a) + len(c) for a, c in pairs)
    a_concat, a_off = g.gather_neighbors(us)
    b_concat, b_off = g.gather_neighbors(vs)
    hub = int(np.argmax(np.diff(g.indptr)))
    base = g.neighbors(hub)
    hub_concat, hub_off = g.gather_neighbors(base)
    hub_elems = len(hub_concat) + len(base)
    n = g.num_vertices

    def per_elem(fn: Callable[[], object], elements: int) -> float:
        return 1e9 * best_of(5, lambda: timed(fn)[1]) / elements

    with b.spans.span("kernel-probes"):
        m["kernels.intersect_ns_per_elem"] = per_elem(
            lambda: [kernels.intersect_values(a, c) for a, c in pairs],
            pair_elems)
        m["kernels.difference_ns_per_elem"] = per_elem(
            lambda: [kernels.difference_values(a, c) for a, c in pairs],
            pair_elems)
        m["kernels.count_below_ns_per_elem"] = per_elem(
            lambda: [kernels.intersect_count_below(a, c, int(v))
                     for (a, c), v in zip(pairs, vs)],
            pair_elems)
        m["kernels.seg_intersect_count_ns_per_elem"] = per_elem(
            lambda: kernels.segmented_intersect_count(
                base, hub_concat, hub_off, bounds=base),
            hub_elems)
        m["kernels.seg_pair_intersect_ns_per_elem"] = per_elem(
            lambda: kernels.segmented_pair_intersect(
                a_concat, a_off, b_concat, b_off, n),
            pair_elems)
        m["kernels.seg_pair_difference_ns_per_elem"] = per_elem(
            lambda: kernels.segmented_pair_difference(
                a_concat, a_off, b_concat, b_off, n),
            pair_elems)
    m["kernels.elements"] = pair_elems + hub_elems


def engine_layer(b: Battery, m: Metrics, traced: Dict) -> None:
    spans = b.spans
    rec = [op.result for _, op in traced["engines"] if op.result]
    m["engine.recursive_s"] = spans.total("run", under="mine")
    m["engine.frontier_s"] = spans.total("run", under="mine-frontier")
    # Base: the recursive engine's summed run() time on the same cells.
    m["engine.frontier_speedup"] = (
        m["engine.recursive_s"] / m["engine.frontier_s"]
    )
    for name in ("matches", "setop_iterations", "adjacency_bytes",
                 "candidates_checked", "frontier_hits"):
        m[f"engine.{name}"] = sum(getattr(r.counters, name) for r in rec)
    miters = m["engine.setop_iterations"] / 1e6
    m["engine.miter_per_s_recursive"] = miters / m["engine.recursive_s"]
    m["engine.miter_per_s_frontier"] = miters / m["engine.frontier_s"]
    stats = [e.frontier_stats() for e, _ in traced["frontier_engines"]]
    m["engine.frontier_rows_expanded"] = sum(
        s["rows_expanded"] for s in stats)
    m["engine.frontier_peak_width"] = max(s["peak_width"] for s in stats)
    m["engine.frontier_fallbacks"] = sum(s["fallbacks"] for s in stats)
    # Engine construction (incl. orientation), mean per cell.
    m["engine.construct_ms"] = 1e3 * (
        spans.total("construct", under="mine")
        + spans.total("construct", under="mine-frontier")
    ) / (2 * len(b.workload.mine_cells))


def pool_layer(b: Battery, m: Metrics, serial_s: float) -> None:
    """Warm ``MinerPool(workers=2)`` per mine-tier graph, default options
    then ``batch_frontier=True``; fork/start kept out of the mine time."""
    totals = dict.fromkeys(
        ("start", "close", "mine_w2", "frontier_w2", "overhead"), 0.0)
    tasks = 0
    with b.spans.span("pool"):
        for graph in mine_graphs(b):
            cells = [c for c in b.workload.mine_cells if c[0] == graph]
            for frontier in (False, True):
                key = "frontier_w2" if frontier else "mine_w2"
                started = time.perf_counter()
                pool = MinerPool(b.graphs[graph], workers=2,
                                 batch_frontier=frontier)
                try:
                    with b.spans.span("pool-start"):
                        # First read forks the workers and calibrates.
                        overhead = pool.dispatch_overhead_s
                    start_s = time.perf_counter() - started
                    for cell in cells:
                        with b.spans.span("pool-mine", cell="/".join(cell),
                                          frontier=frontier):
                            op, seconds = timed(
                                b.gate.attempt, f"pool-2 {cell}",
                                pool.mine, b.plans[cell[1]])
                        b.check_mined(op, cell)
                        totals[key] += seconds
                        if op.result is not None and not frontier:
                            tasks += op.result.counters.tasks
                finally:
                    with b.spans.span("pool-close"):
                        _, close_s = timed(pool.close)
                if not frontier:
                    totals["start"] += start_s
                    totals["close"] += close_s
                    totals["overhead"] += overhead
    m["pool.start_s"] = totals["start"]
    m["pool.close_s"] = totals["close"]
    m["pool.dispatch_overhead_ms"] = (
        1e3 * totals["overhead"] / len(mine_graphs(b)))
    m["pool.mine_w2_s"] = totals["mine_w2"]
    m["pool.frontier_w2_s"] = totals["frontier_w2"]
    # Base: the serial recursive stage of the untraced round.
    m["pool.w2_speedup"] = serial_s / totals["mine_w2"]
    m["pool.tasks"] = tasks


def hw_layer(b: Battery, m: Metrics, traced: Dict) -> None:
    reports = traced["reports"]
    m["hw.sim_s"] = traced["sim_s"]
    m["hw.sim_cycles"] = sum(r.cycles for r in reports)
    m["hw.kcycles_per_host_s"] = m["hw.sim_cycles"] / 1e3 / m["hw.sim_s"]
    for name in ("setop_cycles", "cmap_cycles", "cmap_reads",
                 "cmap_overflows", "dram_accesses", "noc_requests", "tasks"):
        m[f"hw.{name}"] = sum(getattr(r, name) for r in reports)
    hits = sum(r.private_hits for r in reports)
    m["hw.private_hit_rate"] = hits / (
        hits + sum(r.private_misses for r in reports))
    with b.spans.span("sim-parallel"):
        started = time.perf_counter()
        for cell in b.workload.sim_cells:
            graph, pattern = cell
            op = b.gate.attempt(
                f"sim-parallel-2 {graph}/{pattern}", simulate_parallel,
                b.graphs[graph], b.plans[pattern], SIM_CONFIG, workers=2,
            )
            # Bit-identical to the serial simulator, by contract.
            b.check_simulated(op, cell)
        m["hw.sim_parallel_w2_s"] = time.perf_counter() - started


def serve_layer(
    b: Battery, m: Metrics, traced: Dict, items: Sequence[StreamItem]
) -> None:
    hits = [s for s, i in zip(traced["latencies"], items) if not i.forced]
    misses = [(s, i) for s, i in zip(traced["latencies"], items) if i.forced]
    m["serve.hit_p50_us"] = 1e6 * statistics.median(hits)
    m["serve.miss_p50_ms"] = 1e3 * statistics.median(s for s, _ in misses)
    m["serve.p95_ms"] = 1e3 * percentile(traced["latencies"], 0.95)
    with b.spans.span("serve-probes"):
        # Direct engine time of the same plan, for the miss overhead.
        direct: Dict[Cell, float] = {}
        for cell in b.workload.serve_cells:
            graph, plan = b.graphs[cell[0]], b.plans[cell[1]]
            direct[cell] = best_of(3, lambda: timed(
                lambda: PatternAwareEngine(graph, plan).run())[1])
        m["serve.miss_overhead_ms"] = 1e3 * statistics.median(
            s - direct[i.cell] for s, i in misses)
        payloads = [jsonl_payload(cell) for cell in b.workload.serve_cells]
        started = time.perf_counter()
        for i in range(200):
            op = b.gate.attempt(
                "jsonl", handle_request, b.service,
                payloads[i % len(payloads)])
            if op.result is not None and not op.result.get("ok"):
                b.gate.fail(op, f"response {op.result!r}")
            json.dumps(op.result)
        m["serve.jsonl_us_per_req"] = (
            1e6 * (time.perf_counter() - started) / 200)
        latencies, wall = two_clients(b, items)
    m["serve.c2_rps"] = len(items) / wall
    m["serve.c2_p95_ms"] = 1e3 * percentile(latencies, 0.95)
    caches = b.service.cache_stats()
    m["serve.plan_compiles"] = b.service.compiles
    m["serve.plan_cache_hits"] = caches["plan"]["hits"]
    m["serve.result_cache_hits"] = caches["result"]["hits"]
    m["serve.rejected"] = b.service.requests_rejected


def jsonl_payload(cell: Cell) -> Dict[str, object]:
    graph, pattern = cell
    if motif_k(pattern):
        return {"op": "mine", "graph": graph, "app": "k-MC",
                "k": motif_k(pattern)}
    return {"op": "mine", "graph": graph, "pattern": pattern}


def two_clients(
    b: Battery, items: Sequence[StreamItem]
) -> Tuple[List[float], float]:
    """The same stream split over 2 closed-loop clients: latencies and
    wall seconds.  Responses are checked after both clients finish."""
    done: List[List[Tuple[StreamItem, float, object]]] = [[], []]

    def client(k: int) -> None:
        for item in items[k::2]:
            request = b.request_for(item)
            started = time.perf_counter()
            try:
                outcome = b.service.request(request)
            except Exception as exc:  # checked below, in the main thread
                outcome = exc
            done[k].append((item, time.perf_counter() - started, outcome))

    threads = [threading.Thread(target=client, args=(k,)) for k in (0, 1)]
    started = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - started
    latencies = []
    for item, seconds, outcome in done[0] + done[1]:
        op = b.gate.record(f"serve-c2 {item.cell}", outcome)
        b.check_mined(op, item.cell)
        latencies.append(seconds if op.failure is None else float("inf"))
    return latencies, wall


def cli_obs_layer(b: Battery, m: Metrics, rounds: Sequence[Dict]) -> None:
    with b.spans.span("cli-probes"):
        def imported() -> float:
            op, seconds = timed(
                b.gate.attempt, "cli import", run_child,
                [sys.executable, "-c", "import repro.cli"])
            if op.result is not None and op.result[0] != 0:
                b.gate.fail(op, f"exit code {op.result[0]}")
            return seconds

        m["cli.import_s"] = best_of(3, imported)
        m["cli.cold_s"] = min(
            [r["cli_s"] for r in rounds] + [b.cli_cold()[0]])
    with b.spans.span("obs-probes"):
        # Alternating passes, best of 3 each: a single pair is host noise.
        plain, profiled = [], []
        for _ in range(3):
            plain.append(timed(engine_pass, b, False, None, "obs-plain")[1])
            profiler = PhaseProfiler(tracer=Tracer())
            profiled.append(
                timed(engine_pass, b, False, profiler, "obs-profiled")[1])
    m["obs.profiler_overhead_pct"] = (
        100.0 * (min(profiled) - min(plain)) / min(plain))


# ----------------------------------------------------------------------
def measure_layers(
    b: Battery, items: Sequence[StreamItem], seed: int
) -> Metrics:
    """Run the traced battery; returns every per-layer metric."""
    m: Metrics = {}
    spans = b.spans
    with spans.span("workload", workload=b.workload.name):
        with spans.span("setup"):
            b.setup()  # first in the process: compile and load are cold
        m["graph.load_s"] = spans.total("load", under="setup")
        m["graph.orient_s"] = spans.total("orient", under="setup")
        m["compiler.compile_ms"] = 1e3 * spans.total("compile", under="setup")
        m["serve.register_s"] = spans.total("register", under="setup")
        graph_layer(b, m)
        compiler_layer(b, m)
        kernels_layer(b, m, seed)
        with spans.span("warm-up"):
            b.reference_pass()
            b.serve_warm()
        # The same round twice: spans off (warms caches; the base of the
        # tracing overhead), then spans on.
        with spans.span("untraced-round"):
            spans.enabled = False
            try:
                untraced = battery_round(b, items)
            finally:
                spans.enabled = True
        traced = battery_round(b, items)
        m["bench.trace_overhead_pct"] = 100.0 * (
            traced["total_s"] - untraced["total_s"]) / untraced["total_s"]
        engine_layer(b, m, traced)
        pool_layer(b, m, untraced["mine_s"])
        hw_layer(b, m, traced)
        serve_layer(b, m, traced, items)
        cli_obs_layer(b, m, (untraced, traced))
    return m
