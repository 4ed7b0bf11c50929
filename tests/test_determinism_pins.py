"""Pinned regressions for the determinism-lint audit (fmlint satellite)
and literal simulator outputs.

The audit declared PEStats' unit breakdowns ``int`` (busy/stall stay
float for fractional issue gaps) because the parallel simulator ships
them as per-task integer deltas that must re-group exactly.  These pins
fail if any producer starts charging fractional unit cycles again —
the drift fmlint FM202 guards against syntactically, asserted here on
a real simulation.

:class:`TestSimReportPins` pins whole ``SimReport.as_dict()`` payloads
(match counts, makespan and a digest of every field) for seven plans
crossed with four accelerator configs, under both tracers (the
frontier walker and the recursive reference), plus the cycle-domain
Chrome trace of two overflowing cells.  Any change to
how the simulator walks, traces or replays a search tree must leave
every one of them untouched.

:class:`TestCounterPins` pins whole mining ``OpCounters.as_dict()``
payloads for five plans on every engine path (the walker with and
without the arc map, one ``run_task`` per root, with every row run as
a one-row band, the reference).  The differential
matrix only checks that the paths agree with each other; these
literals also catch a change to the merge-model charge made the same
way on every path.  ``FRONTIER_STATS_PINS`` pins the walker's host
traffic for the same plans (``frontier_stats()`` with and without the
arc map): a kernel rewrite that changes the banding or the elements
gathered and probed fails there even when every charge holds.
"""

import hashlib
import json
from collections import Counter

import pytest

from repro.compiler import compile_motifs, compile_pattern
from repro.engine.explore import PatternAwareEngine, filter_roots
from repro.engine.reference import ReferenceEngine
from repro.errors import SimulationError
from repro.graph import assign_random_labels, csr, erdos_renyi
from repro.hw import FlexMinerConfig, simulate, walktrace
from repro.hw.parallel_sim import _TracePE
from repro.obs import PhaseProfiler, Tracer
from repro.obs.trace import HOST_PID
from repro.patterns import (
    Pattern,
    diamond,
    four_cycle,
    k_clique,
    tailed_triangle,
    triangle,
)

GRAPH = erdos_renyi(40, 0.25, seed=9)
LABELED = assign_random_labels(GRAPH, 2, seed=5)


def _sim(pattern, **overrides):
    config = FlexMinerConfig.small(**overrides)
    accel_plan = compile_pattern(pattern)
    return simulate(GRAPH, accel_plan, config)


class TestIntegerCycleDomains:
    def test_unit_breakdowns_are_int(self):
        report = _sim(four_cycle())
        assert type(report.pruner_cycles) is int
        assert type(report.setop_cycles) is int
        assert type(report.cmap_cycles) is int
        # The sim actually charged unit work (which units depends on
        # the plan; the 4-cycle exercises the pruner and the c-map).
        charged = (
            report.pruner_cycles + report.setop_cycles + report.cmap_cycles
        )
        assert charged > 0

    def test_int_under_both_timing_paths(self, monkeypatch):
        # Streams from the walker and from the recursive reference
        # tracer must both stay in the integer domain (and agree, as
        # test_sim_trace_walk pins); a float literal in either drifts
        # the re-group.  TraceReplay imports WalkTracer on use.
        fast = _sim(triangle())
        monkeypatch.setattr(walktrace, "WalkTracer", _TracePE)
        slow = _sim(triangle())
        for report in (fast, slow):
            assert type(report.pruner_cycles) is int
            assert type(report.setop_cycles) is int
            assert type(report.cmap_cycles) is int
        assert fast.setop_cycles == slow.setop_cycles

    def test_per_pe_stats_are_int(self):
        from repro.hw.accelerator import FlexMinerAccelerator

        accel = FlexMinerAccelerator(
            GRAPH, compile_pattern(triangle()), FlexMinerConfig.small()
        )
        accel.run()
        for pe in accel.pes:
            assert type(pe.stats.pruner_cycles) is int
            assert type(pe.stats.setop_cycles) is int
            assert type(pe.stats.cmap_cycles) is int

    def test_json_roundtrip_preserves_int(self):
        import json

        report = _sim(triangle())
        data = json.loads(report.to_json())
        assert isinstance(data["setop_cycles"], int)
        assert isinstance(data["cmap_cycles"], int)


def _pin_plans():
    """The pinned plans: name -> (graph, plan)."""
    labeled_triangle = Pattern(
        3, [(0, 1), (0, 2), (1, 2)], labels=[0, 1, 1],
        name="labeled-triangle",
    )
    return {
        "TC": (GRAPH, compile_pattern(triangle())),
        "4-CL": (GRAPH, compile_pattern(k_clique(4))),
        "4-cycle": (GRAPH, compile_pattern(four_cycle())),
        "diamond": (
            GRAPH, compile_pattern(diamond(), use_orientation=False)
        ),
        "3-MC": (GRAPH, compile_motifs(3)),
        "4-MC": (GRAPH, compile_motifs(4)),
        "labeled-TC": (LABELED, compile_pattern(labeled_triangle)),
    }


PIN_PLANS = _pin_plans()

#: Default 8 kB c-map; a 64 B one (12 entries: most inserts overflow and
#: their checks fall back to the SIU/SDU); no c-map; task splitting.
PIN_CONFIGS = {
    "cmap-8k": FlexMinerConfig(num_pes=4),
    "cmap-64B": FlexMinerConfig(num_pes=4, cmap_bytes=64),
    "no-cmap": FlexMinerConfig(num_pes=4, cmap_bytes=0),
    "split-4": FlexMinerConfig(num_pes=4, task_split_degree=4),
}


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def _report_pin(plan_name, config_name):
    """``(counts, cycles, digest of as_dict())`` or ``"raises"``."""
    graph, plan = PIN_PLANS[plan_name]
    try:
        report = simulate(graph, plan, PIN_CONFIGS[config_name])
    except SimulationError:
        return "raises"
    payload = report.as_dict()
    return (tuple(report.counts), report.cycles, _digest(payload))


def _sim_trace_pin(plan_name="3-MC", config_name="cmap-64B"):
    """Digest and per-name event counts (task spans counted under one
    name) of the cycle-domain Chrome trace: the host-pid wall-clock
    spans are left out, they are not deterministic."""
    graph, plan = PIN_PLANS[plan_name]
    tracer = Tracer()
    simulate(
        graph, plan, PIN_CONFIGS[config_name],
        profiler=PhaseProfiler(tracer=tracer, enabled=False),
    )
    events = [e for e in tracer.events() if e.get("pid") != HOST_PID]
    names = Counter(e["name"].split(" ")[0] for e in events)
    return _digest(events), dict(sorted(names.items()))


#: (plan, config) -> (counts, makespan cycles, as_dict() digest).
SIM_REPORT_PINS = {
    ("TC", "cmap-8k"): ((132,), 1075.0, "d87de046c654237f3096"),
    ("TC", "cmap-64B"): ((132,), 1075.0, "d87de046c654237f3096"),
    ("TC", "no-cmap"): ((132,), 1103.6, "3629a0ffd130852ca172"),
    ("TC", "split-4"): ((132,), 1104.1, "bcca3b3616ac8a15a4fd"),
    ("4-CL", "cmap-8k"): ((16,), 1128.75, "2d45f436b8c66310630a"),
    ("4-CL", "cmap-64B"): ((16,), 1128.75, "2d45f436b8c66310630a"),
    ("4-CL", "no-cmap"): ((16,), 1263.625, "11ea00da86fa5826db8f"),
    ("4-CL", "split-4"): ((16,), 1280.5, "2ba66d8bff1c425bf6f1"),
    ("4-cycle", "cmap-8k"): ((919,), 3617.2, "547b7d4ba81173bf5880"),
    ("4-cycle", "cmap-64B"): ((919,), 3975.35, "30ba81bd13772a532a1a"),
    ("4-cycle", "no-cmap"): ((919,), 4590.2, "34776be19a5ff2210339"),
    ("4-cycle", "split-4"): ((919,), 4000.55, "9f306a5645688162516d"),
    ("diamond", "cmap-8k"): ((404,), 1856.0, "aee4e5239fbe0f6bf25d"),
    ("diamond", "cmap-64B"): ((404,), 1981.1, "71dc076a50cdca676ba5"),
    ("diamond", "no-cmap"): ((404,), 2098.225, "b82fe28a16ce7786d589"),
    ("diamond", "split-4"): ((404,), 2431.875, "4b8a9853eccdc9289f8d"),
    ("3-MC", "cmap-8k"): ((1348, 132), 4264.575, "cdf29462891906562c42"),
    ("3-MC", "cmap-64B"): ((1348, 132), 4471.125, "6d9a8f71576ba82fd249"),
    ("3-MC", "no-cmap"): ((1348, 132), 4580.025, "9b7a12623352c809bca7"),
    ("3-MC", "split-4"): "raises",
    ("4-MC", "cmap-8k"): (
        (2417, 6971, 2167, 563, 308, 16),
        37959.925,
        "5ba7521f89bd5be66d54",
    ),
    ("4-MC", "cmap-64B"): (
        (2417, 6971, 2167, 563, 308, 16),
        43949.3,
        "d4e7ea10c2ecab8170e2",
    ),
    ("4-MC", "no-cmap"): (
        (2417, 6971, 2167, 563, 308, 16),
        44166.525,
        "acbaac630e0a752f4262",
    ),
    ("4-MC", "split-4"): "raises",
    ("labeled-TC", "cmap-8k"): ((35,), 1278.125, "890a8fdb2dff85df0a98"),
    ("labeled-TC", "cmap-64B"): (
        (35,),
        1311.5499999999997,
        "c2daf5c37cfea33a45d4",
    ),
    ("labeled-TC", "no-cmap"): ((35,), 1329.625, "7468f9718c81556fee53"),
    ("labeled-TC", "split-4"): ((35,), 1508.05, "8a8ce367dc21d358921e"),
}

#: plan -> (digest, per-name counts) of the 64 B c-map cell's trace.
SIM_TRACE_PINS = {
    "4-cycle": (
        "55df1a5b0585d15034ce",
        {
            "cmap-insert": 152,
            "cmap-overflow": 31,
            "cmap-query": 439,
            "l2": 1,
            "noc": 1,
            "process_name": 1,
            "run": 1,
            "siu": 147,
            "stall": 43,
            "task": 40,
            "thread_name": 5,
        },
    ),
    "3-MC": (
        "ae62efb2e96ebb53994b",
        {
            "cmap-insert": 22,
            "cmap-overflow": 18,
            "cmap-query": 93,
            "noc": 1,
            "process_name": 1,
            "run": 1,
            "sdu": 378,
            "siu": 96,
            "stall": 52,
            "task": 40,
            "thread_name": 5,
        },
    ),
}


class TestSimReportPins:
    """Literal simulator outputs, under both tracers."""

    @pytest.mark.parametrize("walker", [True, False])
    @pytest.mark.parametrize(
        "plan_name,config_name", sorted(SIM_REPORT_PINS),
        ids=lambda x: str(x),
    )
    def test_report_pinned(
        self, plan_name, config_name, walker, monkeypatch
    ):
        # walker=False is the recursive column: the same literals, with
        # every slice traced by the reference tracer instead
        # (TraceReplay imports WalkTracer on use).
        if not walker:
            monkeypatch.setattr(walktrace, "WalkTracer", _TracePE)
        got = _report_pin(plan_name, config_name)
        assert got == SIM_REPORT_PINS[plan_name, config_name]

    @pytest.mark.parametrize("plan_name", sorted(SIM_TRACE_PINS))
    def test_cycle_domain_trace_pinned(self, plan_name):
        assert _sim_trace_pin(plan_name) == SIM_TRACE_PINS[plan_name]


def _counter_plans():
    """The mining-counter pins: name -> (graph, plan)."""
    labeled_triangle = Pattern(
        3, [(0, 1), (0, 2), (1, 2)], labels=[0, 1, 1],
        name="labeled-triangle",
    )
    return {
        "4-CL": (GRAPH, compile_pattern(k_clique(4))),
        "4-cycle": (GRAPH, compile_pattern(four_cycle())),
        "tailed-triangle": (GRAPH, compile_pattern(tailed_triangle())),
        "labeled-TC": (LABELED, compile_pattern(labeled_triangle)),
        "3-MC": (GRAPH, compile_motifs(3)),
    }


COUNTER_PLANS = _counter_plans()


def _mine_counters(path, graph, plan, monkeypatch):
    """``OpCounters.as_dict()`` of one mining run down ``path``."""
    if path == "keyed":
        monkeypatch.setattr(csr, "ARC_MAP_MAX_BYTES", 0)
    if path == "reference":
        engine = ReferenceEngine(graph, plan)
    elif path == "one-row-bands":
        # A one-element band ceiling: every row whose expansion estimate
        # exceeds 1 runs as a one-row band.
        engine = PatternAwareEngine(graph, plan, frontier_row_limit=1)
        counters = engine.run().counters.as_dict()
        assert engine.frontier_stats()["fallbacks"] > 0
        return counters
    elif path == "one-root":
        # one single-root walk per root: the task shape of a simulator PE
        engine = PatternAwareEngine(graph, plan)
        for root in filter_roots(graph, plan, range(graph.num_vertices)):
            engine.run_task(int(root))
        engine.counters.matches = sum(engine.counts)
        return engine.counters.as_dict()
    else:
        engine = PatternAwareEngine(graph, plan)
    return engine.run().counters.as_dict()


#: plan -> the OpCounters every engine path must charge.
COUNTER_PINS = {
    "4-CL": {
        "tasks": 40,
        "set_intersections": 321,
        "set_differences": 0,
        "setop_iterations": 2051,
        "adjacency_loads": 550,
        "adjacency_bytes": 8064,
        "candidates_checked": 337,
        "frontier_hits": 132,
        "frontier_misses": 0,
        "subgraphs_enumerated": 0,
        "isomorphism_tests": 0,
        "matches": 16,
    },
    "4-cycle": {
        "tasks": 40,
        "set_intersections": 586,
        "set_differences": 0,
        "setop_iterations": 12082,
        "adjacency_loads": 1401,
        "adjacency_bytes": 57480,
        "candidates_checked": 4169,
        "frontier_hits": 0,
        "frontier_misses": 0,
        "subgraphs_enumerated": 0,
        "isomorphism_tests": 0,
        "matches": 919,
    },
    "tailed-triangle": {
        "tasks": 40,
        "set_intersections": 189,
        "set_differences": 0,
        "setop_iterations": 3866,
        "adjacency_loads": 814,
        "adjacency_bytes": 34508,
        "candidates_checked": 5157,
        "frontier_hits": 0,
        "frontier_misses": 0,
        "subgraphs_enumerated": 0,
        "isomorphism_tests": 0,
        "matches": 3591,
    },
    "labeled-TC": {
        "tasks": 22,
        "set_intersections": 91,
        "set_differences": 0,
        "setop_iterations": 1816,
        "adjacency_loads": 204,
        "adjacency_bytes": 8132,
        "candidates_checked": 399,
        "frontier_hits": 0,
        "frontier_misses": 0,
        "subgraphs_enumerated": 0,
        "isomorphism_tests": 0,
        "matches": 35,
    },
    "3-MC": {
        "tasks": 40,
        "set_intersections": 189,
        "set_differences": 378,
        "setop_iterations": 11598,
        "adjacency_loads": 1214,
        "adjacency_bytes": 49416,
        "candidates_checked": 4226,
        "frontier_hits": 0,
        "frontier_misses": 0,
        "subgraphs_enumerated": 0,
        "isomorphism_tests": 0,
        "matches": 1480,
    },
}


class TestCounterPins:
    """Literal mining counters, on every engine path."""

    @pytest.mark.parametrize(
        "path",
        [
            "walker", "keyed", "one-root", "one-row-bands", "reference",
        ],
    )
    @pytest.mark.parametrize("plan_name", sorted(COUNTER_PINS))
    def test_counters_pinned(self, plan_name, path, monkeypatch):
        graph, plan = COUNTER_PLANS[plan_name]
        got = _mine_counters(path, graph, plan, monkeypatch)
        assert got == COUNTER_PINS[plan_name]


def _stats(rows, bands, peak, gathered, probes):
    return {
        "rows_expanded": rows,
        "bands": bands,
        "peak_width": peak,
        "fallbacks": 0,
        "elems_gathered": gathered,
        "arc_probes": probes,
    }


#: (plan, path) -> the walker's frontier_stats() after one run().
FRONTIER_STATS_PINS = {
    ("4-CL", "walker"): _stats(321, 3, 189, 983, 794),
    ("4-CL", "keyed"): _stats(321, 3, 189, 2240, 0),
    ("4-cycle", "walker"): _stats(775, 3, 586, 6486, 5711),
    ("4-cycle", "keyed"): _stats(775, 3, 586, 12857, 0),
    ("tailed-triangle", "walker"): _stats(585, 3, 396, 2145, 1956),
    ("tailed-triangle", "keyed"): _stats(585, 3, 396, 4055, 0),
    ("labeled-TC", "walker"): _stats(91, 2, 91, 1081, 864),
    ("labeled-TC", "keyed"): _stats(91, 2, 91, 2033, 0),
    ("3-MC", "walker"): _stats(567, 3, 378, 6389, 5822),
    ("3-MC", "keyed"): _stats(567, 3, 378, 12165, 0),
}


class TestFrontierStatsPins:
    """Literal walker host traffic, with and without the arc map."""

    @pytest.mark.parametrize(
        "plan_name,path", sorted(FRONTIER_STATS_PINS), ids=lambda x: str(x)
    )
    def test_frontier_stats_pinned(self, plan_name, path, monkeypatch):
        if path == "keyed":
            monkeypatch.setattr(csr, "ARC_MAP_MAX_BYTES", 0)
        graph, plan = COUNTER_PLANS[plan_name]
        engine = PatternAwareEngine(graph, plan)
        engine.run()
        got = engine.frontier_stats()
        assert got == FRONTIER_STATS_PINS[plan_name, path]
