"""The walker-emitted simulator trace equals the recursive one.

:class:`repro.hw.walktrace.WalkTracer` (the default tracer) and the
recursive ``_TracePE`` must produce the same
:class:`~repro.hw.events.ShardTrace` — ``codes``, ``arg_a``, ``arg_b``,
``bounds``, ``stats`` and ``counts``, element for element — on any task
list: whole task orders, strided worker shards, chunked tasks, labeled
plans and MultiPlans, under the default c-map, an overflowing 64 B one,
none, and task splitting.  Replay is shared, so equal traces are equal
``SimReport``s.
"""

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.compiler import compile_motifs, compile_pattern
from repro.engine import filter_roots, order_tasks
from repro.engine.explore import PatternAwareEngine
from repro.graph import (
    assign_random_labels,
    csr,
    erdos_renyi,
    orient_by_degree,
    power_law_cluster,
    rmat,
)
from repro.hw import FlexMinerConfig, HardwareCMap, simulate, walktrace
from repro.hw.parallel_sim import _TracePE
from repro.hw.walktrace import WalkTracer
from repro.patterns import (
    Pattern,
    diamond,
    four_cycle,
    k_clique,
    path,
    tailed_triangle,
    triangle,
    wedge,
)
from repro.verify import load_corpus

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")

CONFIGS = {
    "cmap-8k": FlexMinerConfig(num_pes=4),
    "cmap-64B": FlexMinerConfig(num_pes=4, cmap_bytes=64),
    "no-cmap": FlexMinerConfig(num_pes=4, cmap_bytes=0),
    "split-4": FlexMinerConfig(num_pes=4, task_split_degree=4),
}

SHARD_FIELDS = ("codes", "arg_a", "arg_b", "bounds", "stats", "counts")


def _task_order(graph, plan, config):
    oriented = getattr(plan, "oriented", False)
    return order_tasks(
        orient_by_degree(graph) if oriented else graph,
        filter_roots(graph, plan, None),
        split_degree=config.task_split_degree,
    )


def assert_same_trace(graph, plan, config, tasks=None):
    """Both tracers over ``tasks`` (default: the full task order) and
    over three strided worker shards of it."""
    tasks = _task_order(graph, plan, config) if tasks is None else tasks
    walker = WalkTracer(graph, plan, config)
    recursive = _TracePE(graph, plan, config)
    for part in [tasks] + [tasks[w::3] for w in range(3)]:
        want, got = recursive.trace(part), walker.trace(part)
        for field in SHARD_FIELDS:
            a, b = getattr(want, field), getattr(got, field)
            assert a.dtype == b.dtype, field
            assert np.array_equal(a, b), field
    return tasks


def _simulable(plan, config):
    return config.task_split_degree is None or not hasattr(plan, "root")


class TestCorpus:
    @pytest.mark.parametrize("config_name", sorted(CONFIGS))
    @pytest.mark.parametrize(
        "path,case", load_corpus(CORPUS_DIR),
        ids=lambda x: os.path.basename(x) if isinstance(x, str) else "",
    )
    def test_corpus_case(self, path, case, config_name):
        plan = case.compile()
        config = CONFIGS[config_name]
        if not _simulable(plan, config):
            pytest.skip("task splitting needs a single-pattern plan")
        assert_same_trace(case.graph, plan, config)


#: The OpCounters fields the merge model prices.
MERGE_MODEL_FIELDS = (
    "set_intersections",
    "set_differences",
    "setop_iterations",
    "adjacency_loads",
    "adjacency_bytes",
)

PLC = power_law_cluster(80, 4, 0.5, seed=3)
COUNTER_CASES = [
    (os.path.basename(path), case.graph, case.compile())
    for path, case in load_corpus(CORPUS_DIR)
] + [
    ("plc-4-cycle", PLC, compile_pattern(four_cycle())),
    ("plc-4-CL", PLC, compile_pattern(k_clique(4))),
]


class TestTracerCounters:
    """Both tracers charge the CPU model's merge-model fields exactly as
    the engine does, whichever unit (c-map or SIU/SDU) answers an op."""

    @pytest.mark.parametrize(
        "config_name", ["cmap-8k", "cmap-64B", "no-cmap"]
    )
    @pytest.mark.parametrize(
        "graph,plan", [c[1:] for c in COUNTER_CASES],
        ids=[c[0] for c in COUNTER_CASES],
    )
    def test_merge_model_fields_match_engine(
        self, graph, plan, config_name
    ):
        config = CONFIGS[config_name]
        want = PatternAwareEngine(graph, plan).run().counters
        tasks = _task_order(graph, plan, config)
        for tracer in (WalkTracer, _TracePE):
            traced = tracer(graph, plan, config)
            traced.trace(tasks)
            for field in MERGE_MODEL_FIELDS:
                assert getattr(traced.counters, field) == getattr(
                    want, field
                ), (tracer.__name__, field)


GRAPH = erdos_renyi(40, 0.25, seed=9)
HUBS = power_law_cluster(60, 3, 0.4, seed=3)


class TestPlansAndConfigs:
    @pytest.mark.parametrize("config_name", sorted(CONFIGS))
    @pytest.mark.parametrize(
        "plan",
        [
            compile_pattern(triangle()),
            compile_pattern(k_clique(4)),
            compile_pattern(k_clique(5)),
            compile_pattern(four_cycle()),
            compile_pattern(diamond()),
            compile_pattern(tailed_triangle()),
            compile_pattern(wedge(), induced=True),
            compile_pattern(path(2)),
            compile_motifs(3),
            compile_motifs(4),
        ],
        ids=lambda p: getattr(p, "pattern", None) and p.pattern.name
        or f"{len(p.patterns)}-MC",
    )
    def test_hub_graph(self, plan, config_name):
        config = CONFIGS[config_name]
        if not _simulable(plan, config):
            pytest.skip("task splitting needs a single-pattern plan")
        assert_same_trace(HUBS, plan, config)

    @pytest.mark.parametrize("config_name", sorted(CONFIGS))
    def test_labeled(self, config_name):
        labeled = assign_random_labels(GRAPH, 2, seed=5)
        pattern = Pattern(
            4, [(0, 1), (1, 2), (2, 3), (3, 0)], labels=[0, 1, 0, 1],
        )
        assert_same_trace(
            labeled, compile_pattern(pattern), CONFIGS[config_name]
        )

    def test_chunked_tasks_split_every_hub(self):
        config = FlexMinerConfig(num_pes=4, task_split_degree=2)
        tasks = assert_same_trace(
            HUBS, compile_pattern(four_cycle()), config
        )
        assert sum(chunk is not None for _root, chunk in tasks) > 20

    def test_keyed_path_past_the_arc_map_cap(self, monkeypatch):
        # Past the cap the walker answers c-map membership and set
        # operations by gather + keyed binary search: same trace.
        monkeypatch.setattr(csr, "ARC_MAP_MAX_BYTES", 0)
        for plan in (compile_pattern(four_cycle()), compile_motifs(3)):
            graph = power_law_cluster(60, 3, 0.4, seed=3)  # fresh object
            assert graph.arc_map() is None
            assert_same_trace(graph, plan, CONFIGS["cmap-8k"])

    def test_levels_past_the_value_width_overflow(self, monkeypatch):
        # A level deeper than the c-map value bits is rejected like an
        # overflow; narrow the width so 4-cycle's depth-1 insert hits it.
        real = HardwareCMap.from_config

        def narrow(config):
            cmap = real(config)
            if cmap is not None:
                cmap.value_bits = 1
            return cmap

        monkeypatch.setattr(HardwareCMap, "from_config", staticmethod(narrow))
        plan = compile_pattern(four_cycle())
        assert plan.cmap_insert_depths == (1,)
        assert_same_trace(GRAPH, plan, CONFIGS["cmap-8k"])

    @pytest.mark.parametrize("config_name", sorted(CONFIGS))
    def test_reports_match_the_reference_tracer(
        self, config_name, monkeypatch
    ):
        config = CONFIGS[config_name]
        plan = compile_pattern(diamond())
        walked = simulate(HUBS, plan, config)
        # TraceReplay imports WalkTracer on use.
        monkeypatch.setattr(walktrace, "WalkTracer", _TracePE)
        recursive = simulate(HUBS, plan, config)
        assert walked.as_dict() == recursive.as_dict()


PATTERNS = [
    triangle(),
    k_clique(4),
    four_cycle(),
    diamond(),
    tailed_triangle(),
    wedge(),
]


@st.composite
def graphs(draw):
    kind = draw(st.sampled_from(["er", "rmat", "plc"]))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    if kind == "er":
        n = draw(st.integers(min_value=2, max_value=36))
        return erdos_renyi(n, draw(st.floats(0.05, 0.5)), seed=seed)
    if kind == "rmat":
        return rmat(
            draw(st.integers(min_value=2, max_value=5)),
            draw(st.floats(1.0, 8.0)),
            seed=seed,
        )
    n = draw(st.integers(min_value=8, max_value=40))
    return power_law_cluster(
        n, draw(st.integers(min_value=1, max_value=4)),
        draw(st.floats(0.0, 0.9)), seed=seed,
    )


class TestProperty:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        graph=graphs(),
        pattern=st.sampled_from(PATTERNS),
        induced=st.booleans(),
        motifs=st.sampled_from([None, None, None, 3, 4]),
        config_name=st.sampled_from(sorted(CONFIGS)),
        stride=st.integers(min_value=1, max_value=4),
    )
    def test_walker_trace_equals_recursive(
        self, graph, pattern, induced, motifs, config_name, stride
    ):
        config = CONFIGS[config_name]
        if motifs is not None:
            plan = compile_motifs(motifs)
            if not _simulable(plan, config):
                config = CONFIGS["cmap-64B"]
        else:
            plan = compile_pattern(pattern, induced=induced)
        tasks = _task_order(graph, plan, config)
        assert_same_trace(graph, plan, config, tasks[::stride])
