"""Tests for the trace/replay parallel simulator (`repro.hw.parallel_sim`).

The contract under test is strict: for any worker count, the returned
``SimReport`` must be *bit-identical* (full ``as_dict`` equality —
cycles, per-PE stats, cache/NoC/DRAM counters, derived rates) to the
serial simulator on the same inputs.
"""

import pytest

from repro.compiler import compile_motifs, compile_pattern
from repro.errors import SimulationError
from repro.graph import erdos_renyi, load_dataset, star_graph
from repro.hw import FlexMinerConfig, simulate, simulate_parallel
from repro.obs import MetricsRegistry
from repro.patterns import diamond, four_cycle, k_clique, triangle

GRAPH = erdos_renyi(48, 0.25, seed=13)
CONFIG = FlexMinerConfig(num_pes=4)


def _assert_identical(parallel, serial):
    ref, got = serial.as_dict(), parallel.as_dict()
    diff = sorted(k for k in ref if ref[k] != got.get(k))
    assert not diff, f"SimReport drift on {diff}"
    assert got == ref


class TestBitIdentical:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize(
        "pattern", [triangle(), k_clique(4), four_cycle(), diamond()],
        ids=lambda p: p.name,
    )
    def test_matches_serial(self, pattern, workers):
        plan = compile_pattern(pattern)
        serial = simulate(GRAPH, plan, CONFIG)
        parallel = simulate_parallel(GRAPH, plan, CONFIG, workers=workers)
        _assert_identical(parallel, serial)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_multiplan(self, workers):
        plan = compile_motifs(3)
        serial = simulate(GRAPH, plan, CONFIG)
        parallel = simulate_parallel(GRAPH, plan, CONFIG, workers=workers)
        _assert_identical(parallel, serial)

    def test_chunked_tasks(self):
        # Task splitting shards hub roots into (root, chunk) tasks; the
        # trace phase must key and replay them independently.
        g = star_graph(40)
        plan = compile_pattern(triangle())
        config = FlexMinerConfig(num_pes=4, task_split_degree=8)
        serial = simulate(g, plan, config)
        parallel = simulate_parallel(g, plan, config, workers=2)
        _assert_identical(parallel, serial)

    def test_no_cmap(self):
        plan = compile_pattern(four_cycle())
        config = FlexMinerConfig(num_pes=4, cmap_bytes=0)
        serial = simulate(GRAPH, plan, config)
        parallel = simulate_parallel(GRAPH, plan, config, workers=2)
        _assert_identical(parallel, serial)

    def test_roots_subset(self):
        plan = compile_pattern(triangle())
        roots = [0, 3, 7, 11]
        serial = simulate(GRAPH, plan, CONFIG, roots=roots)
        parallel = simulate_parallel(
            GRAPH, plan, CONFIG, workers=2, roots=roots
        )
        _assert_identical(parallel, serial)

    def test_dataset_cell(self):
        # One real harness cell end to end (the acceptance shape).
        graph = load_dataset("As")
        plan = compile_pattern(triangle())
        config = FlexMinerConfig(num_pes=8, task_split_degree=32)
        serial = simulate(graph, plan, config)
        parallel = simulate_parallel(graph, plan, config, workers=4)
        _assert_identical(parallel, serial)


class TestValidationAndMetrics:
    def test_workers_must_be_positive(self):
        plan = compile_pattern(triangle())
        with pytest.raises(ValueError):
            simulate_parallel(GRAPH, plan, CONFIG, workers=0)

    def test_multiplan_split_rejected(self):
        plan = compile_motifs(3)
        config = FlexMinerConfig(num_pes=2, task_split_degree=4)
        with pytest.raises(SimulationError):
            simulate_parallel(GRAPH, plan, config, workers=2)

    def test_metrics_gauges(self):
        plan = compile_pattern(triangle())
        metrics = MetricsRegistry()
        report = simulate_parallel(
            GRAPH, plan, CONFIG, workers=2, metrics=metrics
        )
        snap = metrics.snapshot()
        assert snap["sim.parallel.workers"] == 2
        assert snap["sim.parallel.tasks"] == report.tasks
