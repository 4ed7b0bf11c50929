"""Tests for the trace/replay parallel simulator (`repro.hw.parallel_sim`).

The contract under test is strict: for any worker count, the returned
``SimReport`` must be *bit-identical* (full ``as_dict`` equality —
cycles, per-PE stats, cache/NoC/DRAM counters, derived rates) to the
serial simulator on the same inputs.  The same holds for any slice
cut: a slice boundary only regroups exact integer settles.
"""

import multiprocessing
import os
import re
import threading

import pytest

from repro.compiler import compile_motifs, compile_pattern
from repro.engine import PoolWorkerError
from repro.engine.parallel import filter_roots, order_tasks
from repro.errors import SimulationError
from repro.graph import (
    csr, erdos_renyi, load_dataset, orient_by_degree, rmat, star_graph,
)
from repro.hw import (
    FlexMinerAccelerator, FlexMinerConfig, parallel_sim, simulate,
    simulate_parallel,
)
from repro.obs import MetricsRegistry, PhaseProfiler
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


def _sim_state(graph, plan, config):
    """The report, each PE's clock, LRU contents in order and frontier
    pointer, and each replayed slice's ``(tasks, events)``."""
    prof = PhaseProfiler()
    accel = FlexMinerAccelerator(graph, plan, config, profiler=prof)
    report = accel.run().as_dict()
    pes = [
        (
            pe.time,
            [list(ways.items()) for ways in pe.private._sets],
            pe._frontier_ptr,
        )
        for pe in accel.pes
    ]
    slices = [
        (p.args["tasks"], p.args["events"])
        for p in prof.phases() if p.name == "replay"
    ]
    return report, pes, slices


CUT_CASES = {
    "rmat-4-cycle": (
        rmat(7, 8, seed=5), compile_pattern(four_cycle()), CONFIG,
    ),
    "3-MC": (erdos_renyi(120, 0.08, seed=3), compile_motifs(3), CONFIG),
    "task-split": (
        rmat(7, 8, seed=5),
        compile_pattern(four_cycle()),
        FlexMinerConfig(num_pes=4, task_split_degree=8),
    ),
}


class TestSliceCut:
    @pytest.mark.parametrize("case", sorted(CUT_CASES))
    def test_cut_never_changes_a_report(self, case, monkeypatch):
        graph, plan, config = CUT_CASES[case]
        default = parallel_sim._SLICE_EVENTS
        runs = {}
        for target in (1, default, 1 << 30):
            monkeypatch.setattr(parallel_sim, "_SLICE_EVENTS", target)
            runs[target] = _sim_state(graph, plan, config)
        report, pes, _ = runs[default]
        for other_report, other_pes, _ in runs.values():
            assert other_report == report
            assert other_pes == pes
        # the patched target moved the cut
        assert len(runs[1][2]) > len(runs[default][2])

    def test_flat_graph_cuts_fewer_bounded_slices(self):
        # Many cheap roots: the squared-degree rule cuts a slice every
        # few thousand events; the event target packs them.
        graph = erdos_renyi(4000, 3 / 4000, seed=1)
        plan = compile_pattern(triangle())
        report, _, slices = _sim_state(graph, plan, CONFIG)
        work_graph = orient_by_degree(graph)
        tasks = order_tasks(work_graph, filter_roots(graph, plan, None))
        assert sum(n for n, _ in slices) == len(tasks) == report["tasks"]
        assert len(slices) < len(parallel_sim.slice_tasks(work_graph, tasks))
        for n, events in slices:
            assert n == 1 or events <= 2 * parallel_sim._SLICE_EVENTS


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the patched trace job reaches the child only under fork",
)
class TestTraceWorkerExit:
    """The trace half runs on MinerPool workers: a worker that exits
    without a result, with any code, is the pool's structured error,
    and the pool's teardown leaves no segment and no child behind."""

    @pytest.mark.parametrize("code", [0, 3], ids=["exit-0", "exit-3"])
    def test_exit_without_result_raises(self, code, monkeypatch):
        created = []
        real = csr.share_array

        def recording(arr):
            shm, spec = real(arr)
            created.append(spec["shm"])
            return shm, spec

        def exiting_start(self, graph):
            os._exit(code)

        monkeypatch.setattr(csr, "share_array", recording)
        monkeypatch.setattr(parallel_sim._TraceJob, "start", exiting_start)
        plan = compile_pattern(triangle())
        raised = []

        def call():
            try:
                simulate_parallel(GRAPH, plan, CONFIG, workers=2)
            except Exception as exc:  # handed to the test thread
                raised.append(exc)

        thread = threading.Thread(target=call, daemon=True)
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive(), "the parent waits on a dead worker"
        assert len(raised) == 1 and isinstance(raised[0], PoolWorkerError)
        assert raised[0].reason == "died"
        assert re.fullmatch(
            rf"exit codes \[{code}(, {code})?\]", raised[0].detail
        )
        assert created
        assert not set(created) & set(os.listdir("/dev/shm"))
        assert not multiprocessing.active_children()
