"""Tests for fine-grained task splitting (extension to the scheduler).

The paper assigns one task per root vertex; on power-law graphs a single
hub can then serialize the schedule's tail.  The extension splits hub
tasks into slices of the depth-1 candidate list.  Correctness contract:
the chunks partition the task exactly, so counts never change.
"""

import pytest

from repro.compiler import compile_motifs, compile_pattern
from repro.engine import PatternAwareEngine, mine
from repro.graph import CSRGraph, erdos_renyi, star_graph
from repro.hw import FlexMinerConfig, Scheduler, simulate
from repro.patterns import four_cycle, k_clique

GRAPH = erdos_renyi(40, 0.3, seed=91)


class TestEngineChunking:
    @pytest.mark.parametrize("total", [1, 2, 3, 7])
    def test_chunks_partition_task(self, total):
        plan = compile_pattern(four_cycle())
        whole = PatternAwareEngine(GRAPH, plan)
        whole.run_task(0)

        split = PatternAwareEngine(GRAPH, plan)
        for i in range(total):
            split.run_task(0, chunk=(i, total))
        assert split._counts == whole._counts

    def test_chunking_whole_graph(self):
        plan = compile_pattern(k_clique(4))
        expected = mine(GRAPH, plan).counts[0]
        engine = PatternAwareEngine(GRAPH, plan)
        for v in GRAPH.vertices():
            for i in range(3):
                engine.run_task(v, chunk=(i, 3))
        assert engine._counts[0] == expected

    def test_multiplan_chunking_rejected(self):
        engine = PatternAwareEngine(GRAPH, compile_motifs(3))
        with pytest.raises(ValueError):
            engine.run_task(0, chunk=(0, 2))


class TestSchedulerSplitting:
    def test_split_order_covers_all_chunks(self):
        g = star_graph(10)
        tasks = Scheduler.order_tasks(g, split_degree=4)
        hub_chunks = [chunk for _, chunk in tasks if chunk is not None]
        assert len(hub_chunks) == 3  # ceil(10 / 4)
        assert set(hub_chunks) == {(0, 3), (1, 3), (2, 3)}
        # Leaves stay unsplit.
        assert sum(1 for _, chunk in tasks if chunk is None) == 10

    def test_no_split_by_default(self):
        tasks = Scheduler.order_tasks(GRAPH)
        assert all(chunk is None for _, chunk in tasks)


class TestSimulatorSplitting:
    def test_counts_unchanged(self):
        plan = compile_pattern(four_cycle())
        base = simulate(GRAPH, plan, FlexMinerConfig(num_pes=4))
        split = simulate(
            GRAPH,
            plan,
            FlexMinerConfig(num_pes=4, task_split_degree=4),
        )
        assert split.counts == base.counts
        assert split.tasks > base.tasks  # more, smaller tasks

    def test_improves_balance_on_hub_graph(self):
        # One hub dominates the schedule.  The hub needs the *largest*
        # vertex id: the symmetry order (v1 < v0, ...) roots each match
        # at its largest vertex, so a hub with the largest id owns all
        # the heavy work as one task.
        n = 200
        hub = n
        edges = [(hub, i) for i in range(n)]
        edges += [(i, (i + 1) % n) for i in range(n)]
        g = CSRGraph.from_edges(edges)
        plan = compile_pattern(four_cycle())
        base = simulate(g, plan, FlexMinerConfig(num_pes=8))
        split = simulate(
            g, plan, FlexMinerConfig(num_pes=8, task_split_degree=16)
        )
        assert split.counts == base.counts
        assert split.cycles < base.cycles / 2
        assert split.load_imbalance < base.load_imbalance

    def test_multiplan_split_rejected(self):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            simulate(
                GRAPH,
                compile_motifs(3),
                FlexMinerConfig(num_pes=2, task_split_degree=4),
            )

    @pytest.mark.parametrize("walker", [False, True], ids=["legacy", "fast"])
    def test_split_schedule_parity(self, walker, monkeypatch):
        # Chunked-task parity contract: the split schedule must mine
        # the exact same matches, and its task total must equal the
        # scheduler's (root, chunk) enumeration — no task dropped,
        # duplicated, or double-counted under either tracer ("legacy"
        # is the recursive reference; TraceReplay imports WalkTracer
        # on use).
        if not walker:
            from repro.hw import walktrace
            from repro.hw.parallel_sim import _TracePE

            monkeypatch.setattr(walktrace, "WalkTracer", _TracePE)
        plan = compile_pattern(four_cycle())
        base_cfg = FlexMinerConfig(num_pes=4)
        split_cfg = FlexMinerConfig(num_pes=4, task_split_degree=4)
        base = simulate(GRAPH, plan, base_cfg)
        split = simulate(GRAPH, plan, split_cfg)

        from repro.graph import orient_by_degree

        work = orient_by_degree(GRAPH) if plan.oriented else GRAPH
        assert split.counts == base.counts
        assert base.tasks == len(Scheduler.order_tasks(work))
        assert split.tasks == len(
            Scheduler.order_tasks(work, split_degree=4)
        )

    def test_split_schedule_parity_parallel_runner(self):
        # The parallel runner replays the same chunked schedule: match
        # counts and task totals stay identical at every worker count.
        from repro.hw import simulate_parallel

        plan = compile_pattern(four_cycle())
        config = FlexMinerConfig(num_pes=4, task_split_degree=4)
        serial = simulate(GRAPH, plan, config)
        for workers in (1, 2):
            parallel = simulate_parallel(
                GRAPH, plan, config, workers=workers
            )
            assert parallel.counts == serial.counts
            assert parallel.tasks == serial.tasks
            assert parallel.as_dict() == serial.as_dict()
