"""Tests for one-shot multi-process mining (a transient ``MinerPool``).

The contract: a mine through a pool opened for one request produces
counts identical to the serial engine on every input, and — with
chunking off — op counters identical too (every counter field is
additive and the task partition is exact).  The shared-memory plumbing,
the scheduler order, the observability wiring and the CLI/apps entry
points are covered here; resident-pool streams, lifecycle and the cost
model live in ``test_engine_pool.py``, wall-clock behavior in
``benchmarks/e2e``.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.compiler import compile_motifs, compile_pattern
from repro.engine import MinerPool, PatternAwareEngine, order_tasks
from repro.engine import pool as pool_module
from repro.graph import (
    CSRGraph,
    LabeledGraph,
    SharedCSRBuffers,
    assign_random_labels,
    attach_array,
    attach_shared_csr,
    cycle_graph,
    erdos_renyi,
    power_law_cluster,
    share_array,
)
from repro.obs import MetricsRegistry
from repro.patterns import (
    Pattern,
    diamond,
    four_cycle,
    house,
    k_clique,
    triangle,
)

ER = erdos_renyi(150, 0.06, seed=7, name="er")
PL = power_law_cluster(200, 3, 0.4, seed=9, name="pl")
PATTERNS = [triangle(), four_cycle(), diamond(), k_clique(4), house()]


def serial(graph, plan, **kw):
    """The recursive reference every pool answer is held to."""
    return PatternAwareEngine(graph, plan, batch_frontier=False, **kw).run()


def pool_mine(graph, plan, *, roots=None, split_degree=None, **kw):
    """One mine through a pool opened (and closed) for this request."""
    with MinerPool(graph, **kw) as pool:
        return pool.mine(plan, roots=roots, split_degree=split_degree)


# ----------------------------------------------------------------------
# Shared-memory plumbing
# ----------------------------------------------------------------------
class TestSharedCSR:
    def test_round_trip(self):
        with SharedCSRBuffers(PL) as shared:
            view = attach_shared_csr(shared.spec)
            assert view.num_vertices == PL.num_vertices
            assert view.num_edges == PL.num_edges
            for v in (0, 1, PL.num_vertices - 1):
                np.testing.assert_array_equal(
                    view.neighbors(v), PL.neighbors(v)
                )
            for handle in view._shm:
                handle.close()

    def test_views_are_read_only(self):
        with SharedCSRBuffers(ER) as shared:
            view = attach_shared_csr(shared.spec)
            with pytest.raises(ValueError):
                view.indices[0] = 99
            for handle in view._shm:
                handle.close()

    def test_share_array_round_trip(self):
        labels = np.arange(10, dtype=np.int32)
        shm, spec = share_array(labels)
        try:
            got, handle = attach_array(spec)
            np.testing.assert_array_equal(got, labels)
            handle.close()
        finally:
            shm.close()
            shm.unlink()


# ----------------------------------------------------------------------
# Scheduler order
# ----------------------------------------------------------------------
class TestOrderTasks:
    def test_degree_descending_with_stable_ties(self):
        tasks = order_tasks(PL)
        roots = [v for v, _ in tasks]
        degs = PL.degrees()[roots]
        assert all(degs[i] >= degs[i + 1] for i in range(len(degs) - 1))
        # Equal degrees issue in ascending vertex id.
        for i in range(len(roots) - 1):
            if degs[i] == degs[i + 1]:
                assert roots[i] < roots[i + 1]
        assert sorted(roots) == list(range(PL.num_vertices))

    def test_chunking_covers_heavy_roots(self):
        split = 8
        tasks = order_tasks(PL, split_degree=split)
        degrees = PL.degrees()
        seen = {}
        for v, chunk in tasks:
            if degrees[v] > split:
                index, pieces = chunk
                assert pieces == -(-int(degrees[v]) // split)
                seen.setdefault(v, set()).add(index)
            else:
                assert chunk is None
        for v, indices in seen.items():
            pieces = -(-int(degrees[v]) // split)
            assert indices == set(range(pieces))

    def test_roots_subset(self):
        subset = [3, 5, 8]
        tasks = order_tasks(ER, subset)
        assert sorted(v for v, _ in tasks) == subset
        # Ties break by vertex id, not by the order the roots came in.
        tasks = order_tasks(cycle_graph(8), [5, 2, 7, 1])
        assert [v for v, _ in tasks] == [1, 2, 5, 7]

    @pytest.mark.parametrize("split", [None, 4])
    def test_pool_and_simulator_issue_one_order(self, split):
        # One root set must never dispatch in two orders (or in two
        # encodings): the scheduler's order *is* the pool's.
        from repro.hw import Scheduler

        hub = 8  # a star's hub on top of an 8-cycle of equal degrees
        g = CSRGraph.from_edges(
            [(i, (i + 1) % 8) for i in range(8)]
            + [(hub, i) for i in range(8)]
        )
        roots = [5, 2, hub, 7, 1]
        tasks = order_tasks(g, roots, split_degree=split)
        assert Scheduler.order_tasks(g, roots, split_degree=split) == tasks
        assert [v for v, c in tasks if c in (None, (0, 2))] == [
            hub, 1, 2, 5, 7,
        ]


# ----------------------------------------------------------------------
# Parity with the serial engine
# ----------------------------------------------------------------------
class TestParity:
    @pytest.mark.parametrize("graph", [ER, PL], ids=["er", "power-law"])
    @pytest.mark.parametrize(
        "pattern", PATTERNS, ids=[p.name for p in PATTERNS]
    )
    def test_single_worker_counts_and_counters(self, graph, pattern):
        plan = compile_pattern(pattern)
        base = serial(graph, plan)
        got = pool_mine(graph, plan, workers=1)
        assert got.counts == base.counts
        assert got.counters.as_dict() == base.counters.as_dict()

    def test_chunked_counts_exact(self):
        # Chunking inflates counters (documented) but never counts.
        # 4-cycle plans are unoriented, so the power-law hubs keep
        # their full degrees and actually get split.
        plan = compile_pattern(four_cycle())
        base = serial(PL, plan)
        got = pool_mine(PL, plan, workers=2, split_degree=8)
        assert got.counts == base.counts
        assert got.counters.tasks > base.counters.tasks

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_batch_frontier_counts_and_counters(self, workers):
        plan = compile_pattern(k_clique(4))
        base = serial(PL, plan)
        got = pool_mine(PL, plan, workers=workers, batch_frontier=True)
        assert got.counts == base.counts
        assert got.counters.as_dict() == base.counters.as_dict()

    def test_roots_restriction(self):
        plan = compile_pattern(triangle())
        roots = list(range(0, ER.num_vertices, 3))
        base = serial(ER, plan, )
        sub = PatternAwareEngine(ER, plan)
        got = pool_mine(ER, plan, workers=2, roots=roots)
        want = sub.run(roots=np.asarray(roots))
        assert got.counts == want.counts
        assert sum(got.counts) <= sum(base.counts)

    def test_labeled_root_filter(self):
        labeled = assign_random_labels(ER, 3, seed=11)
        pattern = Pattern(
            3, [(0, 1), (0, 2), (1, 2)], labels=[1, 0, 2],
            name="labeled-triangle",
        )
        plan = compile_pattern(pattern)
        base = serial(labeled, plan)
        got = pool_mine(labeled, plan, workers=2)
        assert got.counts == base.counts
        assert got.counters.as_dict() == base.counters.as_dict()
        if plan.root_label is not None:
            with pytest.raises(ValueError, match="unlabeled"):
                pool_mine(ER, plan, workers=1)


# ----------------------------------------------------------------------
# Root-slice tasks: one walk in-process, a few slices per pool worker
# ----------------------------------------------------------------------
LABELED = assign_random_labels(ER, 3, seed=11)
SLICE_CASES = {
    # oriented chain
    "4-clique": (PL, compile_pattern(k_clique(4))),
    # edge-induced SL plan whose leaf reuses a memoized frontier
    "diamond": (PL, compile_pattern(diamond(), induced=False)),
    # merged dependency tree
    "3-MC": (ER, compile_motifs(3)),
    "labeled": (
        LABELED,
        compile_pattern(
            Pattern(
                3, [(0, 1), (0, 2), (1, 2)], labels=[1, 0, 2],
                name="labeled-triangle",
            )
        ),
    ),
}


class TestRootSliceTasks:
    @pytest.fixture(autouse=True)
    def small_slices(self, monkeypatch):
        # Floor of the pool's slice cut only (the walker's own band
        # size lives in repro.engine.explore): these graphs are far
        # smaller than one real band and would ride a single slice.
        monkeypatch.setattr(pool_module, "_FRONTIER_BAND_ELEMS", 32)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("case", list(SLICE_CASES))
    def test_pool_matches_walker_and_recursion(self, case, workers):
        graph, plan = SLICE_CASES[case]
        walker = PatternAwareEngine(graph, plan)
        want = walker.run()
        ref = serial(graph, plan)
        registry = MetricsRegistry()
        got = pool_mine(graph, plan, workers=workers, metrics=registry)
        assert got.counts == want.counts == ref.counts
        assert (
            got.counters.as_dict()
            == want.counters.as_dict()
            == ref.counters.as_dict()
        )
        stats = walker.frontier_stats()
        snap = registry.snapshot()
        # per-row sums: however the roots were sliced over workers, the
        # merged gauges add up to the single walk's
        assert stats["rows_expanded"] > 0
        for key in ("rows_expanded", "elems_gathered", "arc_probes"):
            assert snap[f"engine.frontier.{key}"] == stats[key]
        assert set(stats) == {
            key.split(".")[-1] for key in snap
            if key.startswith("engine.frontier.")
        }

    def test_slices_are_contiguous_runs_of_the_issue_order(self):
        tasks = order_tasks(PL)
        with MinerPool(PL, workers=2) as pool:
            slices = pool._slice_tasks(PL, tasks)
        assert len(slices) > 2
        assert [task for part in slices for task in part] == tasks
        with MinerPool(PL, workers=1) as pool:  # in-process: no slicing
            (_, summary), = pool.run_tasks(SLICE_CASES["diamond"][1], tasks)
        assert summary["tasks_done"] == len(tasks)

    def test_graph_smaller_than_one_band_is_one_slice(self, monkeypatch):
        monkeypatch.undo()  # the real floor
        tasks = order_tasks(PL)
        with MinerPool(PL, workers=4) as pool:
            assert pool._slice_tasks(PL, tasks) == [tasks]
        # recursion has no lanes to fill: it keeps its parallelism
        with MinerPool(PL, workers=4, batch_frontier=False) as pool:
            assert len(pool._slice_tasks(PL, tasks)) > 4

    @pytest.mark.parametrize("workers", [1, 2])
    def test_unsorted_root_subset(self, workers):
        graph, plan = SLICE_CASES["diamond"]
        roots = [150, 3, 77, 12, 199, 4, 180, 41, 9, 120]
        want = PatternAwareEngine(graph, plan).run(roots=roots)
        ref = PatternAwareEngine(graph, plan, batch_frontier=False).run(
            roots=roots
        )
        got = pool_mine(graph, plan, workers=workers, roots=roots)
        assert got.counts == want.counts == ref.counts
        assert got.counters.as_dict() == want.counters.as_dict()
        assert got.counters.as_dict() == ref.counters.as_dict()
        assert got.counters.tasks == len(roots)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_empty_root_set(self, workers):
        graph, plan = SLICE_CASES["4-clique"]
        got = pool_mine(graph, plan, workers=workers, roots=[])
        assert got.counts == (0,)
        assert got.counters.tasks == 0
        assert got.counters.setop_iterations == 0

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_chunk_tasks_and_root_slices_in_one_request(self, workers):
        # 4-cycle plans are unoriented, so hubs keep their degree and
        # split; the rest of the roots ride slices beside the chunks.
        plan = compile_pattern(four_cycle())
        tasks = order_tasks(PL, split_degree=4)
        chunks = sum(1 for _root, chunk in tasks if chunk is not None)
        assert 0 < chunks < len(tasks)
        got = pool_mine(PL, plan, workers=workers, split_degree=4)
        assert got.counts == serial(PL, plan).counts
        # every unit, chunk or whole root, still counts as one task
        assert got.counters.tasks == len(tasks)


# ----------------------------------------------------------------------
# Validation and observability
# ----------------------------------------------------------------------
class TestValidation:
    def test_worker_count(self):
        with pytest.raises(ValueError):
            MinerPool(ER, workers=0)

    def test_chunking_rejected_for_multi_plans(self):
        with pytest.raises(ValueError, match="single-pattern"):
            pool_mine(ER, compile_motifs(3), workers=1, split_degree=8)

    def test_worker_failure_surfaces(self):
        with MinerPool(ER, workers=2) as pool:
            # poison: workers crash building the engine on a None plan
            with pytest.raises(RuntimeError, match="worker"):
                pool.run_tasks(None, order_tasks(ER))


class TestObservability:
    def test_parallel_gauges(self):
        registry = MetricsRegistry()
        plan = compile_pattern(four_cycle())
        pool_mine(PL, plan, workers=2, split_degree=16, metrics=registry)
        snap = registry.snapshot()
        assert snap["engine.parallel.workers"] == 2
        assert snap["engine.parallel.queue_depth"] > PL.num_vertices
        assert snap["engine.parallel.chunk_units"] > 0
        done = sum(
            snap[f"engine.parallel.worker_tasks_done{{worker={i}}}"]
            + snap[f"engine.parallel.worker_chunks_done{{worker={i}}}"]
            for i in range(2)
        )
        assert done == snap["engine.parallel.queue_depth"]
        assert snap["engine.matches"] == serial(PL, plan).counts[0]

    def test_frontier_gauges_aggregated(self):
        registry = MetricsRegistry()
        plan = compile_pattern(triangle())
        pool_mine(
            ER, plan, workers=2, batch_frontier=True, metrics=registry
        )
        snap = registry.snapshot()
        assert snap["engine.frontier.rows_expanded"] > 0
        assert snap["engine.frontier.bands"] > 0
        assert snap["engine.frontier.peak_width"] > 0

    def test_tracer_span(self):
        from repro.obs import Tracer

        tracer = Tracer()
        plan = compile_pattern(triangle())
        pool_mine(ER, plan, workers=1, tracer=tracer)
        names = [e["name"] for e in tracer.events()]
        assert "mine-parallel" in names


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
class TestEntryPoints:
    def test_cli_workers(self, capsys):
        assert main(
            ["mine", "triangle", "--dataset", "As", "--workers", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "matches:" in out

    def test_cli_split_degree_serial(self, capsys):
        assert main(
            ["mine", "triangle", "--dataset", "As", "--split-degree", "16"]
        ) == 0
        assert "matches:" in capsys.readouterr().out

    def test_apps_api_workers(self):
        from repro.apps import clique_count
        from repro.errors import ConfigError

        base = clique_count(ER, 4)
        got = clique_count(ER, 4, workers=2)
        assert got.counts == base.counts
        with pytest.raises(ConfigError):
            clique_count(ER, 4, backend="cmap", workers=2)


# ----------------------------------------------------------------------
# Property: parity on random graphs
# ----------------------------------------------------------------------
@st.composite
def random_graphs(draw):
    n = draw(st.integers(min_value=6, max_value=40))
    p = draw(st.floats(min_value=0.05, max_value=0.4))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return erdos_renyi(n, p, seed=seed)


@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(graph=random_graphs(), use_clique=st.booleans())
def test_property_parallel_parity(graph, use_clique):
    plan = compile_pattern(k_clique(4) if use_clique else four_cycle())
    base = serial(graph, plan)
    got = pool_mine(graph, plan, workers=2)
    assert got.counts == base.counts
    assert got.counters.as_dict() == base.counters.as_dict()
