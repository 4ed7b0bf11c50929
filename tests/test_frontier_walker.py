"""The banded frontier walker: one path for chains and MultiPlan trees.

``batch_frontier=True`` must stay a pure value/counter drop-in for the
recursive engine wherever the band boundaries fall, whichever tree depth
the single-row fallback engages at, and however a task is chunked — and
banding must actually bound the memory a wide level materializes.
"""

import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import compile_motifs, compile_pattern
from repro.engine import PatternAwareEngine
from repro.engine import explore
from repro.graph import (
    assign_random_labels, csr, erdos_renyi, orient_by_degree,
    power_law_cluster, rmat,
)
from repro.patterns import (
    Pattern, diamond, four_cycle, k_clique, tailed_triangle, triangle,
)
from repro.verify import BACKENDS, VerifyCase

#: Mixed degrees (3..12): a row limit of 6 lets some rows through and
#: sends others to the fallback at every interior tree depth.
SKEWED = power_law_cluster(48, 3, 0.5, seed=5)
FALLBACK_LIMIT = 6

PLANS = {
    "TC": lambda: compile_pattern(triangle()),
    "4-CL": lambda: compile_pattern(k_clique(4)),
    "4-cycle": lambda: compile_pattern(four_cycle()),
    "diamond": lambda: compile_pattern(diamond()),
    "3-MC": lambda: compile_motifs(3),
    "4-MC": lambda: compile_motifs(4),
}


def assert_same(got, ref):
    assert got.counts == ref.counts
    assert got.counters == ref.counters
    if ref.embeddings is not None:
        assert sorted(got.embeddings) == sorted(ref.embeddings)


def recursive(plan) -> PatternAwareEngine:
    """The reference every walker result is held to."""
    return PatternAwareEngine(SKEWED, plan, batch_frontier=False)


class TestMultiPlanParity:
    @pytest.mark.parametrize("k", [3, 4])
    @pytest.mark.parametrize("memo", [True, False], ids=["memo", "nomemo"])
    @pytest.mark.parametrize(
        "limit", [None, FALLBACK_LIMIT], ids=["default", "fallback"]
    )
    @pytest.mark.parametrize("collect", [False, True], ids=["count", "collect"])
    def test_matches_recursive_engine(self, k, memo, limit, collect):
        plan = compile_motifs(k)
        options = dict(use_frontier_memo=memo, collect=collect)
        ref = PatternAwareEngine(
            SKEWED, plan, batch_frontier=False, **options
        ).run()
        if limit is not None:
            options["frontier_row_limit"] = limit
        engine = PatternAwareEngine(
            SKEWED, plan, batch_frontier=True, **options
        )
        fallback_depths = set()
        recurse = engine._frontier_recurse

        def spy(node, *args):
            fallback_depths.add(node.depth)
            recurse(node, *args)

        engine._frontier_recurse = spy
        assert_same(engine.run(), ref)
        stats = engine.frontier_stats()
        assert stats["bands"] > 0 and stats["rows_expanded"] > 0
        if limit is None:
            assert stats["fallbacks"] == 0
        else:
            # the fallback engaged below every interior tree depth
            assert fallback_depths == set(range(k - 1))

    def test_hooked_engines_still_route_trees_recursively(self):
        # Engines that override candidate generation keep their
        # per-embedding hooks: the walker must not run for them.
        class Hooked(PatternAwareEngine):
            supports_leaf_counting = False

        plan = compile_motifs(3)
        engine = Hooked(SKEWED, plan, batch_frontier=True)
        assert_same(engine.run(), recursive(plan).run())
        assert engine.frontier_stats()["bands"] == 0


class TestBandBoundaries:
    @pytest.mark.parametrize("band", [1, 7, 2 ** 30])
    @pytest.mark.parametrize("name", list(PLANS))
    def test_whole_graph_bit_identical(self, monkeypatch, band, name):
        monkeypatch.setattr(explore, "_FRONTIER_BAND_ELEMS", band)
        plan = PLANS[name]()
        engine = PatternAwareEngine(SKEWED, plan, batch_frontier=True)
        assert_same(engine.run(), recursive(plan).run())
        assert engine.frontier_stats()["fallbacks"] == 0
        if band == 2 ** 30:
            # one band per plan node visited: nothing was cut
            assert engine.frontier_stats()["bands"] <= plan_nodes(plan)

    @pytest.mark.parametrize("band", [1, 7, 2 ** 30])
    @pytest.mark.parametrize("name", ["TC", "4-CL", "4-cycle", "diamond"])
    def test_chunked_tasks_bit_identical(self, monkeypatch, band, name):
        monkeypatch.setattr(explore, "_FRONTIER_BAND_ELEMS", band)
        plan = PLANS[name]()
        hub = int(np.argmax(SKEWED.degrees()))
        batch = PatternAwareEngine(SKEWED, plan, batch_frontier=True)
        ref = recursive(plan)
        for index in range(3):
            batch.run_task(hub, chunk=(index, 3))
            ref.run_task(hub, chunk=(index, 3))
            assert batch.counts == ref.counts
            assert batch.counters == ref.counters
        whole = recursive(plan)
        whole.run_task(hub)
        assert batch.counts == whole.counts  # chunks tile the task


class TestRootSets:
    @pytest.mark.parametrize("name", list(PLANS))
    def test_root_sets_accumulate_like_the_task_loop(self, name):
        plan = PLANS[name]()
        walker, ref = PatternAwareEngine(SKEWED, plan), recursive(plan)
        for roots in ([40, 3, 17], range(20, 30), []):
            walker.run_roots(roots)
            for root in roots:
                ref.run_task(root)
            assert walker.counts == ref.counts
            assert walker.counters == ref.counters
        ref.run_roots([5, 6])  # recursion takes the same entry
        walker.run_roots([5, 6])
        assert walker.counts == ref.counts
        assert walker.counters == ref.counters

    def test_root_set_refuses_a_task_chunk(self):
        # _frontier_child slices depth 1 by the chunk, which would
        # silently cut a multi-root frontier in the wrong place.
        engine = PatternAwareEngine(SKEWED, PLANS["4-cycle"]())
        engine._chunk = (0, 2)
        with pytest.raises(ValueError, match="chunk"):
            engine.run_roots([0, 1, 2])
        assert engine.counters.tasks == 0


def plan_nodes(plan) -> int:
    return plan.node_count() if hasattr(plan, "root") else plan.num_levels


class TestCutBands:
    @given(
        st.lists(st.integers(0, 50), max_size=60),
        st.integers(1, 120),
    )
    @settings(max_examples=200, deadline=None)
    def test_bands_tile_rows_under_target(self, estimates, target):
        est = np.asarray(estimates, dtype=np.int64)
        bands = explore._cut_bands(est, target)
        # contiguous slices, in order, covering every row exactly once
        rows = [r for lo, hi in bands for r in range(lo, hi)]
        assert rows == list(range(len(est)))
        for lo, hi in bands:
            assert hi > lo
            assert hi - lo == 1 or est[lo:hi].sum() <= target


class TestBoundedMemory:
    #: numpy bytes the banded 4-CL walk may hold at once on rmat(10, 16);
    #: the banded walk peaks near 1.3 MB, one unbanded level near 9 MB.
    BUDGET = 4 << 20

    def peak(self):
        graph = rmat(10, 16, seed=1)
        engine = PatternAwareEngine(
            graph, compile_pattern(k_clique(4)), batch_frontier=True
        )
        tracemalloc.start()
        try:
            engine.run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_banded_walk_stays_under_budget(self, monkeypatch):
        assert self.peak() < self.BUDGET
        monkeypatch.setattr(explore, "_FRONTIER_BAND_ELEMS", 2 ** 30)
        assert self.peak() > self.BUDGET  # the budget is a real bound


LABELED = assign_random_labels(SKEWED, 2, seed=3)

#: name -> (graph, plan factory, engine options)
ARC_CASES = {
    "TC": (SKEWED, PLANS["TC"], {}),
    "4-CL": (SKEWED, PLANS["4-CL"], {}),
    "diamond-memo": (SKEWED, PLANS["diamond"], {}),
    "4-cycle": (SKEWED, PLANS["4-cycle"], {}),
    "tailed-triangle": (
        SKEWED, lambda: compile_pattern(tailed_triangle()), {},
    ),
    "labeled": (
        LABELED,
        lambda: compile_pattern(
            Pattern(4, [(0, 1), (1, 2), (2, 3), (3, 0)], labels=[0, 1, 0, 1])
        ),
        {},
    ),
    "3-MC": (SKEWED, PLANS["3-MC"], {}),
    "4-MC": (SKEWED, PLANS["4-MC"], {}),
    "collect": (SKEWED, PLANS["diamond"], {"collect": True}),
    "nomemo": (SKEWED, PLANS["4-CL"], {"use_frontier_memo": False}),
}


class TestArcMapAndKeyedPaths:
    """The arc map answers set operations by lookup; past its size cap
    (patched to 0 here: every graph is "too large") the walker gathers
    and binary-searches.  One charge stream, two ways of doing the host
    work — both held to recursion."""

    @pytest.mark.parametrize("name", list(ARC_CASES))
    def test_same_results_less_gathering(self, monkeypatch, name):
        graph, make_plan, options = ARC_CASES[name]
        plan = make_plan()
        ref = PatternAwareEngine(
            graph, plan, batch_frontier=False, **options
        ).run()
        mapped = PatternAwareEngine(graph, plan, **options)
        mapped_result = mapped.run()
        monkeypatch.setattr(csr, "ARC_MAP_MAX_BYTES", 0)
        keyed = PatternAwareEngine(graph, plan, **options)
        keyed_result = keyed.run()
        for got in (mapped_result, keyed_result):
            assert got.counts == ref.counts
            assert got.counters.as_dict() == ref.counters.as_dict()
        if options.get("collect"):
            # same band order, not just the same set
            assert mapped_result.embeddings == keyed_result.embeddings
            assert sorted(mapped_result.embeddings) == sorted(ref.embeddings)
        with_map, without = mapped.frontier_stats(), keyed.frontier_stats()
        for key in ("rows_expanded", "bands", "peak_width", "fallbacks"):
            assert with_map[key] == without[key]
        assert with_map["arc_probes"] > 0 and without["arc_probes"] == 0
        assert with_map["elems_gathered"] < without["elems_gathered"]

    @pytest.mark.parametrize("name", ["4-cycle", "diamond"])
    def test_chunked_tasks(self, monkeypatch, name):
        plan = PLANS[name]()
        hub = int(np.argmax(SKEWED.degrees()))
        mapped, ref = PatternAwareEngine(SKEWED, plan), recursive(plan)
        for index in range(3):
            mapped.run_task(hub, chunk=(index, 3))
            ref.run_task(hub, chunk=(index, 3))
        monkeypatch.setattr(csr, "ARC_MAP_MAX_BYTES", 0)
        keyed = PatternAwareEngine(SKEWED, plan)
        for index in range(3):
            keyed.run_task(hub, chunk=(index, 3))
        for engine in (mapped, keyed):
            assert engine.counts == ref.counts
            assert engine.counters == ref.counters
        assert mapped.frontier_stats()["arc_probes"] > 0
        assert keyed.frontier_stats()["arc_probes"] == 0

    def test_graph_past_the_cap_falls_back_unpatched(self):
        # 4100**2 > 1 << 24: no map, no patching — the rule real inputs
        # meet.  Sparse enough that both engines finish in milliseconds.
        graph = erdos_renyi(4100, 4 / 4100, seed=9)
        assert graph.arc_map() is None
        for name in ("TC", "4-cycle"):
            plan = PLANS[name]()
            engine = PatternAwareEngine(graph, plan)
            ref = PatternAwareEngine(graph, plan, batch_frontier=False)
            assert_same(engine.run(), ref.run())
            stats = engine.frontier_stats()
            assert stats["arc_probes"] == 0 and stats["elems_gathered"] > 0

    def test_threads_race_the_lazy_build(self):
        # The service's threads=2 executor can mine one fresh graph from
        # several threads at once; whichever map each sees is complete.
        graph = rmat(8, 8, seed=4)
        plan = PLANS["4-CL"]()
        ref = PatternAwareEngine(graph, plan, batch_frontier=False).run()
        workers = 4  # more than the host's cores
        barrier = threading.Barrier(workers, timeout=30)
        results = [None] * workers

        def mine(slot):
            engine = PatternAwareEngine(graph, plan)
            barrier.wait()
            results[slot] = engine.run()

        threads = [
            threading.Thread(target=mine, args=(slot,), daemon=True)
            for slot in range(workers)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for got in results:
            assert_same(got, ref)
        dag_map = orient_by_degree(graph).arc_map()
        assert not dag_map.flags.writeable
        assert int(dag_map.sum()) == graph.num_edges


class TestPoolStream:
    def test_pool_2_batch_motif_request_twice(self):
        # The backend mines the same plan twice through one resident
        # pool and raises on any drift between the two answers.
        case = VerifyCase(graph=SKEWED, motif_k=3)
        plan = case.compile()
        counts, counters = BACKENDS["pool-2-batch"](case, plan)
        ref = recursive(plan).run()
        assert tuple(counts) == ref.counts
        assert counters.as_dict() == ref.counters.as_dict()
