"""The walker's ranked steps: a step that reads one adjacency list and
runs no set operation on it is answered by binary search over
``CSRGraph.arc_keys()`` — a count-only leaf gathers nothing, an interior
step gathers only each row's prefix below its bound.  Counts,
``OpCounters`` and the per-depth tally must equal the reference
recursion's on every option the walker takes."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import compile_pattern
from repro.engine.explore import PatternAwareEngine
from repro.engine.reference import ReferenceEngine
from repro.graph import (
    CSRGraph,
    LabeledGraph,
    SharedCSRBuffers,
    attach_shared_csr,
    erdos_renyi,
    orient_by_degree,
    rmat,
)
from repro.graph import csr
from repro.patterns import Pattern, from_name

#: Every pattern with a ranked step, and a labeled wedge (its leaf
#: carries a label filter, so it is gathered as a bound prefix).
PATTERNS = {
    name: compile_pattern(from_name(name))
    for name in (
        "wedge", "3-star", "4-path", "tailed-triangle", "4-cycle", "diamond",
    )
}
PATTERNS["labeled-wedge"] = compile_pattern(
    Pattern(3, [(0, 1), (1, 2)], labels=[1, 0, 1], name="labeled-wedge")
)


def _graph(kind, size, seed):
    """Small ER graphs (sparse enough to leave degree-0 vertices) and
    rmat graphs, labeled 0/1 by vertex id parity."""
    if kind == "er":
        g = erdos_renyi(4 + 6 * size, 0.15, seed=seed)
    else:
        g = rmat(2 + size, 3, seed=seed)
    return LabeledGraph(g, np.arange(g.num_vertices) % 2)


def _reference(graph, plan, memo):
    """Counts, counters and per-depth ``(kept, checked)`` of the
    reference recursion, one embedding at a time."""
    levels = [[0, 0] for _ in range(plan.num_levels)]

    class Probe(ReferenceEngine):
        def _filtered_candidates(self, step, emb):
            cands = super()._filtered_candidates(step, emb)
            levels[step.depth][0] += len(cands)
            levels[step.depth][1] += len(self._raw_stack[step.depth])
            return cands

    result = Probe(graph, plan, use_frontier_memo=memo).run()
    return result.counts, result.counters.as_dict(), [
        tuple(lv) for lv in levels
    ]


class TestRankedSteps:
    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["er", "rmat"]),
        size=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=10_000),
        name=st.sampled_from(sorted(PATTERNS)),
        memo=st.booleans(),
        capped=st.booleans(),
        row_limit=st.sampled_from([1, 1 << 22]),
    )
    def test_walker_equals_the_reference(
        self, kind, size, seed, name, memo, capped, row_limit
    ):
        graph, plan = _graph(kind, size, seed), PATTERNS[name]
        counts, counters, levels = _reference(graph, plan, memo)
        cap = 0 if capped else csr.ARC_MAP_MAX_BYTES
        with mock.patch.object(csr, "ARC_MAP_MAX_BYTES", cap):
            runs = []
            for collect in (False, True):
                engine = PatternAwareEngine(
                    graph, plan, collect=collect, use_frontier_memo=memo,
                    frontier_row_limit=row_limit,
                )
                result = engine.run()
                assert result.counts == counts
                assert result.counters.as_dict() == counters
                assert engine.level_stats() == levels
                runs.append(engine.frontier_stats())
        assert len(result.embeddings) == sum(counts)
        assert len(set(result.embeddings)) == sum(counts)
        assert runs[0]["rows_expanded"] == runs[1]["rows_expanded"]


class TestRankedTraffic:
    """Exact host traffic of the ranked steps (``elems_gathered``)."""

    def test_count_only_leaf_gathers_nothing(self):
        # Wedge: depth 1 (unbounded) gathers every list once; the
        # ranked leaf gathers nothing.
        graph = rmat(6, 6, seed=3)
        engine = PatternAwareEngine(graph, PATTERNS["wedge"])
        engine.run()
        assert engine.frontier_stats()["elems_gathered"] == len(
            graph.indices
        )

    def test_bounded_step_gathers_its_prefix(self):
        # 3-star: depth 1 gathers every list; depth 2, bounded by v1,
        # gathers the prefix of N(v0) below v1 — v1's own position in
        # that list, so 0 + 1 + ... + (d - 1) per root; the leaf none.
        graph = rmat(6, 6, seed=3)
        engine = PatternAwareEngine(graph, PATTERNS["3-star"])
        engine.run()
        d = graph.degrees()
        assert engine.frontier_stats()["elems_gathered"] == len(
            graph.indices
        ) + int((d * (d - 1) // 2).sum())


def _assert_arc_keys(g):
    keys = g.arc_keys()
    n = g.num_vertices
    rows = np.repeat(np.arange(n, dtype=np.int64), g.degrees())
    assert keys.dtype == np.int64
    assert np.array_equal(keys, rows * n + g.indices)
    assert np.all(keys[1:] > keys[:-1])
    assert not keys.flags.writeable
    with pytest.raises(ValueError):
        keys[:1] = 0
    assert g.arc_keys() is keys


class TestArcKeys:
    def test_sorted_read_only_cached(self):
        g = rmat(6, 6, seed=5)
        _assert_arc_keys(g)
        # The rank query: entries of N(u) below b.
        u, b = int(np.argmax(g.degrees())), g.num_vertices // 2
        rank = g.arc_keys().searchsorted(u * g.num_vertices + b)
        assert rank - g.indptr[u] == np.count_nonzero(g.neighbors(u) < b)

    def test_dag_and_empty_graph(self):
        _assert_arc_keys(orient_by_degree(rmat(6, 6, seed=5)))
        _assert_arc_keys(CSRGraph.from_edges([], num_vertices=3))

    def test_labeled_graph_delegates(self):
        g = rmat(5, 4, seed=1)
        labeled = LabeledGraph(g, np.zeros(g.num_vertices, dtype=np.int32))
        assert labeled.arc_keys() is g.arc_keys()

    def test_attached_graph_builds_its_own(self):
        g = CSRGraph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
        with SharedCSRBuffers(g) as shared:
            shared.share_oriented()
            attached = attach_shared_csr(shared.spec)
            _assert_arc_keys(attached)
            _assert_arc_keys(orient_by_degree(attached))
            assert np.array_equal(attached.arc_keys(), g.arc_keys())
            assert attached.arc_keys() is not g.arc_keys()
            del attached  # drop the mappings before the segments go
