"""Packed adjacency rows: ``CSRGraph.arc_rows()`` holds each row of the
arc map 64 vertices to a word, so an intersection whose size is all
that is wanted is an AND and a popcount.  The walker's oriented clique
leaves and the k-MC codegree pass read them where
``kernels.packed_rows_win`` says the words cost less than the ids the
gather path moves.  Counts, ``OpCounters`` and the per-depth tally must
equal the reference recursion's on either side of that choice."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.compiler import compile_pattern
from repro.engine import kernels, motifs
from repro.engine.explore import PatternAwareEngine
from repro.engine.reference import ReferenceEngine
from repro.graph import (
    CSRGraph,
    LabeledGraph,
    SharedCSRBuffers,
    attach_shared_csr,
    erdos_renyi,
    orient_by_degree,
    power_law_cluster,
    rmat,
)
from repro.graph import csr
from repro.patterns import k_clique

#: n at and around the 64-vertex word edges.
WORD_EDGES = [0, 1, 63, 64, 65, 127, 128, 129]


def _unpacked(g):
    """``arc_rows()`` expanded back to one bool per ordered pair."""
    n, rows = g.num_vertices, g.arc_rows()
    bits = np.unpackbits(
        rows.astype("<u8").view(np.uint8).reshape(n, 8 * rows.shape[1]),
        axis=1, bitorder="little",
    )
    return bits[:, :n].astype(bool)


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


def _codegrees(graph):
    """|N(u) ∩ N(v)| of every edge u < v, from the dense arc map."""
    n = graph.num_vertices
    dense = graph.arc_map().reshape(n, n).astype(np.int64)
    u, v = np.nonzero(np.triu(dense, 1))
    return (dense @ dense)[u, v]


class TestPackedWalk:
    @pytest.mark.parametrize("k", [3, 4, 5])
    @pytest.mark.parametrize("memo", [True, False])
    @settings(max_examples=12, deadline=None)
    @example(  # every leaf row packed, at and past a word edge
        n=65, p=0.3, seed=1, oriented=True, capped=False,
        row_limit=1 << 22, word_cost=0.0,
    )
    @example(
        n=129, p=0.15, seed=2, oriented=True, capped=False, row_limit=1,
        word_cost=0.0,
    )
    @given(
        n=st.sampled_from(WORD_EDGES),
        p=st.sampled_from([0.05, 0.15, 0.3]),
        seed=st.integers(min_value=0, max_value=10_000),
        oriented=st.booleans(),
        capped=st.booleans(),
        row_limit=st.sampled_from([1, 1 << 22]),
        word_cost=st.sampled_from([0.0, kernels.PACKED_WORD_ELEMS, np.inf]),
    )
    def test_walker_equals_the_reference(
        self, k, memo, n, p, seed, oriented, capped, row_limit, word_cost
    ):
        # oriented: the clique leaves walk the DAG and may be packed;
        # unoriented: the undirected walk's leaves carry bounds and are
        # never packed.  word_cost 0 / inf forces either side.
        graph = erdos_renyi(n, p, seed=seed)
        plan = compile_pattern(k_clique(k), use_orientation=oriented)
        counts, counters, levels = _reference(graph, plan, memo)
        cap = 0 if capped else csr.ARC_MAP_MAX_BYTES
        with mock.patch.object(csr, "ARC_MAP_MAX_BYTES", cap), \
                mock.patch.object(kernels, "PACKED_WORD_ELEMS", word_cost):
            engine = PatternAwareEngine(
                graph, plan, use_frontier_memo=memo,
                frontier_row_limit=row_limit,
            )
            result = engine.run()
            assert result.counts == counts
            assert result.counters.as_dict() == counters
            assert engine.level_stats() == levels
            codegrees = motifs._degrees(graph).c
        assert np.array_equal(codegrees, _codegrees(graph))

    def test_packed_leaf_gathers_and_probes_nothing(self):
        # Oriented TC: depth 1 gathers every DAG list once; the packed
        # leaf gathers and probes nothing.
        graph = rmat(7, 8, seed=2)
        with mock.patch.object(kernels, "PACKED_WORD_ELEMS", 0.0):
            engine = PatternAwareEngine(graph, compile_pattern(k_clique(3)))
            engine.run()
        stats = engine.frontier_stats()
        assert stats["arc_probes"] == 0
        assert stats["elems_gathered"] == orient_by_degree(
            graph
        ).num_directed_edges


def _walk_stats(graph, k, word_cost=None):
    plan = compile_pattern(k_clique(k))
    with mock.patch.object(
        kernels, "PACKED_WORD_ELEMS",
        kernels.PACKED_WORD_ELEMS if word_cost is None else word_cost,
    ):
        engine = PatternAwareEngine(graph, plan)
        engine.run()
    return engine.frontier_stats()


class TestTheRule:
    """One graph on each side of ``kernels.packed_rows_win``: the dense
    skewed clique graph packs every leaf row and codegree, the sparse
    4000-vertex graphs (64-word rows, about 1.5 ids per DAG row) keep
    the gather path."""

    DENSE = rmat(10, 48, seed=101)
    SPARSE = erdos_renyi(4000, 3 / 4000, seed=0)

    def test_rule_compares_words_with_elements(self):
        assert kernels.packed_rows_win(10, 10)
        assert not kernels.packed_rows_win(1000, 10)
        assert not kernels.packed_rows_win(10, 0)

    @pytest.mark.parametrize("k", [3, 4])
    def test_dense_graph_packs_every_leaf_row(self, k):
        # Forcing packed everywhere leaves the same traffic, and less
        # of it than gathering every leaf.
        chosen = _walk_stats(self.DENSE, k)
        assert chosen == _walk_stats(self.DENSE, k, word_cost=0.0)
        gathered = _walk_stats(self.DENSE, k, word_cost=np.inf)
        assert chosen["arc_probes"] < gathered["arc_probes"]
        assert chosen["elems_gathered"] < gathered["elems_gathered"]

    @pytest.mark.parametrize("graph", ["sparse", "rmat(12,16)"])
    def test_sparse_rows_keep_the_gather_path(self, graph):
        g = self.SPARSE if graph == "sparse" else rmat(12, 16, seed=0)
        for k in (3, 4) if graph == "sparse" else (4, 5):
            assert _walk_stats(g, k) == _walk_stats(g, k, word_cost=np.inf)

    def test_codegree_choice(self):
        for graph, packed in (
            (self.DENSE, True),
            (power_law_cluster(512, 8, 0.5, seed=301), True),
            (self.SPARSE, False),
            (power_law_cluster(4000, 4, 0.5, seed=0), False),
        ):
            fresh = CSRGraph(graph.indptr, graph.indices, validate=False)
            motifs._degrees(fresh)
            # the rows are built only when the rule picks them
            assert (fresh._arc_rows is not None) == packed


def _assert_arc_rows(g):
    n = g.num_vertices
    rows = g.arc_rows()
    assert rows.dtype == np.uint64
    assert rows.shape == (n, -(-n // 64))
    assert np.array_equal(_unpacked(g).reshape(-1), g.arc_map())
    # the padding bits past n are zero
    if n % 64:
        assert not np.any(rows[:, -1] >> np.uint64(n % 64))
    assert not rows.flags.writeable
    with pytest.raises(ValueError):
        rows[:1] = 0
    assert g.arc_rows() is rows


class TestArcRows:
    def test_bit_order_is_little_endian(self):
        g = CSRGraph.from_edges([(0, 1), (0, 63), (0, 64), (1, 129)])
        rows = g.arc_rows()
        assert rows.shape == (130, 3)
        assert rows[0].tolist() == [(1 << 1) | (1 << 63), 1, 0]
        assert rows[1].tolist() == [1, 0, 1 << 1]
        assert rows[64].tolist() == [1, 0, 0]

    @pytest.mark.parametrize("n", WORD_EDGES)
    def test_word_edges(self, n):
        _assert_arc_rows(erdos_renyi(n, 0.2, seed=n))

    def test_asymmetric_dag(self):
        g = rmat(7, 6, seed=4)
        dag = orient_by_degree(g)
        _assert_arc_rows(dag)
        dense = _unpacked(dag)
        assert not np.any(dense & dense.T)  # each edge kept one way
        assert np.array_equal(dense | dense.T, _unpacked(g))

    def test_none_past_the_cap(self, monkeypatch):
        g = erdos_renyi(65, 0.1, seed=1)
        monkeypatch.setattr(csr, "ARC_MAP_MAX_BYTES", 65 * 65 - 1)
        assert g.arc_rows() is None
        assert g._arc_rows is None  # nothing was allocated
        monkeypatch.setattr(csr, "ARC_MAP_MAX_BYTES", 65 * 65)
        assert g.arc_rows() is not None

    def test_labeled_graph_delegates(self):
        g = rmat(5, 4, seed=1)
        labeled = LabeledGraph(g, np.zeros(g.num_vertices, dtype=np.int32))
        assert labeled.arc_rows() is g.arc_rows()

    def test_attached_graph_builds_its_own(self):
        g = rmat(7, 6, seed=3)
        with SharedCSRBuffers(g) as shared:
            shared.share_oriented()
            attached = attach_shared_csr(shared.spec)
            _assert_arc_rows(attached)
            _assert_arc_rows(orient_by_degree(attached))
            assert np.array_equal(attached.arc_rows(), g.arc_rows())
            assert attached.arc_rows() is not g.arc_rows()
            del attached  # drop the mappings before the segments go
