"""Tests for the CSR graph representation."""

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph import CSRGraph


def square():
    return CSRGraph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])


class TestConstruction:
    def test_from_edges_basic(self):
        g = square()
        assert g.num_vertices == 4
        assert g.num_edges == 4
        assert g.num_directed_edges == 8

    def test_neighbor_lists_sorted(self):
        g = CSRGraph.from_edges([(0, 3), (0, 1), (0, 2)])
        assert g.neighbors(0).tolist() == [1, 2, 3]

    def test_duplicate_edges_dropped(self):
        g = CSRGraph.from_edges([(0, 1), (1, 0), (0, 1)])
        assert g.num_edges == 1

    def test_self_loops_dropped(self):
        g = CSRGraph.from_edges([(0, 0), (0, 1)])
        assert g.num_edges == 1
        assert not g.has_edge(0, 0)

    def test_empty_graph(self):
        g = CSRGraph.from_edges([], num_vertices=5)
        assert g.num_vertices == 5
        assert g.num_edges == 0
        assert g.degree(3) == 0

    def test_isolated_vertices_preserved(self):
        g = CSRGraph.from_edges([(0, 1)], num_vertices=10)
        assert g.num_vertices == 10
        assert g.degree(9) == 0

    def test_negative_vertex_rejected(self):
        with pytest.raises(GraphFormatError):
            CSRGraph.from_edges([(-1, 2)])

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphFormatError):
            CSRGraph.from_edges([(0, 5)], num_vertices=3)

    def test_bad_edge_shape_rejected(self):
        with pytest.raises(GraphFormatError):
            CSRGraph.from_edges([(0, 1, 2)])

    def test_from_adjacency(self):
        g = CSRGraph.from_adjacency([[1, 2], [0], [0]])
        assert g.num_edges == 2
        assert g.has_edge(0, 2) and g.has_edge(2, 0)

    def test_directed_from_edges(self):
        g = CSRGraph.from_edges([(0, 1), (1, 2)], directed=True)
        assert g.num_edges == 2
        assert g.neighbors(1).tolist() == [2]
        assert g.degree(2) == 0


class TestValidation:
    def test_unsorted_rows_rejected(self):
        indptr = np.array([0, 2, 3, 4])
        indices = np.array([2, 1, 0, 0])
        with pytest.raises(GraphFormatError, match="vertex 0 is not strictly"):
            CSRGraph(indptr, indices, directed=True)

    def test_asymmetric_undirected_rejected(self):
        indptr = np.array([0, 1, 1])
        indices = np.array([1])
        with pytest.raises(GraphFormatError, match=r"edge \(0, 1\) has no"):
            CSRGraph(indptr, indices, directed=False)

    def test_bad_indptr_rejected(self):
        with pytest.raises(GraphFormatError, match="start at 0"):
            CSRGraph(np.array([1, 2]), np.array([0]), directed=True)

    def test_self_loop_in_csr_rejected(self):
        indptr = np.array([0, 1])
        indices = np.array([0])
        with pytest.raises(GraphFormatError, match="self loop at vertex 0"):
            CSRGraph(indptr, indices, directed=True)

    def test_errors_name_the_first_offender(self):
        # rows: 0 -> [1], 1 -> [0, 2], 2 -> [2], 3 -> [1, 1]
        indptr = np.array([0, 1, 3, 4, 6])
        indices = np.array([1, 0, 2, 2, 1, 1])
        with pytest.raises(GraphFormatError, match="self loop at vertex 2"):
            CSRGraph(indptr, indices, directed=True)
        # a repeat and a self loop in one row: sortedness is checked first
        with pytest.raises(GraphFormatError, match="vertex 1 is not strictly"):
            CSRGraph(np.array([0, 0, 3]), np.array([0, 1, 1]), directed=True)
        # 0-1 and 2-3 are symmetric, 1->3 and 3->0 are not: the first
        # lonely arc in (u, v) order is (1, 3)
        indptr = np.array([0, 1, 3, 4, 6])
        indices = np.array([1, 0, 3, 3, 0, 2])
        with pytest.raises(GraphFormatError, match=r"edge \(1, 3\) has no"):
            CSRGraph(indptr, indices, directed=False)

    def test_valid_graphs_pass(self):
        g = CSRGraph.from_edges([(0, 1), (1, 2), (2, 0), (2, 3)])
        CSRGraph(g.indptr, g.indices)
        dag = CSRGraph.from_edges([(0, 1), (1, 2)], directed=True)
        CSRGraph(dag.indptr, dag.indices, directed=True)
        CSRGraph(np.zeros(4, dtype=np.int64), np.empty(0, dtype=np.int32))


class TestAccessors:
    def test_degrees(self):
        g = CSRGraph.from_edges([(0, 1), (0, 2), (0, 3)])
        assert g.degrees().tolist() == [3, 1, 1, 1]
        assert g.max_degree() == 3
        assert g.avg_degree() == pytest.approx(1.5)

    def test_has_edge(self):
        g = square()
        assert g.has_edge(0, 1)
        assert g.has_edge(1, 0)
        assert not g.has_edge(0, 2)

    def test_edges_iteration_unique(self):
        g = square()
        edges = list(g.edges())
        assert len(edges) == 4
        assert all(u < v for u, v in edges)

    def test_neighbor_view_is_read_only(self):
        g = square()
        view = g.neighbors(0)
        with pytest.raises(ValueError):
            view[0] = 99

    def test_equality(self):
        assert square() == square()
        assert square() != CSRGraph.from_edges([(0, 1)])

    def test_repr_mentions_shape(self):
        text = repr(square())
        assert "|V|=4" in text and "|E|=4" in text


class TestDegreesCachingAndEdgeCases:
    def test_degrees_cached_same_object(self):
        g = square()
        first = g.degrees()
        assert g.degrees() is first  # computed once, then cached

    def test_degrees_read_only(self):
        g = square()
        with pytest.raises(ValueError):
            g.degrees()[0] = 99

    def test_degrees_empty_graph(self):
        g = CSRGraph.from_edges([], num_vertices=0)
        assert g.degrees().tolist() == []
        assert g.max_degree() == 0
        assert g.avg_degree() == 0.0

    def test_degrees_single_vertex(self):
        g = CSRGraph.from_edges([], num_vertices=1)
        assert g.degrees().tolist() == [0]
        assert g.degrees() is g.degrees()

    def test_degrees_with_isolated_vertices(self):
        g = CSRGraph.from_edges([(0, 1), (1, 2)], num_vertices=6)
        assert g.degrees().tolist() == [1, 2, 1, 0, 0, 0]

    def test_degrees_after_duplicate_edge_input(self):
        g = CSRGraph.from_edges([(0, 1), (1, 0), (0, 1), (1, 2)])
        assert g.degrees().tolist() == [1, 2, 1]

    def test_orientation_empty_graph(self):
        from repro.graph import orient_by_degree

        g = CSRGraph.from_edges([], num_vertices=0)
        dag = orient_by_degree(g)
        assert dag.num_vertices == 0
        assert dag.num_directed_edges == 0

    def test_orientation_single_vertex(self):
        from repro.graph import orient_by_degree

        g = CSRGraph.from_edges([], num_vertices=1)
        dag = orient_by_degree(g)
        assert dag.num_vertices == 1
        assert dag.degree(0) == 0

    def test_orientation_preserves_isolated_vertices(self):
        from repro.graph import orient_by_degree

        g = CSRGraph.from_edges([(0, 1), (1, 2), (0, 2)], num_vertices=7)
        dag = orient_by_degree(g)
        assert dag.num_vertices == 7
        assert dag.num_directed_edges == g.num_edges
        assert all(dag.degree(v) == 0 for v in range(3, 7))

    def test_orientation_after_duplicate_edge_input(self):
        from repro.graph import orient_by_degree

        g = CSRGraph.from_edges(
            [(0, 1), (1, 0), (0, 1), (1, 2), (2, 1), (0, 2)]
        )
        dag = orient_by_degree(g)
        # Dedup first: 3 undirected edges become exactly 3 arcs.
        assert dag.num_directed_edges == 3
        # Each undirected edge appears as exactly one arc.
        arcs = {
            (u, int(w)) for u in dag.vertices() for w in dag.neighbors(u)
        }
        assert len(arcs) == 3
        assert all((v, u) not in arcs for u, v in arcs)


def dense_arcs(graph) -> np.ndarray:
    """The ``(n, n)`` adjacency matrix ``neighbors()`` spells out."""
    n = graph.num_vertices
    dense = np.zeros((n, n), dtype=bool)
    for u in range(n):
        dense[u, graph.neighbors(u)] = True
    return dense


class TestArcMap:
    def test_empty_and_single_vertex(self):
        assert CSRGraph.from_edges([], num_vertices=0).arc_map().shape == (0,)
        assert CSRGraph.from_edges([], num_vertices=1).arc_map().tolist() == [
            False
        ]

    def test_symmetric_graph(self):
        g = CSRGraph.from_edges(
            [(0, 1), (1, 2), (0, 2), (2, 3)], num_vertices=6
        )
        arcs = g.arc_map()
        assert arcs.dtype == np.bool_ and arcs.shape == (36,)
        assert np.array_equal(arcs.reshape(6, 6), dense_arcs(g))
        assert np.array_equal(arcs.reshape(6, 6), arcs.reshape(6, 6).T)
        assert int(arcs.sum()) == g.num_directed_edges

    def test_dag_map_is_asymmetric(self):
        from repro.graph import orient_by_degree, rmat

        g = rmat(6, 6, seed=3)
        dag = orient_by_degree(g)
        n = dag.num_vertices
        arcs = dag.arc_map()
        assert np.array_equal(arcs.reshape(n, n), dense_arcs(dag))
        for u, v in dag.edges():
            assert arcs[u * n + v] and not arcs[v * n + u]
        assert dag.arc_map() is not g.arc_map()  # one map per work graph

    def test_read_only_and_cached(self):
        g = square()
        arcs = g.arc_map()
        assert g.arc_map() is arcs  # built once, then cached
        with pytest.raises(ValueError):
            arcs[0] = True

    def test_labeled_graph_delegates(self):
        from repro.graph import LabeledGraph

        g = square()
        labeled = LabeledGraph(g, np.array([0, 1, 0, 1]))
        assert labeled.arc_map() is g.arc_map()

    def test_attached_graph_builds_its_own(self):
        from repro.graph import (
            SharedCSRBuffers, attach_shared_csr, orient_by_degree,
        )

        g = CSRGraph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
        with SharedCSRBuffers(g) as shared:
            shared.share_oriented()
            attached = attach_shared_csr(shared.spec)
            assert np.array_equal(attached.arc_map(), g.arc_map())
            assert np.array_equal(
                orient_by_degree(attached).arc_map(),
                orient_by_degree(g).arc_map(),
            )
            assert attached.arc_map() is not g.arc_map()
            del attached  # drop the mappings before the segments go

    def test_size_cap_is_the_only_selector(self, monkeypatch):
        from repro.graph import csr

        g = square()  # n * n == 16
        monkeypatch.setattr(csr, "ARC_MAP_MAX_BYTES", 15)
        assert g.arc_map() is None  # n * n == cap + 1
        assert g._arc_map is None  # nothing was allocated
        monkeypatch.setattr(csr, "ARC_MAP_MAX_BYTES", 16)
        assert g.arc_map() is not None  # n * n == cap
        monkeypatch.setattr(csr, "ARC_MAP_MAX_BYTES", 0)
        assert g.arc_map() is None  # the cap rules even over a built map
        assert CSRGraph.from_edges([], num_vertices=0).arc_map() is not None

    def test_default_cap_admits_4096_vertices(self):
        from repro.graph import csr

        assert csr.ARC_MAP_MAX_BYTES == 4096 * 4096


class TestNetworkxInterop:
    def test_round_trip(self):
        g = square()
        back = CSRGraph.from_networkx(g.to_networkx())
        assert back == g

    def test_triangle_count_agrees(self):
        import networkx as nx

        g = CSRGraph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
        assert sum(nx.triangles(g.to_networkx()).values()) // 3 == 1


class TestSharedArrays:
    def test_share_attach_round_trip(self):
        from repro.graph import attach_array, share_array

        arr = np.arange(7, dtype=np.int64)
        shm, spec = share_array(arr)
        try:
            view, handle = attach_array(spec)
            assert np.array_equal(view, arr)
            handle.close()
        finally:
            shm.close()
            shm.unlink()

    def test_share_array_reaps_segment_when_copy_fails(self, monkeypatch):
        # Regression (FM301): if the copy into the fresh segment raises,
        # the caller never saw the handle — share_array must close AND
        # unlink before re-raising, or the segment outlives the process.
        from multiprocessing import shared_memory

        from repro.graph import share_array

        arr = np.arange(5, dtype=np.int64)
        created = []
        real_shm = shared_memory.SharedMemory

        class Recording(real_shm):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                created.append(self.name)

        def boom(*args, **kwargs):
            raise RuntimeError("view boom")

        monkeypatch.setattr(shared_memory, "SharedMemory", Recording)
        monkeypatch.setattr(np, "ndarray", boom)
        try:
            with pytest.raises(RuntimeError, match="view boom"):
                share_array(arr)
        finally:
            monkeypatch.undo()
        assert len(created) == 1
        with pytest.raises(FileNotFoundError):
            real_shm(name=created[0])

    @pytest.mark.parametrize("runner", ["pool", "sim"])
    def test_failed_export_leaves_no_segment_behind(self, monkeypatch, runner):
        # A runner exports the topology's indptr and indices, the labels
        # and — for an oriented plan — the DAG's indptr and indices.
        # Whichever of the five creations fails (ENOSPC on /dev/shm),
        # the error must propagate with every segment created so far
        # reaped and no worker left, and a clean retry must be
        # bit-identical to serial.  The fault goes in at share_array,
        # the one place every export passes through.
        import itertools
        import multiprocessing
        import os

        from repro.compiler import compile_pattern
        from repro.engine import MinerPool, PatternAwareEngine
        from repro.graph import assign_degree_labels, csr, power_law_cluster
        from repro.hw import FlexMinerConfig, simulate, simulate_parallel
        from repro.patterns import k_clique

        graph = assign_degree_labels(power_law_cluster(60, 3, 0.4, seed=3))
        plan = compile_pattern(k_clique(4))
        config = FlexMinerConfig(num_pes=4)
        if runner == "pool":
            result = PatternAwareEngine(graph, plan).run()
            serial = (result.counts, result.counters)

            def run():
                with MinerPool(graph, workers=2) as pool:
                    result = pool.mine(plan)
                return result.counts, result.counters
        else:
            serial = simulate(graph, plan, config).as_dict()

            def run():
                return simulate_parallel(
                    graph, plan, config, workers=2
                ).as_dict()

        real = csr.share_array
        for fail_at in range(1, 6):
            calls = itertools.count(1)
            created = []

            def failing(arr):
                if next(calls) == fail_at:
                    raise OSError(28, "No space left on device")
                shm, spec = real(arr)
                created.append(spec["shm"])
                return shm, spec

            monkeypatch.setattr(csr, "share_array", failing)
            with pytest.raises(OSError, match="No space left"):
                run()
            assert len(created) == fail_at - 1
            # by name, not by whole-directory listing: other test
            # processes share /dev/shm
            assert not set(created) & set(os.listdir("/dev/shm"))
            assert not multiprocessing.active_children()
        monkeypatch.setattr(csr, "share_array", real)
        assert run() == serial
        assert not multiprocessing.active_children()
