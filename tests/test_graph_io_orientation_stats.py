"""Tests for graph IO, orientation, datasets and statistics."""

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph import (
    CSRGraph,
    DATASET_NAMES,
    degree_histogram,
    erdos_renyi,
    graph_stats,
    load_dataset,
    load_edge_list,
    load_graph,
    load_mtx,
    orient_by_degree,
    orientation_rank,
    power_law_cluster,
    rmat,
    save_edge_list,
    suite_stats,
)


class TestIO:
    def test_edge_list_round_trip(self, tmp_path):
        g = rmat(7, 4.0, seed=4)
        path = tmp_path / "g.el"
        save_edge_list(g, path)
        back = load_edge_list(path)
        assert back.num_edges == g.num_edges
        assert np.array_equal(back.indices, g.indices)

    def test_edge_list_comments_and_blanks(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# comment\n\n0 1\n% other comment\n1 2\n")
        g = load_edge_list(path)
        assert g.num_edges == 2

    def test_edge_list_malformed_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0\n")
        with pytest.raises(GraphFormatError):
            load_edge_list(path)

    def test_edge_list_non_integer(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("a b\n")
        with pytest.raises(GraphFormatError):
            load_edge_list(path)

    def test_mtx(self, tmp_path):
        path = tmp_path / "g.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate pattern symmetric\n"
            "3 3 2\n1 2\n2 3\n"
        )
        g = load_mtx(path)
        assert g.num_vertices == 3
        assert g.has_edge(0, 1) and g.has_edge(1, 2)

    def test_load_graph_dispatch(self, tmp_path):
        el = tmp_path / "g.el"
        el.write_text("0 1\n")
        assert load_graph(el).num_edges == 1


class TestOrientation:
    def test_dag_has_each_edge_once(self):
        g = rmat(8, 6.0, seed=6)
        dag = g if False else orient_by_degree(g)
        assert dag.directed
        assert dag.num_directed_edges == g.num_edges

    def test_acyclic_by_rank(self):
        g = rmat(8, 6.0, seed=6)
        rank = orientation_rank(g)
        dag = orient_by_degree(g)
        for u in dag.vertices():
            for v in dag.neighbors(u):
                assert rank[u] < rank[int(v)]

    def test_rank_orders_by_degree_then_id(self):
        g = CSRGraph.from_edges([(0, 1), (0, 2), (0, 3), (1, 2)])
        rank = orientation_rank(g)
        # degrees: v0=3, v1=2, v2=2, v3=1 -> order v3, v1, v2, v0
        assert rank[3] < rank[1] < rank[2] < rank[0]

    def test_triangle_count_preserved_as_ordered_paths(self):
        # Each triangle appears exactly once as u->v, u->w, v->w in the DAG.
        import networkx as nx

        g = rmat(8, 8.0, seed=12)
        dag = orient_by_degree(g)
        count = 0
        for u in dag.vertices():
            nbrs = dag.neighbors(u)
            for v in nbrs:
                vn = dag.neighbors(int(v))
                count += len(np.intersect1d(nbrs, vn))
        expected = sum(nx.triangles(g.to_networkx()).values()) // 3
        assert count == expected


def orient_edge_by_edge(graph: CSRGraph) -> CSRGraph:
    """The construction ``orient_by_degree`` replaced: a Python pass
    over the edges and a ``from_edges`` re-sort."""
    rank = orientation_rank(graph)
    arcs = [(u, v) if rank[u] < rank[v] else (v, u) for u, v in graph.edges()]
    return CSRGraph.from_edges(
        arcs,
        num_vertices=graph.num_vertices,
        directed=True,
        name=graph.name + "-dag" if graph.name else "dag",
    )


def corpus_graphs():
    import os

    from repro.verify import load_corpus

    corpus = os.path.join(os.path.dirname(__file__), "corpus")
    for path, case in load_corpus(corpus):
        yield os.path.basename(path), getattr(case.graph, "graph", case.graph)


ORIENTATION_GRAPHS = dict(
    corpus_graphs(),
    rmat=rmat(8, 8.0, seed=12),
    erdos_renyi=erdos_renyi(200, 0.05, seed=3),
    power_law_cluster=power_law_cluster(150, 4, 0.5, seed=8),
    isolated=CSRGraph.from_edges([(0, 1), (1, 2), (0, 2)], num_vertices=7),
)


class TestVectorizedOrientation:
    @pytest.mark.parametrize("name", list(ORIENTATION_GRAPHS))
    def test_byte_identical_to_edge_by_edge_construction(self, name):
        graph = ORIENTATION_GRAPHS[name]
        got, want = orient_by_degree(graph), orient_edge_by_edge(graph)
        assert got.indptr.dtype == want.indptr.dtype
        assert got.indices.dtype == want.indices.dtype
        assert got.indptr.tobytes() == want.indptr.tobytes()
        assert got.indices.tobytes() == want.indices.tobytes()
        assert (got.name, got.directed) == (want.name, True)
        assert not got.indices.flags.writeable


class TestStatsAndDatasets:
    def test_degree_histogram_sums_to_n(self):
        g = rmat(8, 6.0, seed=8)
        hist = degree_histogram(g)
        assert hist.sum() == g.num_vertices

    def test_graph_stats_row(self):
        g = CSRGraph.from_edges([(0, 1), (1, 2)], name="tiny")
        row = graph_stats(g).as_row()
        assert row[0] == "tiny" and row[1] == 3 and row[2] == 2

    def test_all_datasets_load_and_cache(self):
        for name in DATASET_NAMES:
            g1 = load_dataset(name)
            g2 = load_dataset(name)
            assert g1 is g2  # cached
            assert g1.num_edges > 0

    def test_unknown_dataset(self):
        with pytest.raises(KeyError):
            load_dataset("nope")

    def test_suite_shape_matches_paper(self):
        stats = {s.name: s for s in suite_stats()}
        # Mi is the densest (paper §VII-C); As is the smallest.
        densest = max(stats.values(), key=lambda s: s.avg_degree / 1.0)
        assert densest.name in ("Mi", "Or")
        assert stats["Mi"].avg_degree == max(
            stats[n].avg_degree for n in ("As", "Mi", "Pa", "Yo", "Lj")
        )
        smallest = min(stats.values(), key=lambda s: s.num_vertices)
        assert smallest.name == "As"
        # Pa and Yo are larger and sparser than Mi.
        assert stats["Pa"].num_vertices > stats["Mi"].num_vertices
        assert stats["Pa"].avg_degree < stats["Mi"].avg_degree
