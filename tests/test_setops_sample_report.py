"""Tests for counted set operations, graph sampling, and SimReport."""

import numpy as np
import pytest

from repro.engine import OpCounters
from repro.engine.counters import merge_iterations
from repro.engine.setops import (
    bound_below,
    difference,
    intersect,
    remove_values,
)
from repro.graph import (
    CSRGraph,
    erdos_renyi,
    induced_subgraph,
    orient_by_degree,
    random_vertex_sample,
)
from repro.hw.report import SimReport


class TestSetOps:
    def test_intersect(self):
        a = np.array([1, 3, 5, 7])
        b = np.array([3, 4, 5, 6])
        assert intersect(a, b).tolist() == [3, 5]

    def test_difference(self):
        a = np.array([1, 3, 5, 7])
        b = np.array([3, 4, 5])
        assert difference(a, b).tolist() == [1, 7]

    def test_counters_updated(self):
        counters = OpCounters()
        intersect(np.array([1, 2]), np.array([2, 3]), counters)
        difference(np.array([1, 2]), np.array([2]), counters)
        assert counters.set_intersections == 1
        assert counters.set_differences == 1
        assert counters.setop_iterations == 4 + 3

    def test_counters_optional(self):
        out = intersect(np.array([1]), np.array([1]), None)
        assert out.tolist() == [1]

    def test_merge_iterations_model(self):
        assert merge_iterations(5, 7) == 12

    def test_bound_below(self):
        values = np.array([1, 4, 6, 9])
        assert bound_below(values, 6).tolist() == [1, 4]
        assert bound_below(values, 100).tolist() == [1, 4, 6, 9]
        assert bound_below(values, 0).tolist() == []

    def test_remove_values(self):
        values = np.array([1, 4, 6, 9])
        assert remove_values(values, [4, 9, 50]).tolist() == [1, 6]
        assert remove_values(values, []).tolist() == [1, 4, 6, 9]
        assert remove_values(np.array([], dtype=np.int64), [1]).tolist() == []


def per_edge_induced_subgraph(graph, vertices, *, name=""):
    """The per-edge builder ``induced_subgraph`` replaced: the parity
    oracle for its numpy mask-and-renumber build."""
    keep = sorted(set(int(v) for v in vertices))
    index = {v: i for i, v in enumerate(keep)}
    edges = [
        (index[u], index[int(v)])
        for u in keep
        for v in graph.neighbors(u)
        if int(v) in index and (graph.directed or u < int(v))
    ]
    return CSRGraph.from_edges(
        edges,
        num_vertices=len(keep),
        directed=graph.directed,
        name=name or (graph.name + "-sub" if graph.name else "sub"),
    )


class TestSampling:
    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize(
        "vertices",
        [
            [0, 1, 2, 3, 4],
            [17, 3, 29, 3, 8, 17, 0, 22],  # unsorted, duplicated
            list(range(30)),
            [5],
            [],
        ],
    )
    @pytest.mark.parametrize("name", ["", "halo"])
    def test_induced_subgraph_matches_per_edge_build(
        self, directed, vertices, name
    ):
        base = erdos_renyi(30, 0.3, seed=2)
        g = orient_by_degree(base) if directed else base
        got = induced_subgraph(g, vertices, name=name)
        want = per_edge_induced_subgraph(g, vertices, name=name)
        assert got.num_vertices == want.num_vertices
        assert got.directed == want.directed == directed
        assert got.name == want.name
        for field in ("indptr", "indices"):
            a, b = getattr(got, field), getattr(want, field)
            assert a.dtype == b.dtype, field
            assert np.array_equal(a, b), field

    def test_induced_subgraph_preserves_edges(self):
        g = erdos_renyi(30, 0.3, seed=2)
        sub = induced_subgraph(g, [0, 1, 2, 3, 4])
        for i, u in enumerate([0, 1, 2, 3, 4]):
            for j, v in enumerate([0, 1, 2, 3, 4]):
                if i < j:
                    assert sub.has_edge(i, j) == g.has_edge(u, v)

    def test_duplicate_vertices_collapsed(self):
        g = erdos_renyi(10, 0.5, seed=3)
        sub = induced_subgraph(g, [1, 1, 2])
        assert sub.num_vertices == 2

    def test_random_sample_size(self):
        g = erdos_renyi(50, 0.2, seed=4)
        sub = random_vertex_sample(g, 20, seed=1)
        assert sub.num_vertices == 20

    def test_random_sample_deterministic(self):
        g = erdos_renyi(50, 0.2, seed=4)
        assert random_vertex_sample(g, 20, seed=1) == random_vertex_sample(
            g, 20, seed=1
        )

    def test_oversample_clamped(self):
        g = erdos_renyi(10, 0.2, seed=4)
        assert random_vertex_sample(g, 99, seed=0).num_vertices == 10


def make_report(**overrides):
    defaults = dict(
        counts=(5,),
        cycles=1000.0,
        seconds=1e-6,
        num_pes=4,
        busy_cycles=600.0,
        stall_cycles=400.0,
        pruner_cycles=100.0,
        setop_cycles=300.0,
        cmap_cycles=50.0,
        noc_requests=10,
        dram_accesses=3,
        l2_hits=7,
        l2_misses=3,
        private_hits=90,
        private_misses=10,
        cmap_reads=80,
        cmap_writes=20,
        cmap_overflows=0,
        cmap_fallbacks=0,
        frontier_reads=5,
        tasks=12,
        per_pe_cycles=[900.0, 1000.0, 950.0, 980.0],
    )
    defaults.update(overrides)
    return SimReport(**defaults)


class TestSimReport:
    def test_derived_metrics(self):
        report = make_report()
        assert report.total == 5
        assert report.l2_miss_rate == pytest.approx(0.3)
        assert report.cmap_read_ratio == pytest.approx(0.8)
        assert report.memory_bound_fraction == pytest.approx(0.4)
        assert report.load_imbalance == pytest.approx(1000.0 / 957.5)

    def test_speedup_over(self):
        report = make_report()
        assert report.speedup_over(2e-6) == pytest.approx(2.0)

    def test_zero_division_guards(self):
        report = make_report(
            l2_hits=0,
            l2_misses=0,
            cmap_reads=0,
            cmap_writes=0,
            busy_cycles=0.0,
            stall_cycles=0.0,
            per_pe_cycles=[],
        )
        assert report.l2_miss_rate == 0.0
        assert report.cmap_read_ratio == 0.0
        assert report.memory_bound_fraction == 0.0
        assert report.load_imbalance == 1.0

    def test_summary_mentions_key_fields(self):
        text = make_report().summary()
        for token in ("matches", "NoC", "DRAM", "c-map"):
            assert token in text
