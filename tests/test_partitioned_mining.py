"""Tests for partitioned mining (paper §VII-D future work)."""

import pytest

from repro.errors import ReproError
from repro.graph import erdos_renyi, induced_subgraph, orient_by_degree, rmat
from repro.patterns import (
    diamond, edge, four_cycle, k_clique, path, triangle, wedge,
)
from repro.compiler import compile_motifs, compile_pattern
from repro.engine import mine, mine_partitioned

GRAPH = rmat(9, 6.0, seed=19)


def one_root_halos(graph, pattern):
    """Halo edge counts with one root per part, on an unoriented plan."""
    plan = compile_pattern(pattern, use_orientation=False)
    return mine_partitioned(graph, plan, graph.num_vertices)[1]


class TestPartitioning:
    def test_block_partition_is_disjoint_cover(self):
        # 100 roots in 7 uneven blocks: every edge is owned by exactly
        # one root, so a gap or an overlap between blocks would move the
        # edge count.
        graph = erdos_renyi(100, 0.05, seed=3)
        plan = compile_pattern(edge(), use_orientation=False)
        result, halo_edges = mine_partitioned(graph, plan, 7)
        assert result.counts == mine(graph, plan).counts
        assert len(halo_edges) == 7

    def test_bad_arguments(self):
        plan = compile_pattern(triangle())
        for num_parts in (0, -1):
            with pytest.raises(ValueError):
                mine_partitioned(GRAPH, plan, num_parts)

    def test_more_parts_than_vertices(self):
        plan = compile_pattern(triangle())
        tiny = erdos_renyi(3, 1.0, seed=0)
        result, halo_edges = mine_partitioned(tiny, plan, 8)
        assert result.counts == (1,)
        assert len(halo_edges) == 8
        assert halo_edges[3:] == [0] * 5


class TestHalo:
    def test_one_hop_includes_neighbors(self):
        # An edge plan has two levels, so each halo is one hop deep.
        halo_edges = one_root_halos(GRAPH, edge())
        for root in range(0, GRAPH.num_vertices, 17):
            ball = {root} | set(map(int, GRAPH.neighbors(root)))
            expected = induced_subgraph(GRAPH, sorted(ball)).num_edges
            assert halo_edges[root] == expected, root

    def test_ball_grows_with_hops(self):
        # Edge, wedge and 4-path plans take 1-, 2- and 3-hop balls.
        graph = erdos_renyi(60, 0.08, seed=5)
        sizes = [
            one_root_halos(graph, pattern)
            for pattern in (edge(), wedge(), path(4))
        ]
        for smaller, larger in zip(sizes, sizes[1:]):
            assert all(a <= b for a, b in zip(smaller, larger))
            assert sum(smaller) < sum(larger)

    def test_directed_induced_subgraph(self):
        sub = induced_subgraph(orient_by_degree(GRAPH), [0, 1, 2, 3, 4, 5])
        assert sub.directed


class TestPartitionedCounts:
    @pytest.mark.parametrize("num_parts", [1, 2, 5, 16])
    def test_triangles_partition_invariant(self, num_parts):
        plan = compile_pattern(triangle())
        result, halo_edges = mine_partitioned(GRAPH, plan, num_parts)
        assert result.counts == mine(GRAPH, plan).counts
        assert len(halo_edges) == num_parts

    @pytest.mark.parametrize(
        "pattern,kwargs",
        [
            (k_clique(4), {}),
            (four_cycle(), {}),
            (diamond(), {"use_orientation": False}),
            (four_cycle(), {"induced": True}),
        ],
        ids=lambda x: getattr(x, "name", str(x)),
    )
    def test_pattern_counts_match(self, pattern, kwargs):
        plan = compile_pattern(pattern, **kwargs)
        result, _ = mine_partitioned(GRAPH, plan, 4)
        assert result.counts == mine(GRAPH, plan).counts

    def test_multiplan_rejected(self):
        with pytest.raises(ReproError):
            mine_partitioned(GRAPH, compile_motifs(3), 4)

    def test_labeled_plan_rejected(self):
        plan = compile_pattern(triangle().with_labels([0, 1, 2]))
        with pytest.raises(ReproError):
            mine_partitioned(GRAPH, plan, 4)


class TestWorkingSet:
    def test_halo_smaller_than_graph(self):
        # The point of partitioning: each partition's working set is a
        # fraction of the whole graph.
        plan = compile_pattern(triangle())
        _, halo_edges = mine_partitioned(GRAPH, plan, 16)
        assert max(halo_edges) < GRAPH.num_edges

    def test_stats_account_all_matches(self):
        plan = compile_pattern(triangle())
        result, _ = mine_partitioned(GRAPH, plan, 8)
        assert result.counters.matches == result.counts[0]
        assert result.counts == mine(GRAPH, plan).counts

    def test_one_root_halo_is_its_ball(self):
        # One root per part: its halo is the subgraph induced by the
        # vertices within num_levels - 1 = 2 hops (a plain BFS here).
        graph = erdos_renyi(30, 0.1, seed=4)
        plan = compile_pattern(triangle(), use_orientation=False)
        _, halo_edges = mine_partitioned(graph, plan, graph.num_vertices)
        for root in range(graph.num_vertices):
            ball = {root}
            for _ in range(2):
                ball |= {
                    int(u) for v in ball for u in graph.neighbors(v)
                }
            expected = induced_subgraph(graph, sorted(ball)).num_edges
            assert halo_edges[root] == expected, root

    def test_orientation_shrinks_halo(self):
        # DAG halos only expand forward, so they are smaller than
        # undirected ones for the same hop count.
        oriented_plan = compile_pattern(triangle())
        symmetric_plan = compile_pattern(triangle(), use_orientation=False)
        _, a = mine_partitioned(GRAPH, oriented_plan, 8)
        _, b = mine_partitioned(GRAPH, symmetric_plan, 8)
        assert max(a) <= max(b)

    def test_empty_partition_handled(self):
        plan = compile_pattern(triangle())
        tiny = erdos_renyi(5, 0.5, seed=1)
        result, halo_edges = mine_partitioned(tiny, plan, 10)
        assert result.counts == mine(tiny, plan).counts
        assert halo_edges[5:] == [0] * 5
