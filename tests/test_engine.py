"""Tests for the pattern-aware engine, c-map engine, and oblivious baseline."""

from math import comb

import pytest

from repro.graph import (
    CSRGraph,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    grid_graph,
    path_graph,
    star_graph,
)
from repro.patterns import (
    brute_force_count,
    diamond,
    four_cycle,
    k_clique,
    tailed_triangle,
    triangle,
    wedge,
)
from repro.compiler import compile_motifs, compile_pattern
from repro.engine import (
    BudgetExceeded,
    CMapSoftwareEngine,
    ObliviousEngine,
    PatternAwareEngine,
    ReferenceEngine,
    check_consistency,
    mine,
    mine_multi,
    mine_oblivious,
)

RANDOM = erdos_renyi(24, 0.3, seed=77)


class TestClosedForms:
    def test_triangles_in_complete_graph(self):
        g = complete_graph(8)
        plan = compile_pattern(triangle())
        assert mine(g, plan).counts[0] == comb(8, 3)

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_cliques_in_complete_graph(self, k):
        g = complete_graph(7)
        assert mine(g, compile_pattern(k_clique(k))).counts[0] == comb(7, k)

    def test_no_triangles_in_grid(self):
        g = grid_graph(5, 5)
        assert mine(g, compile_pattern(triangle())).counts[0] == 0

    def test_four_cycles_in_grid(self):
        g = grid_graph(4, 6)
        assert mine(g, compile_pattern(four_cycle())).counts[0] == 3 * 5

    def test_wedges_from_degrees(self):
        g = RANDOM
        expected = sum(
            comb(g.degree(v), 2) for v in g.vertices()
        )
        plan = compile_pattern(wedge(), induced=False)
        assert mine(g, plan).counts[0] == expected

    def test_single_cycle_graph(self):
        g = cycle_graph(4)
        assert mine(g, compile_pattern(four_cycle())).counts[0] == 1

    def test_path_graph_has_no_cycles(self):
        g = path_graph(10)
        assert mine(g, compile_pattern(four_cycle())).counts[0] == 0


class TestAgainstBruteForce:
    @pytest.mark.parametrize(
        "pattern,induced",
        [
            (triangle(), False),
            (k_clique(4), False),
            (four_cycle(), False),
            (diamond(), False),
            (tailed_triangle(), False),
            (wedge(), True),
            (four_cycle(), True),
            (diamond(), True),
        ],
        ids=lambda x: getattr(x, "name", str(x)),
    )
    def test_all_paths_agree(self, pattern, induced):
        check_consistency(RANDOM, pattern, induced=induced)

    def test_star_graph_edge_cases(self):
        g = star_graph(6)
        check_consistency(g, wedge(), induced=True)
        check_consistency(g, triangle())

    def test_empty_graph(self):
        g = CSRGraph.from_edges([], num_vertices=10)
        assert mine(g, compile_pattern(triangle())).counts[0] == 0


class TestEmbeddingsCollection:
    def test_collected_triangles_are_triangles(self):
        plan = compile_pattern(triangle(), use_orientation=False)
        result = mine(RANDOM, plan, collect=True)
        assert len(result.embeddings) == result.counts[0]
        for a, b, c in result.embeddings:
            assert RANDOM.has_edge(a, b)
            assert RANDOM.has_edge(b, c)
            assert RANDOM.has_edge(a, c)

    def test_collected_embeddings_unique_as_edge_images(self):
        # Distinct edge-induced matches can share a vertex set (a K4
        # holds three 4-cycles), so uniqueness holds on edge images.
        plan = compile_pattern(four_cycle())
        result = mine(RANDOM, plan, collect=True)
        position = {v: d for d, v in enumerate(plan.matching_order)}
        images = set()
        for emb in result.embeddings:
            image = frozenset(
                frozenset((emb[position[u]], emb[position[v]]))
                for u, v in plan.pattern.edges
            )
            images.add(image)
        assert len(images) == len(result.embeddings)

    def test_oriented_vs_symmetry_same_triangles(self):
        oriented = mine(
            RANDOM, compile_pattern(triangle()), collect=True
        )
        ordered = mine(
            RANDOM,
            compile_pattern(triangle(), use_orientation=False),
            collect=True,
        )
        assert {frozenset(e) for e in oriented.embeddings} == {
            frozenset(e) for e in ordered.embeddings
        }


class TestMultiPattern:
    def test_three_motifs(self):
        plan = compile_motifs(3)
        result = mine_multi(RANDOM, plan)
        expected = tuple(
            brute_force_count(RANDOM, m, induced=True)
            for m in plan.patterns
        )
        assert result.counts == expected

    def test_four_motifs(self):
        g = erdos_renyi(16, 0.35, seed=3)
        plan = compile_motifs(4)
        result = mine_multi(g, plan)
        expected = tuple(
            brute_force_count(g, m, induced=True) for m in plan.patterns
        )
        assert result.counts == expected

    def test_motif_total_equals_connected_subgraph_count(self):
        # Sum over motifs == number of connected induced k-subgraphs,
        # which the oblivious engine enumerates directly.
        plan = compile_motifs(3)
        total = mine_multi(RANDOM, plan).total
        oblivious = ObliviousEngine(
            RANDOM, list(plan.patterns), induced=True
        ).run()
        assert oblivious.counters.subgraphs_enumerated == total


class TestFrontierMemoization:
    def test_diamond_saves_set_ops(self):
        plan = compile_pattern(diamond(), use_orientation=False)
        with_memo = PatternAwareEngine(RANDOM, plan, use_frontier_memo=True)
        without = PatternAwareEngine(RANDOM, plan, use_frontier_memo=False)
        r1, r2 = with_memo.run(), without.run()
        assert r1.counts == r2.counts
        assert (
            r1.counters.setop_iterations < r2.counters.setop_iterations
        )
        assert r1.counters.frontier_hits > 0

    def test_four_cycle_gains_nothing(self):
        plan = compile_pattern(four_cycle())
        engine = PatternAwareEngine(RANDOM, plan)
        engine.run()
        assert engine.counters.frontier_hits == 0


class TestBatchLeaves:
    """The batched leaf path is a pure value/counter drop-in: it must
    match the reference engine, which materializes every leaf."""

    PATTERNS = [
        triangle(),
        k_clique(4),
        k_clique(5),
        four_cycle(),
        diamond(),
        tailed_triangle(),
    ]

    @pytest.mark.parametrize(
        "pattern", PATTERNS, ids=lambda p: p.name
    )
    @pytest.mark.parametrize("memo", [True, False], ids=["memo", "nomemo"])
    def test_counts_and_counters_bit_identical(self, pattern, memo):
        plan = compile_pattern(pattern)
        batched = PatternAwareEngine(
            RANDOM, plan, use_frontier_memo=memo
        ).run()
        looped = ReferenceEngine(
            RANDOM, plan, use_frontier_memo=memo
        ).run()
        assert batched.counts == looped.counts
        assert batched.counters == looped.counters

    def test_batch_path_engages_on_cliques(self):
        # Sanity that the parametrized parity above actually exercises
        # the batch kernel: a clique leaf fits the single-intersection
        # shape, so the batched run must take it (same counters, but
        # the engine records a batch shape).
        plan = compile_pattern(k_clique(4))
        engine = PatternAwareEngine(RANDOM, plan)
        assert engine._batch_leaf is not None
        engine.run()

    def test_closed_form_counts_survive_batching(self):
        g = complete_graph(9)
        plan = compile_pattern(k_clique(4))
        got = PatternAwareEngine(g, plan).run()
        assert got.counts[0] == comb(9, 4)


class TestBatchFrontier:
    """Level-synchronous frontier mode is a pure value/counter drop-in."""

    PATTERNS = [
        triangle(),
        wedge(),
        k_clique(4),
        k_clique(5),
        four_cycle(),
        diamond(),
        tailed_triangle(),
    ]

    @pytest.mark.parametrize(
        "pattern", PATTERNS, ids=lambda p: p.name
    )
    @pytest.mark.parametrize("memo", [True, False], ids=["memo", "nomemo"])
    @pytest.mark.parametrize(
        "induced", [False, True], ids=["edge", "induced"]
    )
    def test_counts_and_counters_bit_identical(
        self, pattern, memo, induced
    ):
        plan = compile_pattern(pattern, induced=induced)
        frontier = PatternAwareEngine(
            RANDOM, plan, use_frontier_memo=memo, batch_frontier=True
        ).run()
        recursive = PatternAwareEngine(
            RANDOM, plan, use_frontier_memo=memo, batch_frontier=False
        ).run()
        assert frontier.counts == recursive.counts
        assert frontier.counters == recursive.counters

    def test_collect_order_identical(self):
        plan = compile_pattern(triangle())
        frontier = PatternAwareEngine(
            RANDOM, plan, collect=True, batch_frontier=True
        ).run()
        recursive = PatternAwareEngine(
            RANDOM, plan, collect=True, batch_frontier=False
        ).run()
        assert frontier.embeddings == recursive.embeddings

    def test_row_limit_fallback_bit_identical(self):
        # A row limit below any real frontier width forces the
        # recursion fallback, which must stay charge-identical (the
        # budget check is pure index arithmetic, so no double charges).
        plan = compile_pattern(k_clique(4))
        engine = PatternAwareEngine(
            RANDOM, plan, batch_frontier=True, frontier_row_limit=4
        )
        got = engine.run()
        assert engine.frontier_stats()["fallbacks"] > 0
        ref = PatternAwareEngine(RANDOM, plan, batch_frontier=False).run()
        assert got.counts == ref.counts
        assert got.counters == ref.counters

    def test_frontier_gauges_published(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        plan = compile_pattern(k_clique(4))
        PatternAwareEngine(
            RANDOM, plan, batch_frontier=True, metrics=registry
        ).run()
        snap = registry.snapshot()
        assert snap["engine.frontier.rows_expanded"] > 0
        assert snap["engine.frontier.bands"] > 0
        assert snap["engine.frontier.peak_width"] > 0
        assert snap["engine.frontier.fallbacks"] == 0
        # host traffic beside the model charge: what the walker
        # gathered, and what the arc map answered instead
        assert snap["engine.frontier.elems_gathered"] > 0
        assert "engine.frontier.arc_probes" in snap

    def test_multi_pattern_walks_the_plan_tree(self):
        # MultiPlans run through the same frontier walker as chains
        # (tests/test_frontier_walker.py holds the full parity matrix).
        plan = compile_motifs(3)
        engine = PatternAwareEngine(RANDOM, plan, batch_frontier=True)
        frontier = engine.run()
        recursive = PatternAwareEngine(
            RANDOM, plan, batch_frontier=False
        ).run()
        assert frontier.counts == recursive.counts
        assert frontier.counters == recursive.counters
        assert engine.frontier_stats()["bands"] > 0


class TestCMapSoftwareEngine:
    def test_counts_match_base_engine(self):
        for pattern in (four_cycle(), diamond(), tailed_triangle()):
            plan = compile_pattern(pattern, use_orientation=False)
            base = PatternAwareEngine(RANDOM, plan).run()
            cm = CMapSoftwareEngine(RANDOM, plan).run()
            assert base.counts == cm.counts

    def test_cmap_stack_discipline(self):
        plan = compile_pattern(four_cycle())
        engine = CMapSoftwareEngine(RANDOM, plan)
        engine.run()
        # After a full run every inserted entry was removed.
        assert engine.cmap.values.max() == 0
        assert not engine._inserted

    def test_read_ratio_high_for_four_cycle(self):
        # §VII-C reports 86-98% read ratios for 4-cycle.
        plan = compile_pattern(four_cycle())
        engine = CMapSoftwareEngine(RANDOM, plan)
        engine.run()
        assert engine.cmap.read_ratio > 0.5

    def test_multi_pattern_supported(self):
        plan = compile_motifs(3)
        base = mine_multi(RANDOM, plan)
        cm = CMapSoftwareEngine(RANDOM, plan).run()
        assert base.counts == cm.counts


class TestOblivious:
    def test_matches_pattern_aware(self):
        plan = compile_pattern(four_cycle())
        aware = mine(RANDOM, plan)
        obl = mine_oblivious(RANDOM, four_cycle())
        assert aware.counts == obl.counts

    def test_enumerates_more_work(self):
        # The whole point of pattern awareness (paper §III).
        aware = PatternAwareEngine(
            RANDOM, compile_pattern(k_clique(4))
        )
        aware.run()
        obl = ObliviousEngine(RANDOM, [k_clique(4)])
        obl.run()
        assert obl.counters.subgraphs_enumerated > aware.counters.matches
        assert obl.counters.isomorphism_tests > 0

    def test_budget_enforced(self):
        with pytest.raises(BudgetExceeded):
            mine_oblivious(RANDOM, triangle(), max_subgraphs=5)

    def test_mixed_sizes_rejected(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            ObliviousEngine(RANDOM, [triangle(), four_cycle()])

    def test_esu_uniqueness_on_triangle_free_graph(self):
        g = grid_graph(4, 4)
        obl = ObliviousEngine(g, [wedge()], induced=True)
        result = obl.run()
        expected = sum(comb(g.degree(v), 2) for v in g.vertices())
        assert result.counts[0] == expected


class TestCounters:
    def test_counters_populated(self):
        plan = compile_pattern(triangle(), use_orientation=False)
        result = mine(RANDOM, plan)
        c = result.counters
        assert c.tasks == RANDOM.num_vertices
        assert c.set_intersections > 0
        assert c.setop_iterations > 0
        assert c.adjacency_bytes > 0
        assert c.matches == result.counts[0]

    def test_merge(self):
        from repro.engine import OpCounters

        a = OpCounters(tasks=1, matches=2)
        b = OpCounters(tasks=3, matches=4)
        a.merge(b)
        assert a.tasks == 4 and a.matches == 6

    def test_as_dict_round_trip(self):
        from repro.engine import OpCounters

        c = OpCounters(tasks=5)
        assert c.as_dict()["tasks"] == 5
