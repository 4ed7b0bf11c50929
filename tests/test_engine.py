"""Tests for the pattern-aware engine and the oblivious baseline."""

from math import comb

import numpy as np
import pytest

from repro.graph import (
    CSRGraph,
    LabeledGraph,
    assign_random_labels,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    grid_graph,
    path_graph,
    star_graph,
)
from repro.patterns import (
    Pattern,
    brute_force_count,
    connected_vertex_sets,
    cycle,
    diamond,
    edge,
    enumerate_motifs,
    four_cycle,
    from_name,
    house,
    k_clique,
    matches_on_vertex_set,
    path,
    tailed_triangle,
    triangle,
    wedge,
)
from repro.compiler import compile_motifs, compile_pattern
from repro.engine import (
    BudgetExceeded,
    ObliviousEngine,
    PatternAwareEngine,
    ReferenceEngine,
    mine,
    mine_multi,
    mine_oblivious,
)
from repro.verify import (
    GRAPH_FAMILIES,
    VerifyCase,
    oracle_count,
    random_graph,
    run_case,
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


#: The in-process engine paths: root-set walks, one-row bands, the
#: reference engine and the memo ablation.
IN_PROCESS_BACKENDS = ("serial", "one-row-bands", "reference", "no-memo")


def assert_paths_agree(graph, pattern, *, induced=False):
    """Every in-process path counts what the brute-force oracle does."""
    report = run_case(
        VerifyCase(graph, pattern=pattern, induced=induced),
        backends=IN_PROCESS_BACKENDS,
    )
    assert report.ok, [str(m) for m in report.mismatches]
    assert set(report.counts) == set(IN_PROCESS_BACKENDS)


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
        assert_paths_agree(RANDOM, pattern, induced=induced)

    def test_star_graph_edge_cases(self):
        g = star_graph(6)
        assert_paths_agree(g, wedge(), induced=True)
        assert_paths_agree(g, triangle())

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
    """The walker's count-only leaves are a pure value/counter drop-in:
    they must match the reference engine, which materializes every
    leaf."""

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

    def test_closed_form_counts_survive_batching(self):
        g = complete_graph(9)
        plan = compile_pattern(k_clique(4))
        got = PatternAwareEngine(g, plan).run()
        assert got.counts[0] == comb(9, 4)


class TestBatchFrontier:
    """The level-synchronous frontier walk over a whole root set is a
    pure value/counter drop-in for the recursive reference."""

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
            RANDOM, plan, use_frontier_memo=memo
        ).run()
        recursive = ReferenceEngine(
            RANDOM, plan, use_frontier_memo=memo
        ).run()
        assert frontier.counts == recursive.counts
        assert frontier.counters == recursive.counters

    def test_collect_order_identical(self):
        plan = compile_pattern(triangle())
        frontier = PatternAwareEngine(RANDOM, plan, collect=True).run()
        recursive = ReferenceEngine(RANDOM, plan, collect=True).run()
        assert frontier.embeddings == recursive.embeddings

    def test_row_limit_fallback_bit_identical(self):
        # A row limit below any real frontier width runs rows as
        # one-row bands, which must stay charge-identical (the budget
        # check is pure index arithmetic, so no double charges).
        plan = compile_pattern(k_clique(4))
        engine = PatternAwareEngine(RANDOM, plan, frontier_row_limit=4)
        got = engine.run()
        assert engine.frontier_stats()["fallbacks"] > 0
        ref = ReferenceEngine(RANDOM, plan).run()
        assert got.counts == ref.counts
        assert got.counters == ref.counters

    def test_frontier_gauges_published(self):
        # a pool publishes its walker's frontier_stats() as gauges
        from repro.engine import MinerPool
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        plan = compile_pattern(k_clique(4))
        with MinerPool(RANDOM, workers=1, metrics=registry) as pool:
            pool.mine(plan)
        snap = registry.snapshot()
        assert snap["engine.frontier.rows_expanded"] > 0
        assert snap["engine.frontier.bands"] > 0
        assert snap["engine.frontier.peak_width"] > 0
        assert snap["engine.frontier.fallbacks"] == 0
        # host traffic beside the model charge: what the walker
        # gathered, and what the arc map answered instead
        assert snap["engine.frontier.elems_gathered"] > 0
        assert "engine.frontier.arc_probes" in snap

    def test_no_frontier_gauges_without_a_walk(self):
        # the gauges describe a walk: the recursive reference runs none,
        # a pool given no roots publishes none; an edge plan walks as
        # one level
        from repro.engine import MinerPool
        from repro.obs import MetricsRegistry

        for k in (4, 2):
            engine = ReferenceEngine(RANDOM, compile_pattern(k_clique(k)))
            assert engine.run().counters.matches > 0
            assert engine.frontier_stats()["bands"] == 0
        for k, roots, walked in ((2, None, True), (4, [], False)):
            registry = MetricsRegistry()
            with MinerPool(RANDOM, workers=1, metrics=registry) as pool:
                pool.mine(compile_pattern(k_clique(k)), roots=roots)
            snap = registry.snapshot()
            assert (snap["engine.matches"] > 0) == (roots is None), k
            assert bool([
                key for key in snap if key.startswith("engine.frontier.")
            ]) == walked, k

    def test_multi_pattern_walks_the_plan_tree(self):
        # MultiPlans run through the same frontier walker as chains
        # (tests/test_frontier_walker.py holds the full parity matrix).
        plan = compile_motifs(3)
        engine = PatternAwareEngine(RANDOM, plan)
        frontier = engine.run()
        recursive = ReferenceEngine(RANDOM, plan).run()
        assert frontier.counts == recursive.counts
        assert frontier.counters == recursive.counters
        assert engine.frontier_stats()["bands"] > 0


class TestArcMapRoutes:
    """Up to the arc map's size cap the walker answers set operations
    and ancestor lookups from ``CSRGraph.arc_map()``; past it (cap 0
    here) it gathers and binary-searches.  Same counts and
    ``OpCounters`` on As either way, and each run took its own route."""

    @pytest.mark.parametrize(
        "name", ["4-clique", "4-cycle", "tailed-triangle", "wedge"]
    )
    def test_both_routes_charge_alike(self, name, monkeypatch):
        from repro.graph import csr, load_dataset

        plan, runs = compile_pattern(from_name(name)), []
        for cap in (csr.ARC_MAP_MAX_BYTES, 0):
            monkeypatch.setattr(csr, "ARC_MAP_MAX_BYTES", cap)
            engine = PatternAwareEngine(load_dataset("As"), plan)
            result = engine.run()
            if name in ("4-clique", "4-cycle"):
                probes = engine.frontier_stats()["arc_probes"]
                assert (probes > 0) == (cap > 0), (cap, probes)
            runs.append((result.counts, result.counters.as_dict()))
        assert runs[0] == runs[1]
        assert sum(runs[0][0]) > 0


class TestIgnoredModeKeyword:
    """``batch_frontier`` is accepted and ignored: ``False`` walks the
    root set as one, cut into the same bands and slices as the
    default."""

    def test_engine_walks_the_root_set_at_once(self):
        plan = compile_pattern(k_clique(4))
        stats = {}
        for flag in (True, False):
            engine = PatternAwareEngine(RANDOM, plan, batch_frontier=flag)
            engine.run()
            stats[flag] = engine.frontier_stats()
        # a band spans several roots
        assert stats[True]["peak_width"] > 1
        for key in ("bands", "peak_width"):
            assert stats[False][key] == stats[True][key], key

    def test_pool_cuts_the_same_slices(self):
        from repro.engine import MinerPool, order_tasks

        tasks = order_tasks(RANDOM)
        slices = {}
        for flag in (True, False):
            with MinerPool(RANDOM, workers=2, batch_frontier=flag) as pool:
                slices[flag] = pool._slice_tasks(RANDOM, tasks)
        # a graph this small is one root slice, not one slice per root
        assert slices[True] == [tasks]
        assert slices[False] == slices[True]


class TestRootRange:
    """A root id outside ``[0, num_vertices)`` is a ``ValueError`` naming
    the id, on every path that takes a root set."""

    PLAN = compile_pattern(k_clique(4))

    def _paths(self):
        from repro.engine import MinerPool
        from repro.hw import FlexMinerConfig, simulate

        def pooled(roots):
            with MinerPool(RANDOM, workers=1) as pool:
                pool.mine(self.PLAN, roots=roots)

        return {
            "walker": lambda r: PatternAwareEngine(RANDOM, self.PLAN).run(r),
            # the ignored keyword must not skip the root check
            "ignored-keyword": lambda r: PatternAwareEngine(
                RANDOM, self.PLAN, batch_frontier=False
            ).run(r),
            "reference": lambda r: ReferenceEngine(RANDOM, self.PLAN).run(r),
            "pool": pooled,
            "sim": lambda r: simulate(
                RANDOM, self.PLAN, FlexMinerConfig.small(), roots=r
            ),
        }

    @pytest.mark.parametrize(
        "path", ["walker", "ignored-keyword", "reference", "pool", "sim"]
    )
    @pytest.mark.parametrize("bad", [-1, 24, 999])
    def test_out_of_range_root_raises(self, path, bad):
        run = self._paths()[path]
        with pytest.raises(ValueError, match=rf"root {bad} .*num_vertices=24"):
            run([0, bad, 3])

    def test_labeled_root_filter_checks_first(self):
        from repro.engine import filter_roots
        from repro.graph import assign_random_labels
        from repro.patterns import Pattern

        labeled = assign_random_labels(RANDOM, 2, seed=1)
        plan = compile_pattern(
            Pattern(3, [(0, 1), (0, 2), (1, 2)], labels=[0, 1, 1])
        )
        with pytest.raises(ValueError, match="root -1"):
            filter_roots(labeled, plan, [-1])

    def test_in_range_roots_still_run(self):
        got = PatternAwareEngine(RANDOM, self.PLAN).run([0, 23])
        assert got.counters.tasks == 2


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
        # Raised at subgraph max_subgraphs + 1, before its isomorphism
        # test, and not at max_subgraphs.
        total = len(list(connected_vertex_sets(RANDOM, 3)))
        exact = mine_oblivious(RANDOM, triangle(), max_subgraphs=total)
        assert exact.counters.subgraphs_enumerated == total
        engine = ObliviousEngine(RANDOM, [triangle()], max_subgraphs=5)
        with pytest.raises(BudgetExceeded):
            engine.run()
        assert engine.counters.subgraphs_enumerated == 6
        assert engine.counters.isomorphism_tests == 5

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


    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("family", GRAPH_FAMILIES)
    def test_twin_of_the_oracle(self, family, k):
        """One classifier for every semantics: induced and edge-induced,
        unlabeled, exact-labeled and wildcard patterns, all counted in
        one run per pattern set and checked against the oracle."""
        rng = np.random.default_rng(17 * GRAPH_FAMILIES.index(family) + k)
        graph = assign_random_labels(random_graph(rng, family), 2, seed=k)
        for patterns in _oblivious_pattern_sets(k):
            for induced in (False, True):
                got = ObliviousEngine(graph, patterns, induced=induced).run()
                assert got.counts == tuple(
                    oracle_count(graph, p, induced=induced) for p in patterns
                ), (patterns, induced)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_counters_pinned_to_the_esu(self, k):
        # The memo is host-side: the Gramer model still pays one
        # isomorphism test per enumerated subgraph.
        result = ObliviousEngine(RANDOM, _oblivious_pattern_sets(k)[0]).run()
        c = result.counters
        enumerated = len(list(connected_vertex_sets(RANDOM, k)))
        assert c.subgraphs_enumerated == c.isomorphism_tests == enumerated
        assert c.tasks == RANDOM.num_vertices
        assert c.matches == sum(result.counts)

    def test_labels_are_part_of_the_shape(self):
        # Two triangles with one edge bitmask and different labels: the
        # labeled pattern matches only the second, which a memo keyed by
        # edges alone would answer from the first.
        topology = CSRGraph.from_edges(
            [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        )
        graph = LabeledGraph(topology, np.array([0, 0, 0, 0, 1, 2]))
        pattern = triangle().with_labels([0, 1, 2])
        for induced in (False, True):
            result = ObliviousEngine(graph, [pattern], induced=induced).run(
                collect=True
            )
            assert result.counts == (1,)
            assert result.embeddings == [(3, 4, 5)]

    def test_collect_repeats_each_set_per_match_class(self):
        patterns = [four_cycle(), diamond()]
        result = ObliviousEngine(RANDOM, patterns).run(collect=True)
        expected = [
            combo
            for combo in connected_vertex_sets(RANDOM, 4)
            for p in patterns
            for _ in matches_on_vertex_set(RANDOM, p, combo, induced=False)
        ]
        assert result.embeddings == expected
        assert len(expected) == sum(result.counts)
        # A K4 holds three 4-cycles and six diamonds: nine entries each.
        k5 = ObliviousEngine(complete_graph(5), patterns).run(collect=True)
        assert k5.embeddings == [
            combo
            for combo in connected_vertex_sets(complete_graph(5), 4)
            for _ in range(9)
        ]
        assert ObliviousEngine(RANDOM, patterns).run().embeddings is None


def _oblivious_pattern_sets(k):
    """Unlabeled, exact-labeled and wildcard pattern sets of size k."""
    if k == 1:
        base = [Pattern(1, [])]
    elif k == 2:
        base = [edge()]
    elif k == 5:
        base = [path(5), cycle(5), house(), k_clique(5)]
    else:
        base = list(enumerate_motifs(k))
    return [
        base,
        [p.with_labels([v % 2 for v in range(k)]) for p in base],
        [p.with_labels([0] + [None] * (k - 1)) for p in base],
    ]


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
