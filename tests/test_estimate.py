"""Tests for cardinality estimation and data-aware order selection."""

import numpy as np
import pytest

from repro.graph import CSRGraph, complete_graph, csr, grid_graph, rmat
from repro.patterns import (
    PATTERN_NAMES,
    diamond,
    four_cycle,
    from_name,
    k_clique,
    triangle,
    wedge,
)
from repro.compiler import (
    GraphProfile,
    choose_matching_order_for_graph,
    compile_pattern,
    connected_ancestors,
    estimate_plan,
    measure_levels,
)
from repro.engine import PatternAwareEngine
from repro.engine.reference import RecursiveEngine

GRAPH = rmat(9, 6.0, seed=47)
SMALL = rmat(7, 6.0, seed=5)


def _probe_levels(plan, graph, roots=None):
    """Per depth ``(nodes, scanned)`` as the recursion sees it: every
    level's filtered list and its raw candidate list, one embedding at
    a time (the probe ``measure_levels`` ran before the walker kept a
    tally)."""
    nodes = [0] * plan.num_levels
    scans = [0] * plan.num_levels

    class Probe(RecursiveEngine):
        def _filtered_candidates(self, step, emb):
            cands = super()._filtered_candidates(step, emb)
            nodes[step.depth] += len(cands)
            scans[step.depth] += len(self._raw_stack[step.depth])
            return cands

    Probe(graph, plan).run(roots)
    return list(zip(nodes, scans))


class TestGraphProfile:
    def test_basic_stats(self):
        g = complete_graph(10)
        p = GraphProfile.of(g)
        assert p.num_vertices == 10
        assert p.mean_degree == pytest.approx(9.0)
        assert p.size_biased_degree == pytest.approx(9.0)
        assert p.transitivity == pytest.approx(1.0)

    def test_triangle_free_graph(self):
        p = GraphProfile.of(grid_graph(6, 6))
        assert p.transitivity == 0.0

    def test_size_biased_exceeds_mean_on_power_law(self):
        p = GraphProfile.of(GRAPH)
        assert p.size_biased_degree > p.mean_degree

    def test_empty_graph(self):
        from repro.graph import CSRGraph

        p = GraphProfile.of(CSRGraph.from_edges([], num_vertices=4))
        assert p.mean_degree == 0.0
        assert p.transitivity == 0.0


class TestEstimatePlan:
    def test_level_zero_is_tasks(self):
        plan = compile_pattern(triangle(), use_orientation=False)
        levels = estimate_plan(plan, GRAPH)
        assert levels[0].nodes == GRAPH.num_vertices
        assert len(levels) == 3

    def test_constraints_shrink_levels(self):
        # A triangle's last level (1 closure) is narrower than a
        # wedge's (no closure) on a sparse graph.
        tri = estimate_plan(
            compile_pattern(triangle(), use_orientation=False), GRAPH
        )
        wed = estimate_plan(compile_pattern(wedge()), GRAPH)
        assert tri[-1].nodes < wed[-1].nodes

    def test_order_of_magnitude_on_triangle(self):
        plan = compile_pattern(triangle(), use_orientation=False)
        estimated = estimate_plan(plan, GRAPH)[-1].nodes
        actual = PatternAwareEngine(GRAPH, plan).run().counts[0]
        assert actual / 30 < max(estimated, 1) < actual * 30

    def test_bounds_halve(self):
        # Triangle's symmetry order bounds depth 1 (v1 < v0); the wedge
        # plan leaves depth 1 unbounded.  The estimator must reflect it.
        bounded = compile_pattern(triangle(), use_orientation=False)
        unbounded = compile_pattern(wedge())
        assert bounded.steps[0].upper_bounds
        assert not unbounded.steps[0].upper_bounds
        a = estimate_plan(bounded, GRAPH)[1].nodes
        b = estimate_plan(unbounded, GRAPH)[1].nodes
        assert a == pytest.approx(b / 2)


class TestMeasureLevels:
    def test_exact_final_level_is_match_count(self):
        plan = compile_pattern(four_cycle())
        measured = measure_levels(plan, GRAPH)
        matches = PatternAwareEngine(GRAPH, plan).run().counts[0]
        assert measured[-1].nodes == matches

    def test_sampling_approximates(self):
        plan = compile_pattern(triangle(), use_orientation=False)
        full = measure_levels(plan, GRAPH)
        sampled = measure_levels(plan, GRAPH, sample_roots=256, seed=3)
        assert sampled[-1].nodes == pytest.approx(
            full[-1].nodes, rel=0.5
        )

    def test_levels_monotone_scans(self):
        plan = compile_pattern(k_clique(4))
        measured = measure_levels(plan, GRAPH)
        assert all(lv.candidates_scanned >= 0 for lv in measured)


class TestWalkerLevelTally:
    """The walker's per-depth tally is the recursion's view of the tree:
    count-only leaves, materialized leaves and one-row bands alike."""

    @pytest.mark.parametrize("name", PATTERN_NAMES)
    @pytest.mark.parametrize(
        "options",
        [{}, {"frontier_row_limit": 1}, {"collect": True}],
        ids=["count-only-leaf", "one-row-bands", "materialized-leaf"],
    )
    def test_tally_equals_the_recursive_probe(self, name, options):
        plan = compile_pattern(from_name(name))
        engine = PatternAwareEngine(SMALL, plan, **options)
        engine.run()
        assert engine.level_stats()[1:] == _probe_levels(plan, SMALL)[1:]
        assert engine.level_stats()[0] == (0, 0)

    def test_tally_past_the_arc_map_cap(self, monkeypatch):
        monkeypatch.setattr(csr, "ARC_MAP_MAX_BYTES", 0)
        graph = CSRGraph(SMALL.indptr, SMALL.indices, validate=False)
        for name in ("4-cycle", "house", "4-clique"):
            plan = compile_pattern(from_name(name))
            engine = PatternAwareEngine(graph, plan)
            engine.run()
            assert engine.frontier_stats()["arc_probes"] == 0
            assert engine.level_stats()[1:] == _probe_levels(plan, graph)[1:]

    @pytest.mark.parametrize("sample_roots", [None, 40])
    def test_measure_levels_reads_the_tally(self, sample_roots):
        plan = compile_pattern(four_cycle())
        measured = measure_levels(
            plan, SMALL, sample_roots=sample_roots, seed=1
        )
        roots = (
            None
            if sample_roots is None
            else np.random.default_rng(1).choice(
                SMALL.num_vertices, size=sample_roots, replace=False
            ).tolist()
        )
        scale = SMALL.num_vertices / (sample_roots or SMALL.num_vertices)
        probe = _probe_levels(plan, SMALL, roots)
        assert [lv.nodes for lv in measured[1:]] == [
            n * scale for n, _ in probe[1:]
        ]
        assert [lv.candidates_scanned for lv in measured[1:]] == [
            s * scale for _, s in probe[1:]
        ]
        roots_run = sample_roots or SMALL.num_vertices
        assert measured[0].nodes == roots_run * scale


class TestDataAwareOrderSelection:
    def test_clique_fast_path(self):
        assert choose_matching_order_for_graph(
            k_clique(5), GRAPH
        ) == tuple(range(5))

    def test_diamond_prefers_triangle_first_on_sparse_graph(self):
        order = choose_matching_order_for_graph(diamond(), GRAPH)
        prefix = diamond().induced_subpattern(order[:3])
        assert prefix.num_edges == 3  # triangle before wedge (Fig. 5)

    def test_returns_connected_order(self):
        order = choose_matching_order_for_graph(four_cycle(), GRAPH)
        ca = connected_ancestors(four_cycle(), order)
        assert all(ca[d] for d in range(1, 4))

    def test_selected_order_is_competitive(self):
        # The data-aware choice never loses badly to the static choice.
        pattern = diamond()
        data_aware = choose_matching_order_for_graph(pattern, GRAPH)
        plan_aware = compile_pattern(
            pattern, use_orientation=False, matching_order=data_aware
        )
        plan_static = compile_pattern(pattern, use_orientation=False)
        work_aware = (
            PatternAwareEngine(GRAPH, plan_aware).run()
            .counters.setop_iterations
        )
        work_static = (
            PatternAwareEngine(GRAPH, plan_static).run()
            .counters.setop_iterations
        )
        assert work_aware <= work_static * 2.0
