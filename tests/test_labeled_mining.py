"""Tests for labeled graph pattern mining.

The paper's motivating application mines *labeled* protein networks;
FlexMiner's interface inherits label support from the software GPM
systems it matches.  A label constraint is one more pruner check, so
every execution path must honor it identically.
"""

import numpy as np
import pytest

from repro.errors import CompileError, GraphFormatError, PatternError
from repro.graph import (
    CSRGraph,
    LabeledGraph,
    assign_degree_labels,
    assign_random_labels,
    erdos_renyi,
)
from repro.patterns import (
    Pattern,
    brute_force_count,
    find_isomorphism,
    triangle,
    wedge,
)
from repro.compiler import compile_multi, compile_pattern, emit_ir, parse_ir
from repro.engine import (
    ObliviousEngine,
    PatternAwareEngine,
    mine,
)
from repro.hw import FlexMinerConfig, simulate

BASE = erdos_renyi(26, 0.35, seed=101)
GRAPH = assign_random_labels(BASE, 3, seed=7)


def labeled_triangle(a, b, c):
    return Pattern(3, [(0, 1), (0, 2), (1, 2)], labels=[a, b, c],
                   name="labeled-triangle")


class TestLabeledGraph:
    def test_label_array_validated(self):
        with pytest.raises(GraphFormatError):
            LabeledGraph(BASE, np.zeros(5))
        with pytest.raises(GraphFormatError):
            LabeledGraph(BASE, -np.ones(BASE.num_vertices))

    def test_delegates_topology(self):
        assert GRAPH.num_vertices == BASE.num_vertices
        assert GRAPH.has_edge(*next(iter(BASE.edges())))

    def test_vertices_with_label_partition(self):
        total = sum(
            len(GRAPH.vertices_with_label(lab))
            for lab in range(GRAPH.num_labels)
        )
        assert total == GRAPH.num_vertices

    def test_oriented_keeps_labels(self):
        dag = GRAPH.oriented()
        assert np.array_equal(dag.labels, GRAPH.labels)
        assert dag.directed

    def test_degree_labels(self):
        lg = assign_degree_labels(BASE, thresholds=[3])
        hubs = lg.vertices_with_label(1)
        assert all(BASE.degree(int(v)) >= 3 for v in hubs)


class TestLabeledPattern:
    def test_label_validation(self):
        with pytest.raises(PatternError):
            Pattern(2, [(0, 1)], labels=[0])
        with pytest.raises(PatternError):
            Pattern(2, [(0, 1)], labels=[0, -1])

    def test_is_labeled(self):
        assert labeled_triangle(0, 1, 2).is_labeled
        assert not triangle().is_labeled
        assert Pattern(2, [(0, 1)], labels=[None, None]).is_labeled is False

    def test_automorphisms_respect_labels(self):
        assert len(labeled_triangle(0, 0, 0).automorphisms()) == 6
        assert len(labeled_triangle(0, 0, 1).automorphisms()) == 2
        assert len(labeled_triangle(0, 1, 2).automorphisms()) == 1

    def test_canonical_form_distinguishes_labelings(self):
        a = labeled_triangle(0, 0, 1)
        b = labeled_triangle(0, 1, 1)
        assert a.canonical_form() != b.canonical_form()
        # ... but is invariant under relabelling of vertices.
        assert a.canonical_form() == a.relabel([2, 0, 1]).canonical_form()

    def test_find_isomorphism_checks_labels(self):
        concrete = labeled_triangle(0, 0, 1)
        assert find_isomorphism(concrete, labeled_triangle(1, 0, 0))
        assert not find_isomorphism(concrete, labeled_triangle(1, 1, 0))

    def test_wildcards_match_anything(self):
        wild = Pattern(3, [(0, 1), (0, 2), (1, 2)], labels=[None, 0, 1])
        assert find_isomorphism(wild, labeled_triangle(2, 0, 1))

    def test_equality_includes_labels(self):
        assert labeled_triangle(0, 0, 1) != labeled_triangle(0, 1, 0)
        assert labeled_triangle(0, 0, 1) == labeled_triangle(0, 0, 1)

    def test_with_labels(self):
        assert triangle().with_labels([0, 0, 1]) == labeled_triangle(0, 0, 1)


class TestLabeledCompile:
    def test_steps_carry_labels(self):
        plan = compile_pattern(labeled_triangle(0, 1, 2))
        depth_labels = [plan.root_label] + [s.label for s in plan.steps]
        assert sorted(depth_labels) == [0, 1, 2]

    def test_mixed_label_clique_not_oriented(self):
        plan = compile_pattern(labeled_triangle(0, 0, 1))
        assert not plan.oriented
        with pytest.raises(CompileError):
            compile_pattern(labeled_triangle(0, 0, 1), use_orientation=True)

    def test_uniform_label_clique_oriented(self):
        plan = compile_pattern(labeled_triangle(1, 1, 1))
        assert plan.oriented

    def test_symmetry_matches_label_group(self):
        # Only the two like-labeled vertices are interchangeable.
        plan = compile_pattern(labeled_triangle(0, 0, 1))
        assert len(plan.symmetry_conditions) == 1

    def test_multi_pattern_rejects_labels(self):
        with pytest.raises(CompileError):
            compile_multi([labeled_triangle(0, 0, 0), wedge()])

    def test_ir_round_trip(self):
        plan = compile_pattern(labeled_triangle(0, 0, 1))
        text = emit_ir(plan)
        assert "labels=" in text
        assert parse_ir(text) == plan

    def test_wildcard_ir_round_trip(self):
        p = Pattern(3, [(0, 1), (1, 2)], labels=[0, None, 1])
        plan = compile_pattern(p)
        assert parse_ir(emit_ir(plan)) == plan


class TestLabeledMining:
    @pytest.mark.parametrize(
        "labels",
        [(0, 0, 0), (0, 0, 1), (0, 1, 2), (None, 0, 1)],
    )
    def test_all_paths_agree_with_brute_force(self, labels):
        pattern = labeled_triangle(*labels)
        expected = brute_force_count(GRAPH, pattern, induced=False)
        plan = compile_pattern(pattern)
        assert mine(GRAPH, plan).counts[0] == expected
        assert (
            ObliviousEngine(GRAPH, [pattern]).run().counts[0] == expected
        )
        report = simulate(GRAPH, plan, FlexMinerConfig(num_pes=2))
        assert report.counts[0] == expected

    def test_label_partition_identity(self):
        # Triangles partition by label multiset: sum over all labeled
        # variants equals the unlabeled count.
        unlabeled = mine(GRAPH, compile_pattern(triangle())).counts[0]
        total = 0
        for a in range(3):
            for b in range(a, 3):
                for c in range(b, 3):
                    pattern = labeled_triangle(a, b, c)
                    total += mine(GRAPH, compile_pattern(pattern)).counts[0]
        assert total == unlabeled

    def test_vertex_induced_labeled(self):
        pattern = wedge().with_labels([0, 1, 0])
        expected = brute_force_count(GRAPH, pattern, induced=True)
        plan = compile_pattern(pattern, induced=True)
        assert mine(GRAPH, plan).counts[0] == expected

    def test_labeled_plan_on_unlabeled_graph_rejected(self):
        plan = compile_pattern(labeled_triangle(0, 0, 1))
        with pytest.raises(ValueError):
            PatternAwareEngine(BASE, plan)

    def test_unlabeled_pattern_on_labeled_graph(self):
        # Labels on the data graph are ignored without constraints.
        assert (
            mine(GRAPH, compile_pattern(triangle())).counts[0]
            == mine(BASE, compile_pattern(triangle())).counts[0]
        )

    def test_unoriented_pattern_on_labeled_graph(self):
        # An unoriented plan walks the bare topology under the labels:
        # same counts and the same operation counters as on BASE.
        plan = compile_pattern(wedge(), use_orientation=False)
        assert not plan.oriented
        on_labeled = PatternAwareEngine(GRAPH, plan).run()
        on_base = PatternAwareEngine(BASE, plan).run()
        assert on_labeled.counts == on_base.counts
        assert on_labeled.counters.as_dict() == on_base.counters.as_dict()

    def test_root_label_skips_tasks(self):
        pattern = labeled_triangle(0, 0, 0)
        engine = PatternAwareEngine(GRAPH, compile_pattern(pattern))
        engine.run()
        # Orientation is on (uniform labels); only label-0 roots worked.
        assert engine.counters.tasks == len(GRAPH.vertices_with_label(0))
