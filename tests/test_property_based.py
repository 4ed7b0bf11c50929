"""Hypothesis property tests on core invariants.

These are randomized cross-checks of the central correctness properties:
mining counts agree across every execution path, symmetry breaking is
exact, and data structures respect their invariants.
"""

from math import comb

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph import CSRGraph
from repro.patterns import (
    Pattern,
    brute_force_count,
    diamond,
    enumerate_motifs,
    four_cycle,
    k_clique,
    triangle,
    wedge,
)
from repro.compiler import (
    choose_matching_order,
    compile_motifs,
    compile_pattern,
    connected_ancestors,
    symmetry_conditions,
)
from repro.engine import (
    PatternAwareEngine,
    mine,
    mine_multi,
    mine_oblivious,
)

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def small_graphs(draw, max_vertices=14):
    n = draw(st.integers(min_value=4, max_value=max_vertices))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(
        st.lists(st.booleans(), min_size=len(possible), max_size=len(possible))
    )
    edges = [e for e, keep in zip(possible, mask) if keep]
    return CSRGraph.from_edges(edges, num_vertices=n)


@st.composite
def small_patterns(draw):
    """A random connected pattern on 3-4 vertices."""
    k = draw(st.integers(min_value=3, max_value=4))
    motifs = enumerate_motifs(k)
    return draw(st.sampled_from(motifs))


class TestMiningCorrectness:
    @SETTINGS
    @given(graph=small_graphs(), pattern=small_patterns())
    def test_pattern_aware_matches_brute_force_edge_induced(
        self, graph, pattern
    ):
        plan = compile_pattern(pattern)
        assert mine(graph, plan).counts[0] == brute_force_count(
            graph, pattern, induced=False
        )

    @SETTINGS
    @given(graph=small_graphs(), pattern=small_patterns())
    def test_pattern_aware_matches_brute_force_vertex_induced(
        self, graph, pattern
    ):
        plan = compile_pattern(pattern, induced=True, use_orientation=False)
        assert mine(graph, plan).counts[0] == brute_force_count(
            graph, pattern, induced=True
        )

    @SETTINGS
    @given(graph=small_graphs(max_vertices=11), pattern=small_patterns())
    def test_oblivious_agrees(self, graph, pattern):
        plan = compile_pattern(pattern)
        aware = mine(graph, plan).counts[0]
        oblivious = mine_oblivious(graph, pattern).counts[0]
        assert aware == oblivious

    @SETTINGS
    @given(graph=small_graphs(max_vertices=11))
    def test_motif_counting_partitions_subgraphs(self, graph):
        # Vertex-induced motif counts partition the set of connected
        # induced 3-subgraphs: wedges + triangles = all of them.
        plan = compile_motifs(3)
        counts = mine_multi(graph, plan).counts
        expected = tuple(
            brute_force_count(graph, m, induced=True)
            for m in plan.patterns
        )
        assert counts == expected

    @SETTINGS
    @given(graph=small_graphs())
    def test_triangle_orientation_equivalence(self, graph):
        oriented = mine(graph, compile_pattern(triangle())).counts[0]
        symmetric = mine(
            graph, compile_pattern(triangle(), use_orientation=False)
        ).counts[0]
        assert oriented == symmetric

    @SETTINGS
    @given(graph=small_graphs())
    def test_frontier_memo_neutral_for_counts(self, graph):
        plan = compile_pattern(diamond(), use_orientation=False)
        memo = PatternAwareEngine(graph, plan, use_frontier_memo=True)
        plain = PatternAwareEngine(graph, plan, use_frontier_memo=False)
        assert memo.run().counts == plain.run().counts


class TestCompilerProperties:
    @SETTINGS
    @given(pattern=small_patterns())
    def test_matching_order_is_connected(self, pattern):
        order = choose_matching_order(pattern)
        ca = connected_ancestors(pattern, order)
        assert all(ca[d] for d in range(1, pattern.num_vertices))

    @SETTINGS
    @given(pattern=small_patterns())
    def test_symmetry_conditions_acyclic(self, pattern):
        order = choose_matching_order(pattern)
        conditions = symmetry_conditions(pattern, order)
        # (a, b) with a < b only: trivially acyclic, never self-referential.
        assert all(a < b for a, b in conditions)

    @SETTINGS
    @given(pattern=small_patterns())
    def test_ir_round_trip(self, pattern):
        from repro.compiler import emit_ir, parse_ir

        plan = compile_pattern(pattern, use_orientation=False)
        assert parse_ir(emit_ir(plan)) == plan


class TestOracleAgreement:
    """Satellite of the differential subsystem: the engine must agree
    with the compiler-independent ESU oracle on every named pattern up
    to 4 vertices, on unlabeled AND random labeled graphs."""

    NAMED_PATTERNS = [
        "edge",
        "wedge",
        "triangle",
        "4-cycle",
        "diamond",
        "tailed-triangle",
        "4-clique",
    ]

    @SETTINGS
    @given(graph=small_graphs(max_vertices=10))
    def test_engine_matches_oracle_all_named_patterns(self, graph):
        from repro.patterns import from_name
        from repro.verify import oracle_count

        for name in self.NAMED_PATTERNS:
            pattern = from_name(name)
            plan = compile_pattern(pattern)
            assert mine(graph, plan).counts[0] == oracle_count(
                graph, pattern, induced=False
            ), f"engine vs oracle diverged on {name}"

    @SETTINGS
    @given(
        graph=small_graphs(max_vertices=10),
        labels=st.lists(
            st.integers(min_value=0, max_value=2), min_size=14, max_size=14
        ),
        pattern=small_patterns(),
        pattern_labels=st.lists(
            st.one_of(st.none(), st.integers(min_value=0, max_value=2)),
            min_size=4,
            max_size=4,
        ),
    )
    def test_engine_matches_oracle_labeled(
        self, graph, labels, pattern, pattern_labels
    ):
        from repro.graph import LabeledGraph
        from repro.verify import oracle_count

        labeled_graph = LabeledGraph(
            graph, np.asarray(labels[: graph.num_vertices])
        )
        plabels = pattern_labels[: pattern.num_vertices]
        if any(lab is not None for lab in plabels):
            pattern = pattern.with_labels(plabels)
        for induced in (False, True):
            plan = compile_pattern(
                pattern, induced=induced, use_orientation=False
            )
            engine = PatternAwareEngine(labeled_graph, plan).run().counts[0]
            assert engine == oracle_count(
                labeled_graph, pattern, induced=induced
            )


class TestGraphProperties:
    @SETTINGS
    @given(graph=small_graphs())
    def test_csr_degree_sum(self, graph):
        assert int(graph.degrees().sum()) == 2 * graph.num_edges

    @SETTINGS
    @given(graph=small_graphs())
    def test_orientation_halves_entries(self, graph):
        from repro.graph import orient_by_degree

        dag = orient_by_degree(graph)
        assert dag.num_directed_edges == graph.num_edges

    @SETTINGS
    @given(graph=small_graphs())
    def test_wedge_count_closed_form(self, graph):
        expected = sum(comb(graph.degree(v), 2) for v in graph.vertices())
        plan = compile_pattern(wedge(), induced=False)
        assert mine(graph, plan).counts[0] == expected
