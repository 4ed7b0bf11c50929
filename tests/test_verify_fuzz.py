"""Tests for the seeded fuzzer and the shrinking loop."""

import numpy as np
import pytest

from repro.graph import CSRGraph, LabeledGraph
from repro.patterns import triangle
from repro.verify import (
    BACKENDS,
    GRAPH_FAMILIES,
    VerifyCase,
    case_to_dict,
    fuzz,
    random_case,
    random_graph,
    random_pattern,
    shrink_case,
)


class TestGenerators:
    @pytest.mark.parametrize("family", GRAPH_FAMILIES)
    def test_families_produce_valid_graphs(self, family):
        rng = np.random.default_rng(42)
        for _ in range(5):
            graph = random_graph(rng, family)
            assert isinstance(graph, CSRGraph)
            # from_edges validated the CSR; spot-check the shape claims.
            assert graph.num_vertices >= 0
            if family == "star" and graph.num_vertices:
                assert graph.degree(0) == graph.num_vertices - 1

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            random_graph(np.random.default_rng(0), "torus")

    def test_random_pattern_bounds(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            pattern = random_pattern(rng, max_vertices=4)
            assert 2 <= pattern.num_vertices <= 4
            assert pattern.is_connected()

    def test_random_pattern_labels(self):
        rng = np.random.default_rng(2)
        saw_labeled = saw_wildcard = False
        for _ in range(30):
            pattern = random_pattern(rng, num_labels=2)
            if pattern.is_labeled:
                saw_labeled = True
                if any(lab is None for lab in pattern.labels):
                    saw_wildcard = True
        assert saw_labeled and saw_wildcard

    def test_case_generation_deterministic(self):
        def draw(seed):
            rng = np.random.default_rng(seed)
            return [
                case_to_dict(random_case(rng, index=i)) for i in range(12)
            ]

        assert draw(9) == draw(9)
        assert draw(9) != draw(10)


class TestShrinking:
    def test_needs_a_failing_case(self):
        case = VerifyCase(
            graph=CSRGraph.from_edges([(0, 1), (1, 2), (0, 2)]),
            pattern=triangle(),
        )
        with pytest.raises(ValueError):
            shrink_case(case, backends=("serial", "reference"))

    def test_always_failing_backend_shrinks_to_nothing(self):
        def always_wrong(case, plan):
            counts, _ = BACKENDS["serial"](case, plan)
            return tuple(c + 7 for c in counts), None

        case = VerifyCase(
            graph=CSRGraph.from_edges(
                [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (3, 4)]
            ),
            pattern=triangle(),
            name="shrink-me",
        )
        shrunk = shrink_case(
            case,
            backends={
                "serial": BACKENDS["serial"],
                "buggy": always_wrong,
            },
        )
        # The failure reproduces on any graph, so greedy vertex deletion
        # bottoms out at the empty graph.
        assert shrunk.graph.num_vertices == 0
        assert shrunk.graph.num_edges == 0

    def test_shrink_preserves_labels(self):
        def always_wrong(case, plan):
            counts, _ = BACKENDS["serial"](case, plan)
            return tuple(c + 1 for c in counts), None

        topo = CSRGraph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
        case = VerifyCase(
            graph=LabeledGraph(topo, np.array([0, 1, 0, 1])),
            pattern=triangle(),
        )
        shrunk = shrink_case(
            case,
            backends={
                "serial": BACKENDS["serial"],
                "buggy": always_wrong,
            },
        )
        assert isinstance(shrunk.graph, LabeledGraph)
        assert len(shrunk.graph.labels) == shrunk.graph.num_vertices

    def test_shrink_clears_stale_expectation(self):
        def always_wrong(case, plan):
            counts, _ = BACKENDS["serial"](case, plan)
            return tuple(c + 1 for c in counts), None

        case = VerifyCase(
            graph=CSRGraph.from_edges([(0, 1), (1, 2), (0, 2)]),
            pattern=triangle(),
            expected=(1,),
        )
        shrunk = shrink_case(
            case,
            backends={
                "serial": BACKENDS["serial"],
                "buggy": always_wrong,
            },
        )
        assert shrunk.expected is None


class TestFuzzLoop:
    def test_clean_run(self):
        report = fuzz(
            seed=1,
            cases=10,
            backends=("serial", "reference", "kernel-probe"),
        )
        assert report.ok
        assert report.cases_run == 10
        assert report.backends == ("serial", "reference", "kernel-probe")
        assert report.as_dict()["ok"] is True

    def test_deterministic_verdicts(self):
        kwargs = dict(seed=4, cases=8, backends=("serial", "no-memo"))
        assert fuzz(**kwargs).as_dict() == fuzz(**kwargs).as_dict()
