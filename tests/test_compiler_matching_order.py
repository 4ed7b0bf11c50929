"""Tests for matching-order enumeration and selection (paper §II-B, Fig. 5)."""

import math
import random

import pytest

from repro.errors import CompileError
from repro.patterns import (
    Pattern,
    diamond,
    enumerate_motifs,
    four_cycle,
    k_clique,
    path,
    star,
    triangle,
    wedge,
)
from repro.compiler import (
    choose_matching_order,
    connected_ancestors,
    enumerate_matching_orders,
    score_matching_order,
)
from repro.compiler.matching_order import _bound_tightness


class TestEnumeration:
    def test_clique_has_all_permutations(self):
        # Every permutation of a clique is a connected order.
        assert len(enumerate_matching_orders(k_clique(4))) == math.factorial(4)

    def test_wedge_orders(self):
        # Leaves cannot come before any neighbor is placed: orders starting
        # (leaf, other-leaf, ...) are excluded -> 6 - 2 = 4 valid orders.
        assert len(enumerate_matching_orders(wedge())) == 4

    def test_every_order_is_connected(self):
        for order in enumerate_matching_orders(diamond()):
            ca = connected_ancestors(diamond(), order)
            assert all(ca[d] for d in range(1, 4))

    def test_disconnected_pattern_rejected(self):
        with pytest.raises(CompileError):
            enumerate_matching_orders(Pattern(3, [(0, 1)]))


class TestScoring:
    def test_diamond_prefers_triangle_first(self):
        # Fig. 5: the triangle-first order beats the wedge-first one.
        p = diamond()
        order = choose_matching_order(p)
        prefix = p.induced_subpattern(order[:3])
        assert prefix.num_edges == 3  # triangle, not wedge

    def test_score_vector_values(self):
        p = diamond()
        # 0,1,2 form a triangle (edges 01, 02, 12); 3 connects to 0 and 1.
        assert score_matching_order(p, (0, 1, 2, 3)) == (0, 1, 3, 5)

    def test_score_monotone_nondecreasing(self):
        p = k_clique(4)
        for order in enumerate_matching_orders(p):
            s = score_matching_order(p, order)
            assert all(a <= b for a, b in zip(s, s[1:]))
            assert s[-1] == p.num_edges

    def test_choose_is_deterministic(self):
        assert choose_matching_order(four_cycle()) == choose_matching_order(
            four_cycle()
        )


class TestConnectedAncestors:
    def test_triangle(self):
        ca = connected_ancestors(triangle(), (0, 1, 2))
        assert ca == [(), (0,), (0, 1)]

    def test_star_center_first(self):
        p = star(3)
        ca = connected_ancestors(p, (0, 1, 2, 3))
        assert ca == [(), (0,), (0,), (0,)]

    def test_path_chain(self):
        p = path(4)
        ca = connected_ancestors(p, (0, 1, 2, 3))
        assert ca == [(), (0,), (1,), (2,)]

    def test_depths_not_pattern_ids(self):
        # With a shuffled order, CA entries are depths, not vertex ids.
        p = wedge()  # edges (0,1),(1,2); center is 1
        ca = connected_ancestors(p, (1, 2, 0))
        assert ca == [(), (0,), (0,)]


def _exhaustive_choice(p):
    """The rule scored over every connected order: ``max`` by (density,
    bound tightness, smallest permutation)."""
    if p.is_clique():
        return tuple(p.vertices())
    orders = enumerate_matching_orders(p)
    best = max(score_matching_order(p, o) for o in orders)
    finalists = [o for o in orders if score_matching_order(p, o) == best]
    return max(
        finalists,
        key=lambda o: (_bound_tightness(p, o), tuple(-v for v in o)),
    )


def _relabelings(k):
    """Every motif on ``k`` vertices under the identity and three seeded
    vertex relabelings, unlabeled and with alternating vertex labels."""
    rng = random.Random(k)
    for motif in enumerate_motifs(k):
        perms = [list(range(k))] + [rng.sample(range(k), k) for _ in range(3)]
        for perm in perms:
            p = motif.relabel(perm)
            yield p
            yield p.with_labels([v % 2 for v in range(k)])


class TestChoiceIsExhaustive:
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_pruned_search_equals_scoring_every_order(self, k):
        for p in _relabelings(k):
            assert choose_matching_order(p) == _exhaustive_choice(p), p
