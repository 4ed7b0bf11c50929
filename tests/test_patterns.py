"""Tests for Pattern, the named library, and automorphisms."""

import pytest

from repro.errors import PatternError
from repro.patterns import (
    Pattern,
    cycle,
    diamond,
    four_cycle,
    from_name,
    house,
    k_clique,
    path,
    star,
    tailed_triangle,
    triangle,
    wedge,
)


class TestPatternBasics:
    def test_edges_canonicalized(self):
        p = Pattern(3, [(1, 0), (0, 1), (2, 1)])
        assert p.edges == ((0, 1), (1, 2))
        assert p.num_edges == 2

    def test_self_loop_rejected(self):
        with pytest.raises(PatternError):
            Pattern(2, [(0, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(PatternError):
            Pattern(2, [(0, 2)])

    def test_zero_vertices_rejected(self):
        with pytest.raises(PatternError):
            Pattern(0, [])

    def test_neighbors_and_degree(self):
        p = triangle()
        assert p.neighbors(0) == frozenset({1, 2})
        assert p.degree(0) == 2

    def test_connectivity(self):
        assert triangle().is_connected()
        assert not Pattern(3, [(0, 1)]).is_connected()
        assert Pattern(1, []).is_connected()

    def test_is_clique(self):
        assert k_clique(4).is_clique()
        assert not diamond().is_clique()

    def test_equality_is_label_equality(self):
        assert triangle() == Pattern(3, [(0, 1), (1, 2), (0, 2)])
        assert wedge() != Pattern(3, [(0, 1), (0, 2)])  # same shape, labels differ

    def test_hashable(self):
        assert len({triangle(), k_clique(3)}) == 1

    def test_relabel(self):
        # perm maps old label u to new label perm[u]: 0->2, 1->0, 2->1.
        p = wedge().relabel([2, 0, 1])
        assert p.edges == ((0, 1), (0, 2))

    def test_relabel_requires_permutation(self):
        with pytest.raises(PatternError):
            wedge().relabel([0, 0, 1])

    def test_induced_subpattern(self):
        p = diamond().induced_subpattern([0, 1, 2])
        assert p == triangle()

    def test_networkx_round_trip(self):
        p = house()
        back = Pattern.from_networkx(p.to_networkx())
        assert back.edges == p.edges


class TestAutomorphisms:
    @pytest.mark.parametrize(
        "pattern,expected",
        [
            (triangle(), 6),
            (k_clique(4), 24),
            (four_cycle(), 8),
            (diamond(), 4),
            (tailed_triangle(), 2),
            (wedge(), 2),
            (path(4), 2),
            (star(3), 6),
            (cycle(5), 10),
        ],
    )
    def test_group_sizes(self, pattern, expected):
        autos = pattern.automorphisms()
        assert len(autos) == expected

    def test_identity_always_present(self):
        for p in (triangle(), diamond(), house()):
            assert tuple(range(p.num_vertices)) in p.automorphisms()

    def test_automorphisms_preserve_edges(self):
        p = four_cycle()
        for perm in p.automorphisms():
            for u, v in p.edges:
                assert p.has_edge(perm[u], perm[v])

    def test_automorphisms_form_group(self):
        p = diamond()
        autos = set(p.automorphisms())
        for a in autos:
            for b in autos:
                composed = tuple(a[b[i]] for i in range(p.num_vertices))
                assert composed in autos


class TestLibrary:
    def test_from_name_known(self):
        assert from_name("triangle") == triangle()
        assert from_name("diamond") == diamond()

    def test_from_name_parses_cliques(self):
        assert from_name("7-clique") == k_clique(7)

    def test_from_name_unknown(self):
        with pytest.raises(PatternError):
            from_name("octopus")

    def test_invalid_parameters(self):
        with pytest.raises(PatternError):
            k_clique(1)
        with pytest.raises(PatternError):
            path(1)
        with pytest.raises(PatternError):
            star(0)
        with pytest.raises(PatternError):
            cycle(2)

    def test_shapes(self):
        assert four_cycle().num_edges == 4
        assert diamond().num_edges == 5
        assert tailed_triangle().num_edges == 4
        assert house().num_vertices == 5

    def test_canonical_forms_distinguish_shapes(self):
        assert four_cycle().canonical_form() != diamond().canonical_form()
        assert (
            four_cycle().canonical_form()
            != tailed_triangle().canonical_form()
        )
        # Same shape, different labelling -> same canonical form.
        shifted = four_cycle().relabel([1, 2, 3, 0])
        assert shifted.canonical_form() == four_cycle().canonical_form()

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("label", [None, 0, 3])
    def test_clique_canonical_form_is_the_permutation_minimum(
        self, n, label
    ):
        # The clique shortcut returns exactly what the k! search over
        # vertex permutations returns, unlabeled and uniformly labeled.
        import itertools

        clique = Pattern(
            n, itertools.combinations(range(n), 2),
            labels=None if label is None else [label] * n,
        )
        perms = list(itertools.permutations(range(n)))
        bits = min(clique.adjacency_bits(p) for p in perms)
        expected = bits if label is None else min(
            (clique.adjacency_bits(p), (label,) * n) for p in perms
        )
        assert clique.canonical_form() == expected

    def test_mixed_label_clique_keeps_the_search(self):
        mixed = k_clique(3).with_labels([0, 1, 1])
        assert mixed.canonical_form() == (7, (0, 1, 1))
        assert (
            k_clique(3).with_labels([1, 0, 1]).canonical_form()
            == mixed.canonical_form()
        )


class TestCanonicalMemo:
    """canonical_form() is memoised on (num_vertices, edges, labels)."""

    def test_relabeled_isomorphs_share_a_form(self):
        import itertools

        base = tailed_triangle()
        forms = {
            base.relabel(perm).canonical_form()
            for perm in itertools.permutations(range(4))
        }
        assert forms == {base._search_canonical_form()}

    def test_labeled_and_unlabeled_twins_stay_apart(self):
        plain = four_cycle()
        labeled = plain.with_labels([0, 0, 0, 0])
        assert plain.edges == labeled.edges
        assert plain.canonical_form() != labeled.canonical_form()
        assert labeled.canonical_form() == (
            labeled._search_canonical_form()
        )
        wildcard = plain.with_labels([None, 0, None, None])
        assert wildcard.canonical_form() not in (
            plain.canonical_form(), labeled.canonical_form()
        )

    def test_memo_never_grows_past_its_bound(self):
        from repro.patterns import pattern as pattern_mod

        memo = pattern_mod._canonical_form
        bound = pattern_mod.CANONICAL_MEMO_ENTRIES
        assert memo.cache_info().maxsize == bound
        # distinct literal triples: one edge, a fresh label each time
        for label in range(bound + 50):
            form = Pattern(2, [(0, 1)], labels=[label, 0]).canonical_form()
            assert form == (1, (0, label))
            assert memo.cache_info().currsize <= bound
        assert memo.cache_info().currsize == bound
