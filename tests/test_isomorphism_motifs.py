"""Tests for isomorphism utilities and motif enumeration."""

import pytest

from repro.graph import complete_graph, cycle_graph, star_graph
from repro.patterns import (
    NUM_MOTIFS,
    Pattern,
    are_isomorphic,
    brute_force_count,
    classify_motif,
    diamond,
    enumerate_motifs,
    find_isomorphism,
    four_cycle,
    k_clique,
    motif_names,
    tailed_triangle,
    triangle,
    wedge,
)


class TestIsomorphism:
    def test_same_pattern(self):
        assert are_isomorphic(triangle(), k_clique(3))

    def test_relabelled(self):
        p = diamond()
        assert are_isomorphic(p, p.relabel([3, 2, 1, 0]))

    def test_different_shapes(self):
        assert not are_isomorphic(four_cycle(), diamond())
        assert not are_isomorphic(four_cycle(), tailed_triangle())

    def test_different_sizes(self):
        assert not are_isomorphic(triangle(), k_clique(4))

    def test_mapping_is_valid(self):
        p = four_cycle()
        q = p.relabel([2, 0, 3, 1])
        perm = find_isomorphism(p, q)
        assert perm is not None
        for u, v in p.edges:
            assert q.has_edge(perm[u], perm[v])

    def test_no_mapping_for_non_isomorphic(self):
        assert find_isomorphism(four_cycle(), diamond()) is None

    def test_degree_sequence_shortcut(self):
        # Same edge count, different degree sequence.
        p = Pattern(4, [(0, 1), (1, 2), (2, 3)])
        q = Pattern(4, [(0, 1), (0, 2), (0, 3)])
        assert not are_isomorphic(p, q)


class TestClassifyMotif:
    def test_classifies_into_fig3_classes(self):
        motifs = enumerate_motifs(4)
        assert classify_motif(four_cycle(), motifs) == motifs.index(
            next(m for m in motifs if m.name == "4-cycle")
        )

    def test_unknown_returns_none(self):
        assert classify_motif(triangle(), enumerate_motifs(4)) is None


class TestMotifEnumeration:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_counts_match_oeis(self, k):
        assert len(enumerate_motifs(k)) == NUM_MOTIFS[k]

    def test_all_connected_and_distinct(self):
        motifs = enumerate_motifs(4)
        assert all(m.is_connected() for m in motifs)
        forms = {m.canonical_form() for m in motifs}
        assert len(forms) == len(motifs)

    def test_three_motifs_are_wedge_and_triangle(self):
        names = motif_names(3)
        assert names == ["wedge", "triangle"]

    def test_four_motif_names(self):
        assert set(motif_names(4)) == {
            "3-star",
            "4-path",
            "4-cycle",
            "tailed-triangle",
            "diamond",
            "4-clique",
        }

    def test_cached_copy_is_fresh_list(self):
        a = enumerate_motifs(3)
        a.append(None)
        assert len(enumerate_motifs(3)) == 2

    @pytest.mark.parametrize("k", [-1, 0, 6, 9])
    def test_size_outside_table_raises(self, k):
        # 2^C(k,2) edge subsets: k=6 already takes a minute, k=9 never
        # finishes, so the bound is checked before any enumeration.
        with pytest.raises(ValueError, match="motif size"):
            enumerate_motifs(k)


class TestBruteForce:
    def test_triangles_in_k4(self):
        g = complete_graph(4)
        assert brute_force_count(g, triangle(), induced=True) == 4

    def test_cliques_in_kn(self):
        from math import comb

        g = complete_graph(6)
        for k in (3, 4, 5):
            assert brute_force_count(g, k_clique(k), induced=False) == comb(6, k)

    def test_four_cycles(self):
        g = cycle_graph(4)
        assert brute_force_count(g, four_cycle(), induced=True) == 1

    def test_wedges_in_star(self):
        from math import comb

        g = star_graph(5)
        assert brute_force_count(g, wedge(), induced=True) == comb(5, 2)

    def test_edge_vs_vertex_induced(self):
        # K4 contains 3 four-cycles edge-induced but 0 vertex-induced.
        g = complete_graph(4)
        assert brute_force_count(g, four_cycle(), induced=False) == 3
        assert brute_force_count(g, four_cycle(), induced=True) == 0

    def test_diamond_in_k4(self):
        g = complete_graph(4)
        # Every K4 contains 6 edge-induced diamonds (choose the missing edge).
        assert brute_force_count(g, diamond(), induced=False) == 6
        assert brute_force_count(g, diamond(), induced=True) == 0
