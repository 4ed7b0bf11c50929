"""Pattern substrate: pattern graphs, the named library, isomorphism, motifs."""

from .pattern import Pattern
from .library import (
    PATTERN_NAMES,
    cycle,
    diamond,
    edge,
    four_clique,
    four_cycle,
    five_clique,
    from_name,
    house,
    k_clique,
    path,
    star,
    tailed_triangle,
    triangle,
    wedge,
)
from .isomorphism import (
    are_isomorphic,
    brute_force_count,
    brute_force_embeddings,
    classify_motif,
    connected_vertex_sets,
    find_isomorphism,
    matches_on_vertex_set,
)
from .motifs import NUM_MOTIFS, enumerate_motifs, motif_names

__all__ = [
    "Pattern",
    "PATTERN_NAMES",
    "edge",
    "wedge",
    "triangle",
    "k_clique",
    "path",
    "star",
    "cycle",
    "four_cycle",
    "diamond",
    "tailed_triangle",
    "four_clique",
    "five_clique",
    "house",
    "from_name",
    "are_isomorphic",
    "find_isomorphism",
    "classify_motif",
    "brute_force_count",
    "brute_force_embeddings",
    "connected_vertex_sets",
    "matches_on_vertex_set",
    "NUM_MOTIFS",
    "enumerate_motifs",
    "motif_names",
]
