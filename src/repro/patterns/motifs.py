"""k-motif enumeration (paper Fig. 3).

A *motif* is a connected graph on k vertices, counted up to isomorphism.
k-MC (k-motif counting) finds the number of vertex-induced occurrences of
every k-motif simultaneously — the paper's multi-pattern problem.
"""

from __future__ import annotations

import itertools
from typing import List

from .pattern import Pattern

__all__ = ["enumerate_motifs", "motif_names", "NUM_MOTIFS"]

#: Known connected-graph counts, used to sanity check enumeration.
NUM_MOTIFS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21}

_CACHE: dict = {}


def enumerate_motifs(k: int) -> List[Pattern]:
    """All connected k-vertex graphs, one representative per iso class.

    Returns patterns sorted by (edge count, canonical form) so the order
    is deterministic: for k=3 this yields [wedge, triangle]; for k=4 the
    six motifs of Fig. 3 from sparsest (3-path) to densest (4-clique).

    ``k`` is bounded by :data:`NUM_MOTIFS` (1..5): the walk visits all
    2^C(k,2) edge subsets, so k=6 already takes a minute and k=7 is 2M
    subsets.  Every caller (CLI, apps, service, fuzzer) gets the same
    ``ValueError`` instead of a hang.
    """
    if k not in NUM_MOTIFS:
        raise ValueError(
            f"motif size k must be in {min(NUM_MOTIFS)}..{max(NUM_MOTIFS)}, "
            f"got {k}"
        )
    if k in _CACHE:
        return list(_CACHE[k])

    possible_edges = list(itertools.combinations(range(k), 2))
    seen = set()
    found: List[Pattern] = []
    # Connected graphs on k vertices need at least k-1 edges.
    for count in range(max(k - 1, 0), len(possible_edges) + 1):
        for combo in itertools.combinations(possible_edges, count):
            pattern = Pattern(k, combo)
            if not pattern.is_connected():
                continue
            key = pattern.canonical_form()
            if key in seen:
                continue
            seen.add(key)
            found.append(
                Pattern(k, combo, name=_default_name(k, pattern, len(found)))
            )
    _CACHE[k] = found
    return list(found)


def motif_names(k: int) -> List[str]:
    return [m.name for m in enumerate_motifs(k)]


def _default_name(k: int, pattern: Pattern, index: int) -> str:
    special = {
        (3, 2): "wedge",
        (3, 3): "triangle",
        (4, 6): "4-clique",
        (4, 4): None,  # ambiguous between 4-cycle and tailed-triangle
        (4, 5): "diamond",
    }
    key = (k, pattern.num_edges)
    if key in special and special[key]:
        return special[key]
    if k == 4 and pattern.num_edges == 3:
        degrees = sorted(pattern.degree(u) for u in pattern)
        return "3-star" if degrees[-1] == 3 else "4-path"
    if k == 4 and pattern.num_edges == 4:
        degrees = sorted(pattern.degree(u) for u in pattern)
        return "4-cycle" if degrees == [2, 2, 2, 2] else "tailed-triangle"
    return f"{k}-motif-{index}"
