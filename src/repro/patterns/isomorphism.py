"""Graph/subgraph isomorphism utilities and the one ESU enumerator.

Three consumers:

* the **pattern-oblivious baseline** (paper §III, Gramer-style) and the
  **verification oracle** both enumerate every connected k-vertex set
  with :func:`connected_vertex_sets` and classify each one with
  :func:`matches_on_vertex_set` — exactly the cost pattern-aware
  systems avoid;
* **k-motif counting** must classify each vertex-induced subgraph into its
  motif class.

Patterns are tiny so the matcher is a straightforward backtracking VF2
variant with degree pruning.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .pattern import Pattern

__all__ = [
    "are_isomorphic",
    "find_isomorphism",
    "classify_motif",
    "brute_force_count",
    "brute_force_embeddings",
    "connected_vertex_sets",
    "matches_on_vertex_set",
]


def are_isomorphic(p: Pattern, q: Pattern) -> bool:
    """True when p and q are isomorphic graphs."""
    return find_isomorphism(p, q) is not None


def _labels_compatible(a: Optional[int], b: Optional[int]) -> bool:
    """Wildcard-tolerant label match (``None`` matches anything)."""
    return a is None or b is None or a == b


def find_isomorphism(p: Pattern, q: Pattern) -> Optional[Tuple[int, ...]]:
    """Find a vertex bijection mapping p onto q, or None.

    Returns ``perm`` with ``perm[u_p] = u_q`` such that edges map exactly
    (both presence and absence — graph isomorphism, not sub-isomorphism).
    Labels must be pairwise compatible; ``None`` acts as a wildcard on
    either side.
    """
    if p.num_vertices != q.num_vertices or p.num_edges != q.num_edges:
        return None
    if sorted(p.degree(u) for u in p) != sorted(q.degree(u) for u in q):
        return None

    n = p.num_vertices
    candidates: List[List[int]] = [
        [
            v
            for v in q
            if q.degree(v) == p.degree(u)
            and _labels_compatible(p.label(u), q.label(v))
        ]
        for u in p
    ]

    mapping: List[int] = []
    used = [False] * n

    def backtrack() -> bool:
        u = len(mapping)
        if u == n:
            return True
        for v in candidates[u]:
            if used[v]:
                continue
            if all(
                (w in p.neighbors(u)) == (mapping[w] in q.neighbors(v))
                for w in range(u)
            ):
                mapping.append(v)
                used[v] = True
                if backtrack():
                    return True
                mapping.pop()
                used[v] = False
        return False

    return tuple(mapping) if backtrack() else None


def classify_motif(
    subject: Pattern, motifs: Sequence[Pattern]
) -> Optional[int]:
    """Index of the motif isomorphic to ``subject``, or None.

    Uses canonical forms so repeated classification against the same motif
    list is cheap (the caller should cache motif canonical forms if it is
    on a hot path).
    """
    key = (subject.num_vertices, subject.canonical_form())
    for i, motif in enumerate(motifs):
        if key == (motif.num_vertices, motif.canonical_form()):
            return i
    return None


# ----------------------------------------------------------------------
# Brute-force ground truth (tests and tiny inputs only)
# ----------------------------------------------------------------------
def brute_force_embeddings(graph, pattern: Pattern, *, induced: bool):
    """All distinct matches of the pattern in the data graph.

    Matches follow the paper's semantics (§II-A): *completeness* (every
    match found) and *uniqueness* (each distinct match once).  A distinct
    match is an equivalence class of injective mappings
    pattern→data-graph under the pattern's (label-preserving)
    automorphism group — exactly what symmetry breaking enumerates one
    representative of.  For unlabeled and exactly-labeled patterns this
    coincides with the familiar counts: distinct vertex sets for
    ``induced=True`` (k-MC), distinct edge-set images for
    ``induced=False`` (edge-induced SL; e.g. K4 holds six diamonds).
    Wildcard labels can place several distinct matches on one vertex
    set.

    Returns one representative per class as a tuple of data vertices
    indexed by pattern vertex.  ``graph`` may be a CSRGraph or a
    LabeledGraph.  Exponential in ``graph.num_vertices`` — ground truth
    for tiny graphs only.
    """
    k = pattern.num_vertices
    automorphisms = pattern.automorphisms()
    matches: List[Tuple[int, ...]] = []
    for combo in itertools.combinations(range(graph.num_vertices), k):
        matches.extend(
            matches_on_vertex_set(
                graph,
                pattern,
                combo,
                induced=induced,
                automorphisms=automorphisms,
            )
        )
    return sorted(matches)


# ----------------------------------------------------------------------
# Connected vertex sets (ESU) and their classification
# ----------------------------------------------------------------------
def connected_vertex_sets(graph, k: int) -> Iterator[Tuple[int, ...]]:
    """Yield every connected k-vertex subset of ``graph`` exactly once.

    ESU (Wernicke 2006): grow each subset from its minimum vertex
    ``root``, extending only with vertices ``> root`` drawn from the
    exclusive neighborhood of the newest member.  The enumeration order
    is deterministic; each subset is yielded as a sorted tuple.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        for v in graph.vertices():
            yield (v,)
        return
    for root in graph.vertices():
        ext = [int(u) for u in graph.neighbors(root) if int(u) > root]
        if ext:
            nbh = {root, *ext}
            yield from _esu_extend(graph, [root], ext, nbh, root, k)


def _esu_extend(
    graph,
    sub: List[int],
    ext: List[int],
    nbh: set,
    root: int,
    k: int,
) -> Iterator[Tuple[int, ...]]:
    """Recursive ESU step.

    ``nbh`` is the invariant ``sub ∪ N(sub)`` restricted to vertices
    ``> root`` (plus ``root`` itself): a vertex already in ``nbh`` was
    reachable at an earlier branch, so re-adding it would duplicate the
    subset.
    """
    if len(sub) + 1 == k:
        for w in ext:
            yield tuple(sorted(sub + [w]))
        return
    ext = list(ext)
    while ext:
        w = ext.pop()
        excl = [
            int(u)
            for u in graph.neighbors(w)
            if int(u) > root and int(u) not in nbh
        ]
        yield from _esu_extend(
            graph, sub + [w], ext + excl, nbh | {w, *excl}, root, k
        )


def matches_on_vertex_set(
    graph,
    pattern: Pattern,
    combo: Sequence[int],
    *,
    induced: bool,
    automorphisms: Optional[Sequence[Tuple[int, ...]]] = None,
):
    """Distinct matches of ``pattern`` whose image is exactly ``combo``.

    ``combo`` is a tuple of ``pattern.num_vertices`` distinct data
    vertices.  Returns one canonical representative (under the pattern's
    automorphism group) per distinct match, as in
    :func:`brute_force_embeddings`; injectivity over ``combo`` means
    distinct vertex sets contribute disjoint match classes, so summing
    over vertex sets is exact.  The verification oracle and the
    pattern-oblivious baseline call this on *connected* vertex sets only
    (:func:`connected_vertex_sets`) — a connected pattern's image is
    always connected — which is what makes it cheaper than the
    all-combinations brute force.
    """
    k = pattern.num_vertices
    sub = _induced_pattern(graph, combo)
    if sub.num_edges < pattern.num_edges:
        return []
    if induced and sub.num_edges != pattern.num_edges:
        return []
    autos = (
        automorphisms
        if automorphisms is not None
        else pattern.automorphisms()
    )
    reps = set()
    for perm in _hom_permutations(sub, pattern, induced=induced):
        mapping = tuple(combo[perm[u]] for u in range(k))
        # Canonical class representative under Aut(P).
        reps.add(
            min(tuple(mapping[a[u]] for u in range(k)) for a in autos)
        )
    return sorted(reps)


def _hom_permutations(sub: Pattern, pattern: Pattern, *, induced: bool):
    """Injective label-compatible mappings of ``pattern`` onto ``sub``.

    Yields permutations ``perm`` with ``perm[u_pattern] = u_sub`` such
    that every pattern edge is present in ``sub`` (and, when
    ``induced``, every pattern non-edge is absent).
    """
    k = pattern.num_vertices
    for perm in itertools.permutations(range(k)):
        if not all(
            _labels_compatible(pattern.label(u), sub.label(perm[u]))
            for u in range(k)
        ):
            continue
        if not all(
            sub.has_edge(perm[u], perm[v]) for u, v in pattern.edges
        ):
            continue
        if induced and sub.num_edges != pattern.num_edges:
            continue
        yield perm


def brute_force_count(graph, pattern: Pattern, *, induced: bool) -> int:
    """Number of distinct matches (see :func:`brute_force_embeddings`)."""
    return len(brute_force_embeddings(graph, pattern, induced=induced))


def _induced_pattern(graph, combo: Sequence[int]) -> Pattern:
    index: Dict[int, int] = {v: i for i, v in enumerate(combo)}
    edges = [
        (index[u], index[v])
        for i, u in enumerate(combo)
        for v in combo[i + 1 :]
        if graph.has_edge(u, v)
    ]
    data_labels = getattr(graph, "labels", None)
    labels = (
        [int(data_labels[v]) for v in combo]
        if data_labels is not None
        else None
    )
    return Pattern(len(combo), edges, labels=labels)
