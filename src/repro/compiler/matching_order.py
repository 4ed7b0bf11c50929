"""Matching-order generation (paper §II-B, Fig. 5).

A matching order is a permutation of the pattern vertices such that every
vertex after the first is connected to at least one earlier vertex.  The
analyzer enumerates all such *connected orders* and scores them with the
density-first rule the paper attributes to DUALSIM [49]: prefer orders
whose prefixes contain more edges, compared lexicographically from the
front.  For the diamond this picks the triangle-first order over the
wedge-first one — "the number of triangles is much fewer than the number
of wedges in a sparse graph".
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..errors import CompileError
from ..patterns import Pattern

__all__ = [
    "enumerate_matching_orders",
    "score_matching_order",
    "choose_matching_order",
    "connected_ancestors",
]


def enumerate_matching_orders(pattern: Pattern) -> List[Tuple[int, ...]]:
    """All connected permutations of the pattern vertices.

    Raises :class:`CompileError` for disconnected patterns, which have no
    connected order covering every vertex.
    """
    if not pattern.is_connected():
        raise CompileError("pattern must be connected")
    n = pattern.num_vertices
    orders: List[Tuple[int, ...]] = []

    def backtrack(prefix: List[int], used: set) -> None:
        if len(prefix) == n:
            orders.append(tuple(prefix))
            return
        for v in pattern.vertices():
            if v in used:
                continue
            if prefix and not (pattern.neighbors(v) & used):
                continue
            prefix.append(v)
            used.add(v)
            backtrack(prefix, used)
            prefix.pop()
            used.remove(v)

    backtrack([], set())
    return orders


def score_matching_order(
    pattern: Pattern, order: Sequence[int]
) -> Tuple[int, ...]:
    """Prefix edge-count vector; lexicographically larger is better.

    Entry i is the number of pattern edges inside ``order[: i + 1]``.
    A triangle-first diamond order scores (0, 1, 3, 5); the wedge-first
    one scores (0, 1, 2, 5) and loses at position 2.
    """
    score = []
    edges = 0
    placed: set = set()
    for v in order:
        edges += len(pattern.neighbors(v) & placed)
        placed.add(v)
        score.append(edges)
    return tuple(score)


def _bound_tightness(pattern: Pattern, order: Sequence[int]) -> Tuple[int, ...]:
    """Secondary score: how early and tightly symmetry bounds bind.

    For each depth, the tightness of its vid upper bound is the bound's
    depth + 1 (bounds on recently matched vertices are tighter, since
    symmetry chains decrease), or 0 when unbounded.  Comparing these
    vectors lexicographically prefers orders that prune near the root of
    the search tree — this is what separates the paper's wedge-shaped
    4-cycle order (Listing 1) from the equal-density path order, and it
    is worth 2-4x in explored tree size on power-law graphs.
    """
    from .symmetry import symmetry_conditions  # local: avoid cycle

    conditions = symmetry_conditions(pattern, order)
    tightness = [0] * pattern.num_vertices
    for a, b in conditions:
        tightness[b] = max(tightness[b], a + 1)
    return tuple(tightness[1:])


def choose_matching_order(pattern: Pattern) -> Tuple[int, ...]:
    """Pick the best matching order deterministically.

    Primary key: prefix-density score (denser prefixes prune more).
    Ties break by symmetry-bound tightness (earlier, tighter bounds
    shrink the tree further), then by the permutation itself so the
    result is stable across runs.  That is ``max`` over
    :func:`enumerate_matching_orders`, found without scoring every
    order: only the densest prefixes of each length grow (exact: any
    connected prefix extends to a full connected order), and tightness
    is scored once per automorphism class (an automorphism keeps the
    depth-space conditions; the class's smallest order stands in).
    """
    if pattern.is_clique():
        # Every order of a clique is equivalent (full symmetry); skip
        # the k! enumeration that large k-CL patterns would otherwise
        # trigger.
        return tuple(pattern.vertices())
    if not pattern.is_connected():
        raise CompileError("pattern must be connected")
    # (prefix, edges inside it), in lexicographic prefix order; every
    # kept prefix has the same (maximal) score vector so far.
    prefixes = [((v,), 0) for v in pattern.vertices()]
    for _ in range(1, pattern.num_vertices):
        grown = []
        for prefix, edges in prefixes:
            placed = set(prefix)
            for v in pattern.vertices():
                gain = 0 if v in placed else len(pattern.neighbors(v) & placed)
                if gain:
                    grown.append((prefix + (v,), edges + gain))
        densest = max(edges for _, edges in grown)
        prefixes = [(p, e) for p, e in grown if e == densest]
    autos = pattern.automorphisms()
    seen: set = set()
    best: Tuple[int, ...] = ()
    best_key: Tuple[int, ...] = ()
    for order, _ in prefixes:
        if order in seen:
            continue
        seen.update(tuple(perm[v] for v in order) for perm in autos)
        key = _bound_tightness(pattern, order)
        if not best or key > best_key:
            best, best_key = order, key
    return best


def connected_ancestors(
    pattern: Pattern, order: Sequence[int]
) -> List[Tuple[int, ...]]:
    """CA sets per depth, as depths into the embedding (paper §II-B).

    ``result[d]`` lists the depths ``j < d`` whose pattern vertex is
    adjacent to the pattern vertex matched at depth d.  ``result[0]`` is
    always empty.
    """
    position = {v: d for d, v in enumerate(order)}
    result: List[Tuple[int, ...]] = []
    for d, v in enumerate(order):
        ca = sorted(
            position[w] for w in pattern.neighbors(v) if position[w] < d
        )
        result.append(tuple(ca))
    return result
