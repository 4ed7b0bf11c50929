"""k-MC by decomposition: count the sparse motifs in closed form.

The merged k-motif :class:`~repro.compiler.plan.MultiPlan` enumerates
every vertex-induced motif one embedding at a time, and wedges, 3-stars
and 4-paths dominate that enumeration.  DwarvesGraph counts a pattern
from sub-pattern counts instead; for motifs the special case is exact:

* the *edge-induced* count N_i of every motif is an integer sum over
  vertex degrees d and per-edge codegrees c(u, v) = |N(u) ∩ N(v)|
  (:data:`_CLOSED_FORMS`), except for the 4-cycle and the 4-clique,
  which their own chain plans (``compile_pattern(m, induced=False)``)
  enumerate;
* vertex-induced counts V follow from N = C·V, where ``C[i][j]`` is the
  number of spanning edge-subsets of motif j isomorphic to motif i.  In
  :func:`~repro.patterns.enumerate_motifs` order C is unit upper
  triangular, so back-substitution is exact integer arithmetic.

Sizes whose tree-shaped motifs have no closed form (k = 2, 5) get no
:class:`MotifCountPlan` and keep the ``MultiPlan``; so do directed
graphs, whose adjacency has no codegree lattice.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Optional, Tuple, Union

import numpy as np

from ..compiler.compiler import compile_motifs, compile_pattern
from ..compiler.plan import ExecutionPlan
from ..patterns import (
    Pattern,
    classify_motif,
    diamond,
    enumerate_motifs,
    path,
    star,
    tailed_triangle,
    triangle,
    wedge,
)
from .counters import OpCounters
from .explore import MiningResult
from .kernels import (
    packed_rows_win,
    segment_sums,
    segmented_pair_count_below,
)

__all__ = ["MotifCountPlan", "count_motifs", "motif_count_plan"]


class _Degrees(NamedTuple):
    """Degree statistics the closed forms sum over (int64 arrays)."""

    d: np.ndarray  #: per vertex
    du: np.ndarray  #: per undirected edge (u < v): d(u)
    dv: np.ndarray  #: d(v)
    c: np.ndarray  #: codegree |N(u) ∩ N(v)|


def _total(values: np.ndarray) -> int:
    return int(np.sum(values, dtype=np.int64))


#: Edge-induced count of a motif from degrees and codegrees, keyed by
#: the motif's canonical form.  Every sum counts each subgraph exactly
#: once: a wedge / 3-star by its centre, a triangle by its 3 edges, a
#: 4-path by its middle edge (minus the closing common neighbour), a
#: tailed triangle by its triangle's edges (each tail vertex is seen
#: from its 2 triangle edges), a diamond by its chord.
_CLOSED_FORMS = {
    (p.num_vertices, p.canonical_form()): form
    for p, form in (
        (wedge(), lambda s: _total(s.d * (s.d - 1) // 2)),
        (star(3), lambda s: _total(s.d * (s.d - 1) * (s.d - 2) // 6)),
        (triangle(), lambda s: _total(s.c) // 3),
        (path(4), lambda s: _total((s.du - 1) * (s.dv - 1)) - _total(s.c)),
        (
            tailed_triangle(),
            lambda s: _total(s.c * (s.du + s.dv - 4)) // 2,
        ),
        (diamond(), lambda s: _total(s.c * (s.c - 1) // 2)),
    )
}

Term = Union[Callable[[_Degrees], int], ExecutionPlan]


@dataclass(frozen=True)
class MotifCountPlan:
    """How to count the k-motifs without the merged plan.

    ``terms[i]`` yields motif i's edge-induced count: a closed form over
    :class:`_Degrees`, or a chain plan to mine.  ``matrix`` is the
    lattice C (row i, column j).
    """

    k: int
    motifs: Tuple[Pattern, ...]
    matrix: Tuple[Tuple[int, ...], ...]
    terms: Tuple[Term, ...]

    @property
    def chains(self) -> Tuple[ExecutionPlan, ...]:
        return tuple(t for t in self.terms if isinstance(t, ExecutionPlan))


def _lattice(motifs: Tuple[Pattern, ...]) -> Tuple[Tuple[int, ...], ...]:
    """C[i][j]: spanning edge-subsets of motif j isomorphic to motif i."""
    k, m = motifs[0].num_vertices, len(motifs)
    matrix = [[0] * m for _ in range(m)]
    for j, motif in enumerate(motifs):
        for size in range(k - 1, motif.num_edges + 1):
            for subset in itertools.combinations(motif.edges, size):
                sub = Pattern(k, subset)
                if sub.is_connected():
                    i = classify_motif(sub, motifs)
                    assert i is not None
                    matrix[i][j] += 1
    assert all(
        matrix[i][i] == 1 and not any(matrix[i][:i]) for i in range(m)
    ), "motif lattice is not unit upper-triangular"
    return tuple(tuple(row) for row in matrix)


@lru_cache(maxsize=None)
def motif_count_plan(k: int) -> Optional[MotifCountPlan]:
    """The decomposition of k-MC, or None when a tree-shaped k-motif
    has no closed form (k = 2, 5: those sizes keep the MultiPlan)."""
    motifs = tuple(enumerate_motifs(k))
    terms = []
    for motif in motifs:
        form = _CLOSED_FORMS.get((k, motif.canonical_form()))
        if form is None and motif.num_edges == k - 1:
            return None
        terms.append(form or compile_pattern(motif, induced=False))
    return MotifCountPlan(k, motifs, _lattice(motifs), tuple(terms))


def _degrees(graph) -> _Degrees:
    """Degrees plus every undirected edge's codegree.

    Each edge's codegree is ``popcount(row(u) & row(v))`` over
    :meth:`~repro.graph.CSRGraph.arc_rows` where that reads fewer words
    than the gather path moves ids (:func:`kernels.packed_rows_win`).
    Otherwise each edge gathers the neighbour list of its lower-degree
    endpoint and probes the other endpoint's
    :meth:`~repro.graph.CSRGraph.arc_map` row; past the map's size cap
    it gathers both lists and intersects them with the keyed row-wise
    kernel.
    """
    n = graph.num_vertices
    d = graph.degrees().astype(np.int64)
    src = np.repeat(np.arange(n, dtype=np.int64), d)
    dst = graph.indices.astype(np.int64)
    keep = src < dst
    u, v = src[keep], dst[keep]
    swap = d[u] > d[v]
    low, high = np.where(swap, v, u), np.where(swap, u, v)
    rows = None
    if packed_rows_win(len(low) * -(-n // 64), int(d[low].sum())):
        rows = graph.arc_rows()  # None past the arc map's cap
    if rows is not None:
        both = rows.take(u, axis=0)
        np.bitwise_and(both, rows.take(v, axis=0), out=both)
        c = np.bitwise_count(both).sum(axis=1, dtype=np.int64)
        return _Degrees(d, d[u], d[v], c)
    concat, offsets = graph.gather_neighbors(low)
    arcs = graph.arc_map()
    if arcs is not None:
        keys = np.repeat(high * n, offsets[1:] - offsets[:-1])
        keys += concat
        c = segment_sums(arcs.take(keys), offsets)
    else:
        other, other_offsets = graph.gather_neighbors(high)
        c, _ = segmented_pair_count_below(
            concat, offsets, other, other_offsets, keyspace=max(1, n)
        )
    return _Degrees(d, d[u], d[v], c)


def count_motifs(
    graph,
    plan: MotifCountPlan,
    mine: Callable[[object], MiningResult],
) -> MiningResult:
    """Vertex-induced k-motif counts through the decomposition.

    ``mine`` runs one compiled plan on ``graph`` (an engine, a pool's
    ``mine``, ...).  Chain plans go through it; the closed forms run
    here and charge nothing, so the counters are the merge of the chain
    plans' counters (none for k = 3) with ``matches`` the sum of the
    returned counts.  A directed graph mines the merged plan instead.
    """
    if graph.directed:
        return mine(compile_motifs(plan.k))
    degrees = _degrees(getattr(graph, "graph", graph))
    counters = OpCounters()
    edge_counts = []
    for term in plan.terms:
        if isinstance(term, ExecutionPlan):
            result = mine(term)
            counters += result.counters
            edge_counts.append(result.counts[0])
        else:
            edge_counts.append(term(degrees))
    counts = [0] * len(edge_counts)
    for i in reversed(range(len(counts))):
        counts[i] = edge_counts[i] - sum(
            plan.matrix[i][j] * counts[j] for j in range(i + 1, len(counts))
        )
    counters.matches = sum(counts)
    return MiningResult(counts=tuple(counts), counters=counters)
