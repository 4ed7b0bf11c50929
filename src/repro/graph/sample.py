"""Graph sampling utilities.

Used by the Table II bench: the pattern-oblivious baseline enumerates
*every* connected k-subgraph, which explodes on the full stand-ins, so
the three-system comparison runs on induced subsamples (the ordering it
demonstrates is scale-free; DESIGN.md §2).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .csr import CSRGraph

__all__ = ["induced_subgraph", "random_vertex_sample"]


def induced_subgraph(
    graph: CSRGraph, vertices: Sequence[int], *, name: str = ""
) -> CSRGraph:
    """Vertex-induced subgraph, relabelled to 0..len(vertices)-1.

    The renumbering is order preserving (sorted by original id), so
    vid-comparison constraints (symmetry orders) remain valid inside the
    subgraph.  Directedness is preserved.
    """
    keep = np.unique(np.asarray(vertices, dtype=np.int64))
    neighbors, offsets = graph.gather_neighbors(keep)
    inside = np.isin(neighbors, keep)
    # Row i keeps the in-set arcs among neighbors[offsets[i]:offsets[i+1]];
    # a sorted, loop-free (and, undirected, symmetric) CSR stays so.
    kept = np.zeros(len(neighbors) + 1, dtype=np.int64)
    np.cumsum(inside, out=kept[1:])
    return CSRGraph(
        kept[offsets],
        np.searchsorted(keep, neighbors[inside]),
        directed=graph.directed,
        name=name or (graph.name + "-sub" if graph.name else "sub"),
        validate=False,
    )


def random_vertex_sample(
    graph: CSRGraph, num_vertices: int, *, seed: int = 0, name: str = ""
) -> CSRGraph:
    """Induced subgraph on a uniform random vertex subset."""
    n = min(num_vertices, graph.num_vertices)
    rng = np.random.default_rng(seed)
    chosen = rng.choice(graph.num_vertices, size=n, replace=False)
    return induced_subgraph(graph, chosen.tolist(), name=name)
