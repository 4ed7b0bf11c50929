"""Brute-force matching oracle, independent of the compiler.

Every mining backend in this repository executes a *compiled* plan, so a
compiler bug would propagate to all of them and cross-backend agreement
would prove nothing.  The oracle breaks that dependency: it counts
matches straight from the :mod:`repro.patterns` isomorphism machinery,
never touching matching orders, symmetry conditions, or set-op kernels.

Enumeration uses the repository's one ESU (Wernicke's algorithm),
:func:`repro.patterns.isomorphism.connected_vertex_sets`: every
*connected* k-vertex set is visited exactly once, and each set is
classified with :func:`repro.patterns.matches_on_vertex_set`.  A
connected pattern's image under any (injective) homomorphism is
connected, so restricting to connected vertex sets loses nothing while
cutting the ``C(n, k)``-combinations cost of the plain brute force — the
oracle stays usable on the few-hundred-vertex graphs the fuzzer
generates.  Disconnected patterns (which the compiler rejects anyway)
fall back to the all-combinations enumerator.

The pattern-oblivious baseline (:mod:`repro.engine.oblivious`) walks the
same ESU and applies the same per-set rule through a memo over subgraph
shapes, which leaves its modelled one isomorphism test per subgraph
alone; the oracle classifies every set afresh, so it stays the plain
reference.
"""

from __future__ import annotations

from typing import List, Tuple

from ..patterns import (
    Pattern,
    brute_force_embeddings,
    connected_vertex_sets,
    matches_on_vertex_set,
)

__all__ = ["connected_vertex_sets", "oracle_count", "oracle_embeddings"]


def oracle_embeddings(
    graph, pattern: Pattern, *, induced: bool = False
) -> List[Tuple[int, ...]]:
    """All distinct matches, one canonical representative per class.

    Same match semantics as
    :func:`repro.patterns.brute_force_embeddings` (completeness +
    uniqueness under the pattern's automorphism group, §II-A), same
    return format.  ``graph`` may be a CSRGraph or a LabeledGraph.
    """
    if not pattern.is_connected():
        # No connected-set shortcut applies; defer to the plain
        # enumerator (compiler-independent too, just slower).
        return brute_force_embeddings(graph, pattern, induced=induced)
    automorphisms = pattern.automorphisms()
    matches: List[Tuple[int, ...]] = []
    for combo in connected_vertex_sets(graph, pattern.num_vertices):
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


def oracle_count(graph, pattern: Pattern, *, induced: bool = False) -> int:
    """Number of distinct matches (see :func:`oracle_embeddings`)."""
    return len(oracle_embeddings(graph, pattern, induced=induced))
