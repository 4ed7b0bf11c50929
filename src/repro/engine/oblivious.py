"""Pattern-oblivious baseline engine (the Gramer/Arabesque model, §III).

Pattern-oblivious systems build the full search tree of connected
subgraphs and test each leaf for isomorphism with the query.  They pay
twice: the tree is far larger than a pruned one (no matching order, no
symmetry order), and every leaf costs an isomorphism test.  The paper's
Table II shows GraphZero beating Gramer — an FPGA accelerator running
this strategy — by 8.3x on average purely through pattern awareness.

Enumeration is the repository's one ESU (Wernicke 2006),
:func:`repro.patterns.isomorphism.connected_vertex_sets`, which the
verification oracle walks too: every connected k-vertex set is visited
exactly once, mirroring Arabesque's canonicality filter (each subgraph
expanded once).  Each set is classified by the oracle's rule,
:func:`repro.patterns.isomorphism.matches_on_vertex_set`, through a memo
keyed by the set's shape — its induced edges over position pairs, plus
its data labels when some pattern is labeled.  The memo is a host-side
shortcut only: the modelled Gramer work still charges one isomorphism
test per enumerated subgraph.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ReproError
from ..graph.csr import CSRGraph
from ..patterns import Pattern
from ..patterns.isomorphism import connected_vertex_sets, matches_on_vertex_set
from .counters import OpCounters
from .explore import MiningResult

__all__ = ["ObliviousEngine", "mine_oblivious"]


class BudgetExceeded(ReproError):
    """Raised when enumeration exceeds the configured subgraph budget."""


class ObliviousEngine:
    """Pattern-oblivious extend-and-check miner.

    Parameters
    ----------
    graph:
        The undirected data graph.
    patterns:
        Query patterns, all of the same size k.
    induced:
        Vertex-induced (k-MC) vs edge-induced (SL/clique) matching.
    max_subgraphs:
        Safety budget: raise :class:`BudgetExceeded` after enumerating
        this many subgraphs (pattern-oblivious search trees explode on
        dense graphs, which is rather the point).
    """

    def __init__(
        self,
        graph: CSRGraph,
        patterns: Sequence[Pattern],
        *,
        induced: bool = False,
        max_subgraphs: Optional[int] = None,
    ) -> None:
        sizes = {p.num_vertices for p in patterns}
        if len(sizes) != 1:
            raise ReproError("all patterns must have the same size")
        self.graph = graph
        self.patterns = list(patterns)
        self.k = sizes.pop()
        self.induced = induced
        self.max_subgraphs = max_subgraphs
        self.counters = OpCounters()
        data_labels = getattr(graph, "labels", None)
        if any(p.is_labeled for p in patterns):
            if data_labels is None:
                raise ReproError(
                    "labeled patterns require a LabeledGraph data graph"
                )
            # Data labels only matter when some pattern constrains them.
            self._labels: Optional[List[int]] = data_labels.tolist()
        else:
            self._labels = None

    def run(self, *, collect: bool = False) -> MiningResult:
        """Enumerate every connected k-subgraph and classify each one.

        With ``collect=True`` the embeddings are the ESU's sorted vertex
        tuples, in its order, each repeated once per match class.
        """
        graph, counters, labels = self.graph, self.counters, self._labels
        counters.tasks += graph.num_vertices
        neighbors = [
            set(graph.neighbors(v).tolist()) for v in graph.vertices()
        ]
        pairs = [
            (i, j, 1 << bit)
            for bit, (i, j) in enumerate(
                itertools.combinations(range(self.k), 2)
            )
        ]
        automorphisms = [p.automorphisms() for p in self.patterns]
        counts = [0] * len(self.patterns)
        embeddings: List[Tuple[int, ...]] = []
        # Subgraph shape -> matches per pattern (matches_on_vertex_set's
        # count depends only on the induced edges and labels by position).
        memo: Dict[object, Tuple[int, ...]] = {}
        for combo in connected_vertex_sets(graph, self.k):
            counters.subgraphs_enumerated += 1
            if (
                self.max_subgraphs is not None
                and counters.subgraphs_enumerated > self.max_subgraphs
            ):
                raise BudgetExceeded(
                    f"exceeded {self.max_subgraphs} enumerated subgraphs"
                )
            counters.isomorphism_tests += 1
            mask = 0
            for i, j, bit in pairs:
                if combo[j] in neighbors[combo[i]]:
                    mask |= bit
            key = (
                mask
                if labels is None
                else (mask, tuple([labels[v] for v in combo]))
            )
            found = memo.get(key)
            if found is None:
                found = memo[key] = tuple(
                    len(
                        matches_on_vertex_set(
                            graph, pattern, combo,
                            induced=self.induced, automorphisms=autos,
                        )
                    )
                    for pattern, autos in zip(self.patterns, automorphisms)
                )
            for index, n in enumerate(found):
                counts[index] += n
            if collect:
                embeddings.extend([combo] * sum(found))
        counters.matches += sum(counts)
        return MiningResult(
            counts=tuple(counts),
            counters=counters,
            embeddings=embeddings if collect else None,
        )


def mine_oblivious(
    graph: CSRGraph,
    pattern: Pattern,
    *,
    induced: bool = False,
    max_subgraphs: Optional[int] = None,
    collect: bool = False,
) -> MiningResult:
    """Convenience wrapper: pattern-oblivious mining of one pattern."""
    engine = ObliviousEngine(
        graph, [pattern], induced=induced, max_subgraphs=max_subgraphs
    )
    return engine.run(collect=collect)
