"""Pattern-oblivious baseline engine (the Gramer/Arabesque model, §III).

Pattern-oblivious systems build the full search tree of connected
subgraphs and test each leaf for isomorphism with the query.  They pay
twice: the tree is far larger than a pruned one (no matching order, no
symmetry order), and every leaf costs an isomorphism test.  The paper's
Table II shows GraphZero beating Gramer — an FPGA accelerator running
this strategy — by 8.3x on average purely through pattern awareness.

Unique subgraph enumeration uses the ESU algorithm (Wernicke 2006):
every connected vertex-induced k-subgraph is visited exactly once, which
mirrors Arabesque's canonicality filter (each subgraph expanded once).
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ReproError
from ..graph.csr import CSRGraph
from ..patterns import Pattern
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
        self._counts = [0] * len(patterns)
        self._embeddings: List[Tuple[int, ...]] = []
        self._collect = False
        self._patterns_labeled = any(p.is_labeled for p in patterns)
        data_labels = getattr(graph, "labels", None)
        # Data labels only matter when some pattern constrains them;
        # otherwise subgraphs stay unlabeled so canonical keys line up.
        self._labels = data_labels if self._patterns_labeled else None
        if self._patterns_labeled and data_labels is None:
            raise ReproError(
                "labeled patterns require a LabeledGraph data graph"
            )
        self._wildcards = any(
            p.is_labeled and None in p.labels for p in patterns
        )
        # Pre-computed pattern keys for cheap classification.  Canonical
        # lookup is exact-match, so wildcard labels force the slower
        # per-pattern isomorphism path.
        self._canon: Dict[object, List[int]] = {}
        for i, p in enumerate(patterns):
            self._canon.setdefault(p.canonical_form(), []).append(i)
        self._pattern_edge_counts = [p.num_edges for p in patterns]

    def run(self, *, collect: bool = False) -> MiningResult:
        """Enumerate every connected k-subgraph and classify each one."""
        self._collect = collect
        adj_sets = [set(map(int, self.graph.neighbors(v)))
                    for v in self.graph.vertices()]
        self._adj = adj_sets
        for v in self.graph.vertices():
            self.counters.tasks += 1
            extension = {u for u in adj_sets[v] if u > v}
            self._extend([v], extension, v)
        self.counters.matches = sum(self._counts)
        return MiningResult(
            counts=tuple(self._counts),
            counters=self.counters,
            embeddings=self._embeddings if collect else None,
        )

    # ------------------------------------------------------------------
    # ESU enumeration
    # ------------------------------------------------------------------
    def _extend(self, sub: List[int], extension: set, root: int) -> None:
        if len(sub) == self.k:
            self._classify(tuple(sub))
            return
        ext = sorted(extension)
        neighborhood = set().union(*(self._adj[w] for w in sub)) | set(sub)
        for i, u in enumerate(ext):
            exclusive = {
                w
                for w in self._adj[u]
                if w > root and w not in neighborhood
            }
            self._extend(
                sub + [u], set(ext[i + 1 :]) | exclusive, root
            )

    # ------------------------------------------------------------------
    # Classification (the expensive isomorphism tests)
    # ------------------------------------------------------------------
    def _classify(self, combo: Tuple[int, ...]) -> None:
        self.counters.subgraphs_enumerated += 1
        if (
            self.max_subgraphs is not None
            and self.counters.subgraphs_enumerated > self.max_subgraphs
        ):
            raise BudgetExceeded(
                f"exceeded {self.max_subgraphs} enumerated subgraphs"
            )
        edges = [
            (i, j)
            for i, j in itertools.combinations(range(self.k), 2)
            if combo[j] in self._adj[combo[i]]
        ]
        sub_labels = (
            [int(self._labels[v]) for v in combo]
            if self._labels is not None
            else None
        )
        sub = Pattern(self.k, edges, labels=sub_labels)
        self.counters.isomorphism_tests += 1
        if self.induced and not self._wildcards:
            # Fast path: exact labels (or none) mean at most one match
            # class per enumerated subgraph — a canonical-form lookup.
            hits = self._canon.get(sub.canonical_form(), ())
            for index in hits:
                self._counts[index] += 1
                if self._collect:
                    self._embeddings.append(combo)
            return
        for index, pattern in enumerate(self.patterns):
            if sub.num_edges < pattern.num_edges:
                continue
            found = self._match_classes(sub, pattern)
            self._counts[index] += found
            if self._collect and found:
                self._embeddings.extend([combo] * found)

    def _match_classes(self, sub: Pattern, pattern: Pattern) -> int:
        """Matches of ``pattern`` on ``sub``: hom count over |Aut(P)|.

        The automorphism group acts freely on the injective mappings,
        so the division is exact.  For unlabeled edge-induced patterns
        this equals the number of distinct edge-set images (six diamonds
        in a K4); with wildcard labels it correctly counts each distinct
        label assignment.
        """
        from ..patterns.isomorphism import _hom_permutations

        homs = sum(
            1
            for _ in _hom_permutations(sub, pattern, induced=self.induced)
        )
        if not homs:
            return 0
        automorphisms = len(pattern.automorphisms())
        assert homs % automorphisms == 0, "Aut(P) must act freely"
        return homs // automorphisms


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
