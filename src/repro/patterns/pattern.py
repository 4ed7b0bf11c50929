"""Pattern (query graph) representation.

A pattern is a small connected undirected graph on vertices ``0..k-1``
(paper §II-A).  Patterns stay tiny (k <= ~9), so this class favours
clarity over asymptotics: adjacency is a tuple of frozensets and the
automorphism group is found by checking all k! permutations.
"""

from __future__ import annotations

import functools
import itertools
from typing import FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..errors import PatternError

__all__ = ["Pattern"]

Edge = Tuple[int, int]
Permutation = Tuple[int, ...]

#: Bound of the canonical-form memo: room for every relabeling (5! =
#: 120) of about 34 five-vertex patterns.
CANONICAL_MEMO_ENTRIES = 4096


class Pattern:
    """An immutable small undirected graph used as a mining query.

    Parameters
    ----------
    num_vertices:
        Number of pattern vertices; vertices are ``0..num_vertices-1``.
    edges:
        Iterable of (u, v) pairs.  Order and duplicates don't matter;
        self loops are rejected.
    name:
        Optional human-readable name (``"triangle"``, ``"4-cycle"``, ...).
    """

    __slots__ = ("_n", "_adj", "_edges", "_name", "_autos", "_labels")

    def __init__(
        self,
        num_vertices: int,
        edges: Iterable[Edge],
        *,
        name: str = "",
        labels: Optional[Sequence[Optional[int]]] = None,
    ) -> None:
        if num_vertices < 1:
            raise PatternError("pattern needs at least one vertex")
        adj: List[set] = [set() for _ in range(num_vertices)]
        canonical_edges = set()
        for u, v in edges:
            if u == v:
                raise PatternError(f"self loop at pattern vertex {u}")
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise PatternError(
                    f"edge ({u}, {v}) out of range for {num_vertices} vertices"
                )
            adj[u].add(v)
            adj[v].add(u)
            canonical_edges.add((min(u, v), max(u, v)))
        self._n = num_vertices
        self._adj: Tuple[FrozenSet[int], ...] = tuple(
            frozenset(s) for s in adj
        )
        self._edges: Tuple[Edge, ...] = tuple(sorted(canonical_edges))
        self._name = name
        self._autos: List[Permutation] | None = None
        if labels is None:
            self._labels: Tuple[Optional[int], ...] = (None,) * num_vertices
        else:
            labels = tuple(labels)
            if len(labels) != num_vertices:
                raise PatternError(
                    f"{len(labels)} labels for {num_vertices} vertices"
                )
            for lab in labels:
                if lab is not None and (not isinstance(lab, int) or lab < 0):
                    raise PatternError("labels must be None or ints >= 0")
            self._labels = labels

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self._name

    @property
    def num_vertices(self) -> int:
        return self._n

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    @property
    def edges(self) -> Tuple[Edge, ...]:
        """Edges as sorted (u, v) pairs with u < v."""
        return self._edges

    def neighbors(self, u: int) -> FrozenSet[int]:
        return self._adj[u]

    def degree(self, u: int) -> int:
        return len(self._adj[u])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj[u]

    def vertices(self) -> range:
        return range(self._n)

    @property
    def labels(self) -> Tuple[Optional[int], ...]:
        """Per-vertex label constraints; ``None`` entries are wildcards."""
        return self._labels

    @property
    def is_labeled(self) -> bool:
        return any(lab is not None for lab in self._labels)

    def label(self, u: int) -> Optional[int]:
        return self._labels[u]

    # ------------------------------------------------------------------
    # Structure predicates
    # ------------------------------------------------------------------
    def is_connected(self) -> bool:
        if self._n == 1:
            return True
        seen = {0}
        frontier = [0]
        while frontier:
            u = frontier.pop()
            for v in self._adj[u]:
                if v not in seen:
                    seen.add(v)
                    frontier.append(v)
        return len(seen) == self._n

    def is_clique(self) -> bool:
        return self.num_edges == self._n * (self._n - 1) // 2

    # ------------------------------------------------------------------
    # Isomorphism machinery
    # ------------------------------------------------------------------
    def adjacency_bits(self, perm: Sequence[int] | None = None) -> int:
        """Upper-triangular adjacency matrix packed into an int.

        Bit (i, j), i < j, is set when ``perm[i]`` and ``perm[j]`` are
        adjacent.  With ``perm=None`` the identity labelling is used.
        Used for canonical forms and fast permutation checks.
        """
        perm = tuple(perm) if perm is not None else tuple(range(self._n))
        bits = 0
        k = 0
        for i in range(self._n):
            for j in range(i + 1, self._n):
                if perm[j] in self._adj[perm[i]]:
                    bits |= 1 << k
                k += 1
        return bits

    def canonical_form(self):
        """Canonical key under vertex permutation.

        Unlabeled patterns return the smallest ``adjacency_bits`` (an
        int, as motif enumeration expects); labeled patterns return the
        lexicographically smallest ``(bits, label-vector)`` pair.  Two
        patterns are isomorphic iff their vertex counts and canonical
        forms agree.

        The form is a pure function of ``(num_vertices, edges,
        labels)``, so it is memoised on that triple in a bounded
        module-level LRU (:data:`CANONICAL_MEMO_ENTRIES`): a served
        stream re-keys the same relabeled patterns over and over.
        """
        return _canonical_form(self._n, self._edges, self._labels)

    def _search_canonical_form(self):
        """The permutation search behind :meth:`canonical_form`.

        A uniformly labeled clique skips the k! permutation search:
        every permutation fixes it, so its form is the full bit mask
        (with the label vector) — a 40-clique request keys in O(k²).
        """
        if self.is_clique() and len(set(self._labels)) == 1:
            bits = (1 << len(self._edges)) - 1
            return (bits, self._labels) if self.is_labeled else bits
        if not self.is_labeled:
            return min(
                self.adjacency_bits(perm)
                for perm in itertools.permutations(range(self._n))
            )
        encoded = [
            -1 if lab is None else lab for lab in self._labels
        ]
        return min(
            (
                self.adjacency_bits(perm),
                tuple(encoded[perm[i]] for i in range(self._n)),
            )
            for perm in itertools.permutations(range(self._n))
        )

    def automorphisms(self) -> List[Permutation]:
        """All permutations that map the pattern onto itself.

        The identity is always included.  Degree-sequence pruning keeps
        this fast for the pattern sizes GPM uses; the result is cached
        (the compiler scores many matching orders against it).
        """
        if self._autos is not None:
            return list(self._autos)
        base = self.adjacency_bits()
        degrees = [self.degree(u) for u in self.vertices()]
        # Automorphisms must preserve labels too: breaking symmetry
        # between differently labeled vertices would drop valid matches.
        candidates: List[List[int]] = [
            [
                v
                for v in self.vertices()
                if degrees[v] == degrees[u]
                and self._labels[v] == self._labels[u]
            ]
            for u in self.vertices()
        ]
        result: List[Permutation] = []

        def backtrack(mapping: List[int], used: List[bool]) -> None:
            u = len(mapping)
            if u == self._n:
                perm = tuple(mapping)
                if self.adjacency_bits(perm) == base:
                    result.append(perm)
                return
            for v in candidates[u]:
                if used[v]:
                    continue
                # Partial consistency: edges between u and mapped prefix
                # must be preserved.
                ok = all(
                    (w in self._adj[u]) == (mapping[w] in self._adj[v])
                    for w in range(u)
                )
                if ok:
                    mapping.append(v)
                    used[v] = True
                    backtrack(mapping, used)
                    mapping.pop()
                    used[v] = False

        backtrack([], [False] * self._n)
        self._autos = result
        return list(result)

    def relabel(self, perm: Sequence[int]) -> "Pattern":
        """Return the pattern with vertex u renamed to ``perm[u]``."""
        if sorted(perm) != list(range(self._n)):
            raise PatternError("relabel requires a permutation of vertices")
        edges = [(perm[u], perm[v]) for u, v in self._edges]
        labels: List[Optional[int]] = [None] * self._n
        for u in self.vertices():
            labels[perm[u]] = self._labels[u]
        return Pattern(
            self._n,
            edges,
            name=self._name,
            labels=labels if self.is_labeled else None,
        )

    def with_labels(self, labels: Sequence[Optional[int]]) -> "Pattern":
        """Copy of this pattern with the given per-vertex labels."""
        return Pattern(self._n, self._edges, name=self._name, labels=labels)

    def induced_subpattern(self, vertices: Sequence[int]) -> "Pattern":
        """Induced subgraph on the given vertices, relabelled to 0..m-1."""
        index = {v: i for i, v in enumerate(vertices)}
        edges = [
            (index[u], index[v])
            for u, v in self._edges
            if u in index and v in index
        ]
        labels = [self._labels[v] for v in vertices]
        return Pattern(
            len(vertices),
            edges,
            labels=labels if self.is_labeled else None,
        )

    # ------------------------------------------------------------------
    # Interop
    # ------------------------------------------------------------------
    def to_networkx(self):
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(self.vertices())
        g.add_edges_from(self._edges)
        return g

    @classmethod
    def from_networkx(cls, g, *, name: str = "") -> "Pattern":
        mapping = {node: i for i, node in enumerate(sorted(g.nodes()))}
        edges = [(mapping[u], mapping[v]) for u, v in g.edges()]
        return cls(g.number_of_nodes(), edges, name=name)

    # ------------------------------------------------------------------
    # Dunder methods
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        """Identifier equality (vertex count, edge set, labels) — not
        isomorphism."""
        if not isinstance(other, Pattern):
            return NotImplemented
        return (
            self._n == other._n
            and self._edges == other._edges
            and self._labels == other._labels
        )

    def __hash__(self) -> int:
        return hash((self._n, self._edges, self._labels))

    def __iter__(self) -> Iterator[int]:
        return iter(self.vertices())

    def __repr__(self) -> str:
        label = f" {self._name!r}" if self._name else ""
        return f"Pattern({self._n} vertices, {self.num_edges} edges{label})"


@functools.lru_cache(maxsize=CANONICAL_MEMO_ENTRIES)
def _canonical_form(
    num_vertices: int,
    edges: Tuple[Edge, ...],
    labels: Tuple[Optional[int], ...],
):
    """Memoised :meth:`Pattern.canonical_form` of a literal pattern."""
    return Pattern(
        num_vertices, edges, labels=labels
    )._search_canonical_form()
