"""Software connectivity-map engine (paper §II-C and §VI preliminaries).

Software GPM systems memoize neighborhood connectivity in a *vector*
c-map: a |V|-entry byte array where entry v holds a bitset of the
embedding depths v is connected to.  Set intersections then become one
query per candidate.  The paper cites an average 2.3x k-CL speedup for
this technique in software [21] while noting its two flaws — O(|V|)
memory per thread and terrible cache behaviour — which motivate the
compact hardware hash-map c-map of §VI.

:class:`CMapSoftwareEngine` executes the same plans as the base engine
but resolves connectivity constraints through a :class:`VectorCMap`,
maintained incrementally on DFS descend/backtrack exactly like Fig. 12.
It is the functional reference the hardware c-map model is validated
against, and its read/write counters reproduce the read-ratio numbers of
§VII-C.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..compiler.plan import VertexStep
from ..graph.csr import CSRGraph
from .explore import PatternAwareEngine
from .setops import bound_below, difference, intersect

__all__ = ["VectorCMap", "CMapSoftwareEngine"]


class VectorCMap:
    """|V|-entry vector c-map with per-depth bitset values.

    Entry semantics match Fig. 12: bit d of ``values[v]`` is set when v
    is adjacent to the embedding vertex at depth d.  Insertions and
    deletions happen in bulk (a whole neighbor list at a time) and are
    naturally stack-ordered, which is the property the simplified
    hardware deletion relies on.
    """

    def __init__(self, num_vertices: int, *, max_depths: int = 8) -> None:
        self.values = np.zeros(num_vertices, dtype=np.uint8)
        self.max_depths = max_depths
        self.reads = 0
        self.writes = 0

    def insert_neighbors(self, neighbors: np.ndarray, depth: int) -> None:
        """Mark every listed vertex as connected to depth ``depth``."""
        if depth >= self.max_depths:
            raise ValueError(
                f"depth {depth} exceeds the {self.max_depths}-bit value"
            )
        self.values[neighbors] |= np.uint8(1 << depth)
        self.writes += len(neighbors)

    def remove_neighbors(self, neighbors: np.ndarray, depth: int) -> None:
        """Backtrack cleanup: clear depth ``depth`` for the listed ids."""
        self.values[neighbors] &= np.uint8(~(1 << depth) & 0xFF)
        self.writes += len(neighbors)

    def query(self, v: int) -> int:
        """Bitset of depths vertex v is connected to (0 if none)."""
        self.reads += 1
        return int(self.values[v])

    def query_many(self, ids: np.ndarray) -> np.ndarray:
        """Vectorized query (one logical read per id)."""
        self.reads += len(ids)
        return self.values[ids]

    @property
    def read_ratio(self) -> float:
        """Fraction of c-map accesses that are reads (§VII-C metric)."""
        total = self.reads + self.writes
        return self.reads / total if total else 0.0


class CMapSoftwareEngine(PatternAwareEngine):
    """Plan executor that replaces set intersections with c-map queries.

    Only the connectivity *checks* change; candidate iteration, symmetry
    bounds, frontier memoization and match counting are inherited, so any
    count divergence from the base engine is a bug (tests enforce
    equality).
    """

    # Leaf candidates must route through the c-map query override, not
    # the base engine's count-only shortcut.
    supports_leaf_counting = False

    def __init__(
        self,
        graph: CSRGraph,
        plan,
        *,
        collect: bool = False,
        use_frontier_memo: bool = True,
        tracer=None,
        metrics=None,
    ) -> None:
        super().__init__(
            graph, plan, collect=collect,
            use_frontier_memo=use_frontier_memo,
            tracer=tracer, metrics=metrics,
        )
        self.cmap = VectorCMap(graph.num_vertices)
        if isinstance(plan.cmap_insert_depths, tuple):
            self._insert_depths = set(plan.cmap_insert_depths)
        else:  # pragma: no cover - defensive
            self._insert_depths = set(plan.cmap_insert_depths)
        self._insert_filter = getattr(plan, "cmap_insert_filter", {})
        # Stack of (depth, inserted ids) for backtrack cleanup.
        self._inserted: List[np.ndarray] = []

    def run(self, roots=None):
        """Mine, then publish vector-c-map traffic to the metrics registry
        (the §VII-C read-ratio series) alongside the inherited counters."""
        result = super().run(roots)
        self.metrics.absorb(
            {
                "reads": self.cmap.reads,
                "writes": self.cmap.writes,
                "read_ratio": self.cmap.read_ratio,
            },
            prefix="engine.cmap.",
        )
        return result

    # ------------------------------------------------------------------
    # c-map maintenance on DFS moves (Fig. 12)
    # ------------------------------------------------------------------
    def _on_descend(self, depth: int, emb: List[int]) -> None:
        if depth not in self._insert_depths:
            return
        neighbors = self._load_adjacency(emb[depth])
        flt = self._insert_filter.get(depth)
        if flt is not None:
            neighbors = bound_below(neighbors, emb[flt])
        self.cmap.insert_neighbors(neighbors, depth)
        self._inserted.append((depth, neighbors))

    def _on_backtrack(self, depth: int, emb: List[int]) -> None:
        if depth not in self._insert_depths:
            return
        stored_depth, neighbors = self._inserted.pop()
        assert stored_depth == depth, "c-map cleanup out of stack order"
        self.cmap.remove_neighbors(neighbors, depth)

    # ------------------------------------------------------------------
    # Connectivity via queries instead of intersections
    # ------------------------------------------------------------------
    def _raw_candidates(self, step: VertexStep, emb: Sequence[int]):
        if self.use_frontier_memo and step.base_step is not None:
            self.counters.frontier_hits += 1
            cands = self._raw_stack[step.base_step]
            checked = step.extra_connected
            forbidden_depths = step.extra_disconnected
        else:
            cands = self._load_adjacency(emb[step.extender])
            checked = step.connected
            forbidden_depths = step.disconnected

        # Depths the c-map covers are resolved by queries; anything else
        # (possible only when memoization is toggled off under a plan
        # compiled with composition hints) falls back to set operations.
        required = 0
        forbidden = 0
        for d in checked:
            if d in self._insert_depths:
                required |= 1 << d
            else:
                cands = intersect(
                    cands, self._load_adjacency(emb[d]), self.counters
                )
        for d in forbidden_depths:
            if d in self._insert_depths:
                forbidden |= 1 << d
            else:
                cands = difference(
                    cands, self._load_adjacency(emb[d]), self.counters
                )
        if required or forbidden:
            bits = self.cmap.query_many(cands)
            mask = (bits & required) == required
            if forbidden:
                mask &= (bits & forbidden) == 0
            cands = cands[mask]
        self._raw_stack[step.depth] = cands
        return cands
