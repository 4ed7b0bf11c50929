"""Partitioned mining for graphs larger than memory (paper §VII-D).

"FlexMiner does support larger graphs as long as they fit in memory.
To support graphs larger than memory capacity, we can add graph
partitioning support [5, 40, 80] in our framework."

This module implements that extension.  The key observation: every
match is owned by exactly one *root* (its depth-0 vertex under the
matching/symmetry order), and a match's vertices all lie within
``k - 1`` hops of its root.  So the root set can be partitioned, and
each partition mined independently against the induced subgraph of its
roots' ``(k-1)``-hop ball (the *halo*) — a working set that is a small
fraction of the full graph for good partitions.  Vertex ids are
remapped order-preservingly, which keeps the symmetry-order vid bounds
valid inside each halo.

Completeness + uniqueness are inherited: the union over partitions
visits every root exactly once, and the per-partition engine is the
verified reference engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..compiler.plan import ExecutionPlan, MultiPlan
from ..errors import ReproError
from ..graph.csr import CSRGraph
from ..graph.orientation import orient_by_degree
from ..graph.sample import induced_subgraph
from .counters import OpCounters
from .explore import MiningResult, PatternAwareEngine

__all__ = [
    "partition_vertices",
    "halo_ball",
    "PartitionStats",
    "PartitionedMiner",
    "mine_partitioned",
]


def partition_vertices(
    num_vertices: int, num_parts: int, *, method: str = "block"
) -> List[np.ndarray]:
    """Split vertex ids into ``num_parts`` disjoint root sets.

    ``block`` gives contiguous ranges (locality friendly); ``stride``
    deals ids round-robin (balances power-law hubs across parts).
    """
    if num_parts < 1:
        raise ReproError("need at least one partition")
    ids = np.arange(num_vertices)
    if method == "block":
        return [part for part in np.array_split(ids, num_parts)]
    if method == "stride":
        return [ids[i::num_parts] for i in range(num_parts)]
    raise ReproError(f"unknown partition method {method!r}")


def halo_ball(
    graph: CSRGraph, roots: Sequence[int], hops: int
) -> np.ndarray:
    """Vertices within ``hops`` hops of any root (roots included)."""
    seen = np.zeros(graph.num_vertices, dtype=bool)
    frontier = np.asarray(roots, dtype=np.int64)
    seen[frontier] = True
    for _ in range(hops):
        if not len(frontier):
            break
        next_frontier = []
        for v in frontier:
            nbrs = graph.neighbors(int(v))
            fresh = nbrs[~seen[nbrs]]
            if len(fresh):
                seen[fresh] = True
                next_frontier.append(fresh)
        frontier = (
            np.concatenate(next_frontier)
            if next_frontier
            else np.empty(0, dtype=np.int64)
        )
    return np.nonzero(seen)[0]


@dataclass
class PartitionStats:
    """Working-set accounting for one mined partition."""

    part: int
    num_roots: int
    halo_vertices: int
    halo_edges: int
    matches: int


class PartitionedMiner:
    """Mine a single-pattern plan partition by partition."""

    def __init__(
        self,
        graph: CSRGraph,
        plan: ExecutionPlan,
        num_parts: int,
        *,
        method: str = "block",
        hops: Optional[int] = None,
    ) -> None:
        if isinstance(plan, MultiPlan):
            raise ReproError(
                "partitioned mining supports single-pattern plans"
            )
        if getattr(plan, "root_label", None) is not None:
            raise ReproError(
                "partitioned mining does not support labeled plans yet"
            )
        self.plan = plan
        # Orientation happens *before* partitioning so ranks are global.
        self.work_graph = (
            orient_by_degree(graph) if plan.oriented else graph
        )
        self.num_parts = num_parts
        self.method = method
        self.hops = (
            hops if hops is not None else plan.num_levels - 1
        )
        self.stats: List[PartitionStats] = []

    def run(self) -> MiningResult:
        """Mine every partition; returns the combined result."""
        # The plan executes on halo subgraphs directly: orientation was
        # already applied, so the per-partition engines must not
        # re-orient.  A copy of the plan with oriented=False does that
        # while keeping the (bound-free) clique steps intact.
        from dataclasses import replace

        local_plan = replace(self.plan, oriented=False)
        counts = 0
        counters = OpCounters()
        self.stats = []
        parts = partition_vertices(
            self.work_graph.num_vertices, self.num_parts,
            method=self.method,
        )
        for index, roots in enumerate(parts):
            if not len(roots):
                self.stats.append(PartitionStats(index, 0, 0, 0, 0))
                continue
            ball = halo_ball(self.work_graph, roots, self.hops)
            halo = induced_subgraph(self.work_graph, ball.tolist())
            # Order-preserving renumbering: position in the sorted ball.
            local_roots = np.searchsorted(ball, roots)
            engine = PatternAwareEngine(
                halo, local_plan, work_graph=halo
            )
            result = engine.run(roots=local_roots.tolist())
            counts += result.counts[0]
            counters.merge(result.counters)
            self.stats.append(
                PartitionStats(
                    part=index,
                    num_roots=len(roots),
                    halo_vertices=halo.num_vertices,
                    halo_edges=halo.num_edges,
                    matches=result.counts[0],
                )
            )
        counters.matches = counts
        return MiningResult(counts=(counts,), counters=counters)

    def max_working_set_edges(self) -> int:
        """Largest per-partition halo (the memory-capacity proxy)."""
        return max((s.halo_edges for s in self.stats), default=0)


def mine_partitioned(
    graph: CSRGraph,
    plan: ExecutionPlan,
    num_parts: int,
    *,
    method: str = "block",
) -> MiningResult:
    """Convenience wrapper around :class:`PartitionedMiner`."""
    return PartitionedMiner(graph, plan, num_parts, method=method).run()