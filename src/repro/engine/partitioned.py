"""Partitioned mining for graphs larger than memory (paper §VII-D).

Every match is owned by one root (its depth-0 vertex) and lies within
``num_levels - 1`` hops of it, so a contiguous block of roots can be
mined on the induced subgraph of its ball (the *halo*) alone.  The
renumbering is order preserving, which keeps symmetry-order bounds
valid, and each block is one walk of the engine over its roots.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Tuple

import numpy as np

from ..compiler.plan import ExecutionPlan, MultiPlan
from ..errors import ReproError
from ..graph.csr import CSRGraph
from ..graph.orientation import orient_by_degree
from ..graph.sample import induced_subgraph
from .counters import OpCounters
from .explore import MiningResult, PatternAwareEngine

__all__ = ["mine_partitioned"]


def mine_partitioned(
    graph: CSRGraph, plan: ExecutionPlan, num_parts: int
) -> Tuple[MiningResult, List[int]]:
    """Mine ``num_parts`` contiguous root blocks, each on its halo.

    Returns the merged result and each part's halo edge count (0 for an
    empty part): the working set a partition needs in memory.
    """
    if isinstance(plan, MultiPlan) or plan.root_label is not None:
        raise ReproError(
            "partitioned mining supports unlabeled single-pattern plans"
        )
    # Orient before cutting, so ranks are global; the halo is then
    # already a DAG and its engine must not orient it again.
    work = orient_by_degree(graph) if plan.oriented else graph
    local_plan = replace(plan, oriented=False)
    count, counters, halo_edges = 0, OpCounters(), []
    for roots in np.array_split(np.arange(work.num_vertices), num_parts):
        seen = np.zeros(work.num_vertices, dtype=bool)
        seen[roots], frontier = True, roots
        for _ in range(plan.num_levels - 1):
            nbrs = work.gather_neighbors(frontier)[0]
            frontier = np.unique(nbrs[~seen[nbrs]])
            seen[frontier] = True
        ball = np.flatnonzero(seen)
        halo = induced_subgraph(work, ball.tolist())
        halo_edges.append(halo.num_edges)
        engine = PatternAwareEngine(halo, local_plan)
        result = engine.run(roots=np.searchsorted(ball, roots).tolist())
        count += result.counts[0]
        counters.merge(result.counters)
    counters.matches = count
    return MiningResult(counts=(count,), counters=counters), halo_edges
