"""Search-tree cardinality estimation and data-aware order selection.

The paper's analyzer picks matching orders with static rules ("the
number of triangles is much fewer than the number of wedges in a sparse
graph", §II-B, following [49]).  This module provides the quantitative
version: closed-form per-level cardinality estimates from cheap data
graph statistics, an exact sampled measurement for validation, and a
``choose_matching_order_for_graph`` that ranks candidate orders by
estimated cost on the *actual* input — a data-aware extension of the
static rule.

Estimation model (documented, deliberately simple):

* a bare-adjacency step multiplies the level size by the mean degree of
  an endpoint reached by an edge (``E[d^2]/E[d]`` — the size-biased
  degree, which is what following an edge samples on power-law graphs);
* every additional connectivity constraint multiplies by the edge
  closing probability ``p ≈ E[d]/n`` scaled by the graph's observed
  triangle closure (transitivity) for the first constraint;
* every vid upper bound halves the candidates (uniform-id assumption);
* disconnected constraints keep ``(1 - p)`` of candidates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..graph.csr import CSRGraph
from ..patterns import Pattern
from .matching_order import enumerate_matching_orders
from .plan import ExecutionPlan

__all__ = [
    "GraphProfile",
    "LevelEstimate",
    "estimate_plan",
    "measure_levels",
    "choose_matching_order_for_graph",
]


@dataclass(frozen=True)
class GraphProfile:
    """The statistics the estimator needs, computed once per graph."""

    num_vertices: int
    mean_degree: float
    size_biased_degree: float
    transitivity: float

    @classmethod
    def of(cls, graph: CSRGraph, *, sample: int = 400) -> "GraphProfile":
        degrees = graph.degrees().astype(np.float64)
        n = graph.num_vertices
        mean = float(degrees.mean()) if n else 0.0
        biased = (
            float((degrees ** 2).mean() / max(degrees.mean(), 1e-9))
            if n
            else 0.0
        )
        return cls(
            num_vertices=n,
            mean_degree=mean,
            size_biased_degree=biased,
            transitivity=_sampled_transitivity(graph, sample),
        )


def _sampled_transitivity(graph: CSRGraph, sample: int) -> float:
    """Fraction of sampled wedges that close into triangles."""
    rng = np.random.default_rng(12345)
    candidates = [
        v for v in range(graph.num_vertices) if graph.degree(v) >= 2
    ]
    if not candidates:
        return 0.0
    closed = 0
    total = 0
    for _ in range(sample):
        v = int(rng.choice(candidates))
        nbrs = graph.neighbors(v)
        i, j = rng.choice(len(nbrs), size=2, replace=False)
        total += 1
        if graph.has_edge(int(nbrs[i]), int(nbrs[j])):
            closed += 1
    return closed / total if total else 0.0


@dataclass(frozen=True)
class LevelEstimate:
    """Estimated tree width and scan volume for one level."""

    depth: int
    nodes: float
    candidates_scanned: float


def estimate_plan(
    plan: ExecutionPlan,
    graph: CSRGraph,
    *,
    profile: Optional[GraphProfile] = None,
) -> List[LevelEstimate]:
    """Closed-form per-level estimates for a plan on a graph."""
    p = profile or GraphProfile.of(graph)
    n = max(p.num_vertices, 1)
    edge_prob = min(p.mean_degree / n, 1.0)

    levels = [LevelEstimate(depth=0, nodes=float(n), candidates_scanned=0.0)]
    nodes = float(n)
    for step in plan.steps:
        base = p.size_biased_degree if step.depth > 1 else p.mean_degree
        survivors = base
        for rank in range(len(step.connected)):
            # The first closure benefits from triangle correlation;
            # further ones approach the independent-edge probability.
            factor = (
                max(p.transitivity, edge_prob)
                if rank == 0
                else edge_prob * 3.0
            )
            survivors *= min(factor, 1.0)
        for _ in step.disconnected:
            survivors *= max(1.0 - edge_prob, 0.0)
        if step.upper_bounds:
            survivors *= 0.5 ** len(step.upper_bounds)
        scanned = nodes * base
        nodes *= survivors
        levels.append(
            LevelEstimate(
                depth=step.depth, nodes=nodes, candidates_scanned=scanned
            )
        )
    return levels


def measure_levels(
    plan: ExecutionPlan,
    graph: CSRGraph,
    *,
    sample_roots: Optional[int] = None,
    seed: int = 0,
) -> List[LevelEstimate]:
    """Exact (or root-sampled) per-level tree sizes, for validation.

    Read off the frontier walker's per-depth tally
    (:meth:`~repro.engine.explore.PatternAwareEngine.level_stats`), so
    the estimate is checked against the engine users run.
    """
    from ..engine.explore import PatternAwareEngine

    roots: Sequence[int]
    scale = 1.0
    if sample_roots is not None and sample_roots < graph.num_vertices:
        rng = np.random.default_rng(seed)
        roots = rng.choice(
            graph.num_vertices, size=sample_roots, replace=False
        ).tolist()
        scale = graph.num_vertices / sample_roots
    else:
        roots = list(graph.vertices())

    engine = PatternAwareEngine(graph, plan)
    engine.run(roots)
    levels = engine.level_stats()
    levels[0] = (len(roots), 0)
    return [
        LevelEstimate(
            depth=d, nodes=rows * scale, candidates_scanned=checked * scale
        )
        for d, (rows, checked) in enumerate(levels)
    ]


def choose_matching_order_for_graph(
    pattern: Pattern, graph: CSRGraph
) -> Tuple[int, ...]:
    """Data-aware order selection: minimize estimated scan volume.

    Evaluates every connected order of the pattern against the graph's
    profile and returns the cheapest.  Falls back to the static choice
    for cliques (all orders equivalent).
    """
    from ..compiler.compiler import compile_pattern

    if pattern.is_clique():
        return tuple(pattern.vertices())
    profile = GraphProfile.of(graph)
    best_order = None
    best_cost = float("inf")
    for order in enumerate_matching_orders(pattern):
        plan = compile_pattern(
            pattern, use_orientation=False, matching_order=order
        )
        cost = sum(
            level.candidates_scanned
            for level in estimate_plan(plan, graph, profile=profile)
        )
        if cost < best_cost:
            best_cost = cost
            best_order = order
    return best_order