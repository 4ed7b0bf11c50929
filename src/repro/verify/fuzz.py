"""Seeded differential fuzzer with case shrinking.

Generates random (graph, pattern) cases — ER / power-law-cluster / RMAT
topologies plus degenerate shapes (empty, self-loop-free stars,
disconnected unions, hub-heavy), labeled and unlabeled, with random
patterns and occasionally random (valid) matching orders — and pushes
each through the differential runner.  Any failing case is **shrunk**:
vertices, then edges, are greedily deleted while the failure
reproduces, so what lands in a bug report (or the regression corpus) is
a handful of vertices, not a 200-vertex power-law graph.

Everything is deterministic given ``seed``: same seed, same cases, same
verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from dataclasses import replace as dc_replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..compiler.matching_order import enumerate_matching_orders
from ..graph.csr import CSRGraph
from ..graph.generators import erdos_renyi, power_law_cluster, rmat
from ..graph.labels import LabeledGraph
from ..obs import get_logger
from ..patterns import Pattern, enumerate_motifs
from ..patterns import edge as edge_pattern
from .differential import (
    DifferentialReport,
    VerifyCase,
    resolve_backends,
    run_case,
)

__all__ = [
    "GRAPH_FAMILIES",
    "FuzzFailure",
    "FuzzReport",
    "fuzz",
    "random_case",
    "random_graph",
    "random_pattern",
    "shrink_case",
]

log = get_logger("verify.fuzz")

#: Topology families the generator draws from.  The degenerate shapes
#: ("empty", "star", "disconnected", "hub") exist because they are where
#: boundary bugs live: zero-length candidate lists, roots with no
#: second level, components the scheduler never visits, one adjacency
#: list dwarfing every other.
GRAPH_FAMILIES: Tuple[str, ...] = (
    "er",
    "plc",
    "rmat",
    "empty",
    "star",
    "disconnected",
    "hub",
)


def random_graph(rng: np.random.Generator, family: str) -> CSRGraph:
    """One random topology from the given family (small by design —
    every case is also run through the exponential oracle)."""
    sub_seed = int(rng.integers(0, 2**31 - 1))
    if family == "er":
        n = int(rng.integers(4, 15))
        p = float(rng.uniform(0.1, 0.6))
        return erdos_renyi(n, p, seed=sub_seed, name=f"er{n}")
    if family == "plc":
        n = int(rng.integers(8, 25))
        attach = int(rng.integers(2, 4))
        tri = float(rng.uniform(0.2, 0.8))
        return power_law_cluster(n, attach, tri, seed=sub_seed)
    if family == "rmat":
        scale = int(rng.integers(3, 5))
        avg = float(rng.uniform(2.0, 6.0))
        return rmat(scale, avg, seed=sub_seed)
    if family == "empty":
        n = int(rng.integers(0, 7))
        return CSRGraph.from_edges([], num_vertices=n, name=f"empty{n}")
    if family == "star":
        leaves = int(rng.integers(3, 13))
        edges = [(0, i) for i in range(1, leaves + 1)]
        return CSRGraph.from_edges(
            edges, num_vertices=leaves + 1, name=f"star{leaves}"
        )
    if family == "disconnected":
        n1 = int(rng.integers(3, 9))
        n2 = int(rng.integers(3, 9))
        g1 = erdos_renyi(n1, float(rng.uniform(0.3, 0.7)), seed=sub_seed)
        g2 = erdos_renyi(n2, float(rng.uniform(0.3, 0.7)), seed=sub_seed + 1)
        edges = list(g1.edges()) + [
            (u + n1, v + n1) for u, v in g2.edges()
        ]
        return CSRGraph.from_edges(
            edges, num_vertices=n1 + n2, name=f"dis{n1}+{n2}"
        )
    if family == "hub":
        # One hub adjacent to everything, sparse edges among the rest:
        # maximal degree skew with nontrivial closure.
        n = int(rng.integers(6, 16))
        edges = [(0, i) for i in range(1, n)]
        extra = int(rng.integers(0, 2 * n))
        for _ in range(extra):
            u = int(rng.integers(1, n))
            v = int(rng.integers(1, n))
            if u != v:
                edges.append((u, v))
        return CSRGraph.from_edges(edges, num_vertices=n, name=f"hub{n}")
    raise ValueError(f"unknown graph family {family!r}")


def random_pattern(
    rng: np.random.Generator,
    *,
    max_vertices: int = 4,
    num_labels: Optional[int] = None,
) -> Pattern:
    """A random connected pattern, optionally with label constraints.

    Drawn uniformly from the motif classes on 2..max_vertices vertices.
    With ``num_labels``, each pattern vertex independently gets a
    wildcard (probability ½) or a concrete label — mixing constrained
    and unconstrained vertices is exactly where label handling breaks.
    """
    pool: List[Pattern] = [edge_pattern()]
    for k in range(3, max_vertices + 1):
        pool.extend(enumerate_motifs(k))
    pattern = pool[int(rng.integers(len(pool)))]
    if num_labels is not None:
        labels = [
            None
            if rng.random() < 0.5
            else int(rng.integers(num_labels))
            for _ in range(pattern.num_vertices)
        ]
        if any(lab is not None for lab in labels):
            pattern = pattern.with_labels(labels)
    return pattern


def random_case(
    rng: np.random.Generator,
    *,
    index: int = 0,
    families: Sequence[str] = GRAPH_FAMILIES,
    patterns: Optional[Sequence[Pattern]] = None,
    max_pattern_vertices: int = 4,
    labeled_prob: float = 0.35,
    induced_prob: float = 0.4,
    random_order_prob: float = 0.3,
    motif_prob: float = 0.1,
) -> VerifyCase:
    """Draw one differential case (graph + pattern + semantics)."""
    family = families[int(rng.integers(len(families)))]
    topo = random_graph(rng, family)
    name = f"fuzz-{index}-{family}"

    # Occasionally exercise the multi-pattern (k-motif) plan instead of
    # a single pattern; per-pattern breakdowns are compared motif-wise.
    if patterns is None and rng.random() < motif_prob:
        return VerifyCase(graph=topo, motif_k=3, name=name)

    labeled = rng.random() < labeled_prob
    num_labels = int(rng.integers(2, 4)) if labeled else None
    graph: object = topo
    if labeled:
        labels = rng.integers(0, num_labels, size=topo.num_vertices)
        graph = LabeledGraph(topo, labels)

    if patterns is not None:
        pattern = patterns[int(rng.integers(len(patterns)))]
        if pattern.is_labeled and not labeled:
            labels = rng.integers(0, 3, size=topo.num_vertices)
            graph = LabeledGraph(topo, labels)
    else:
        pattern = random_pattern(
            rng,
            max_vertices=max_pattern_vertices,
            num_labels=num_labels,
        )

    induced = bool(rng.random() < induced_prob)
    matching_order: Optional[Tuple[int, ...]] = None
    if rng.random() < random_order_prob:
        orders = enumerate_matching_orders(pattern)
        matching_order = orders[int(rng.integers(len(orders)))]
    return VerifyCase(
        graph=graph,
        pattern=pattern,
        induced=induced,
        matching_order=matching_order,
        name=name,
    )


# ----------------------------------------------------------------------
# Shrinking
# ----------------------------------------------------------------------
def _case_topology(case: VerifyCase) -> CSRGraph:
    graph = case.graph
    return graph.graph if isinstance(graph, LabeledGraph) else graph


def _rebuild_case(
    case: VerifyCase,
    edges: Sequence[Tuple[int, int]],
    num_vertices: int,
    labels: Optional[np.ndarray],
) -> VerifyCase:
    topo = CSRGraph.from_edges(
        edges, num_vertices=num_vertices, name=_case_topology(case).name
    )
    graph: object = topo
    if labels is not None:
        graph = LabeledGraph(topo, labels)
    # Any stored expectation was for the unshrunk graph.
    return dc_replace(case, graph=graph, expected=None)


def _without_vertex(case: VerifyCase, victim: int) -> VerifyCase:
    topo = _case_topology(case)
    keep = [v for v in range(topo.num_vertices) if v != victim]
    remap = {v: i for i, v in enumerate(keep)}
    edges = [
        (remap[u], remap[v])
        for u, v in topo.edges()
        if u != victim and v != victim
    ]
    labels = getattr(case.graph, "labels", None)
    if labels is not None:
        labels = np.asarray(labels)[keep]
    return _rebuild_case(case, edges, len(keep), labels)


def _without_edge(case: VerifyCase, index: int) -> VerifyCase:
    topo = _case_topology(case)
    edges = list(topo.edges())
    del edges[index]
    labels = getattr(case.graph, "labels", None)
    if labels is not None:
        labels = np.asarray(labels)
    return _rebuild_case(case, edges, topo.num_vertices, labels)


def shrink_case(
    case: VerifyCase,
    *,
    backends=None,
    oracle: bool = True,
    max_checks: int = 400,
) -> VerifyCase:
    """Minimize a failing case by greedy vertex, then edge, deletion.

    Each candidate deletion is re-run through the differential runner;
    the deletion is kept iff some mismatch still reproduces.  Vertex
    deletions dominate (they remove whole adjacency lists), edge
    deletions then trim what remains.  Deterministic, monotonically
    shrinking, and bounded by ``max_checks`` differential runs.
    """
    resolved = resolve_backends(backends)

    def still_fails(candidate: VerifyCase) -> bool:
        return not run_case(
            candidate, backends=resolved, oracle=oracle
        ).ok

    if not still_fails(case):
        raise ValueError("shrink_case needs a failing case to start from")

    current = case
    checks = 1
    improved = True
    while improved and checks < max_checks:
        improved = False
        for victim in range(_case_topology(current).num_vertices):
            candidate = _without_vertex(current, victim)
            checks += 1
            if still_fails(candidate):
                current = candidate
                improved = True
                break
            if checks >= max_checks:
                break
        if improved:
            continue
        for index in range(_case_topology(current).num_edges):
            candidate = _without_edge(current, index)
            checks += 1
            if still_fails(candidate):
                current = candidate
                improved = True
                break
            if checks >= max_checks:
                break
    log.info(
        "shrunk %s to |V|=%d |E|=%d in %d checks",
        case.name or "case",
        _case_topology(current).num_vertices,
        _case_topology(current).num_edges,
        checks,
    )
    return current


# ----------------------------------------------------------------------
# The fuzz loop
# ----------------------------------------------------------------------
@dataclass
class FuzzFailure:
    """One failing case, before and after shrinking."""

    case: VerifyCase
    report: DifferentialReport
    shrunk: Optional[VerifyCase] = None
    shrunk_report: Optional[DifferentialReport] = None

    def reproducer(self) -> VerifyCase:
        """The smallest failing case known (shrunk when available)."""
        return self.shrunk if self.shrunk is not None else self.case

    def as_dict(self) -> Dict[str, object]:
        from .corpus import case_to_dict

        out: Dict[str, object] = {"report": self.report.as_dict()}
        if self.shrunk is not None and self.shrunk_report is not None:
            out["shrunk_report"] = self.shrunk_report.as_dict()
            out["reproducer"] = case_to_dict(
                self.shrunk,
                description="auto-shrunk by flexminer verify",
            )
        return out


@dataclass
class FuzzReport:
    """Outcome of one fuzz run."""

    seed: int
    cases_run: int
    backends: Tuple[str, ...]
    failures: List[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def as_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "cases_run": self.cases_run,
            "backends": list(self.backends),
            "ok": self.ok,
            "failures": [f.as_dict() for f in self.failures],
        }


def fuzz(
    *,
    seed: int = 0,
    cases: int = 50,
    backends=None,
    shrink: bool = True,
    families: Sequence[str] = GRAPH_FAMILIES,
    patterns: Optional[Sequence[Pattern]] = None,
    max_pattern_vertices: int = 4,
    oracle: bool = True,
    metrics=None,
) -> FuzzReport:
    """Run ``cases`` random differential cases; shrink any failures.

    ``backends`` accepts names or a name→callable mapping (the latter is
    how mutation tests inject a deliberately broken backend); ``None``
    runs the full matrix.  Failures are shrunk against the backends that
    actually mismatched (plus ``serial`` as the drift reference when
    selected), which keeps the shrink loop cheap.
    """
    resolved = resolve_backends(backends)
    rng = np.random.default_rng(seed)
    report = FuzzReport(
        seed=seed, cases_run=cases, backends=tuple(resolved)
    )
    for index in range(cases):
        case = random_case(
            rng,
            index=index,
            families=families,
            patterns=patterns,
            max_pattern_vertices=max_pattern_vertices,
        )
        result = run_case(
            case, backends=resolved, oracle=oracle, metrics=metrics
        )
        if result.ok:
            continue
        failure = FuzzFailure(case=case, report=result)
        if shrink:
            failing = {m.backend for m in result.mismatches}
            subset = {
                name: runner
                for name, runner in resolved.items()
                if name in failing or name == "serial"
            } or resolved
            try:
                failure.shrunk = shrink_case(
                    case, backends=subset, oracle=oracle
                )
                failure.shrunk_report = run_case(
                    failure.shrunk, backends=subset, oracle=oracle
                )
            except ValueError:  # pragma: no cover - flaky-failure guard
                log.warning("failure did not reproduce during shrink")
        report.failures.append(failure)
        log.warning(
            "fuzz case %d failed (%d mismatches)",
            index,
            len(result.mismatches),
        )
    return report
