"""Empirical execution-plan validation.

Hand-written IR (or a modified plan) can silently violate the two GPM
guarantees — *completeness* (every match found) and *uniqueness* (each
found once, §II-A).  ``validate_plan`` checks a plan empirically: it
executes the plan on randomized small graphs and compares against the
brute-force ground truth, reporting the first counterexample graph on
failure.

This is the library analogue of the paper's implicit contract between
the compiler and the hardware: the hardware trusts the plan blindly, so
anything that produces plans should be able to prove them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..graph.csr import CSRGraph
from .plan import ExecutionPlan

__all__ = ["PlanValidation", "validate_plan"]


@dataclass(frozen=True)
class PlanValidation:
    """Outcome of a static + empirical plan check."""

    ok: bool
    trials: int
    failure_graph: Optional[CSRGraph] = None
    expected: Optional[int] = None
    actual: Optional[int] = None
    #: Rendered FM1xx findings from the static verifier; when non-empty
    #: the empirical trials were skipped (``trials == 0``).
    static_findings: Tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok

    def message(self) -> str:
        if self.static_findings:
            return "plan INVALID (static): " + "; ".join(
                self.static_findings
            )
        if self.ok:
            return f"plan validated on {self.trials} random graphs"
        return (
            f"plan INVALID: on {self.failure_graph!r} expected "
            f"{self.expected} matches, plan found {self.actual}"
        )


def validate_plan(
    plan: ExecutionPlan,
    *,
    trials: int = 20,
    max_vertices: int = 12,
    seed: int = 0,
    static: bool = True,
) -> PlanValidation:
    """Check completeness + uniqueness on randomized small graphs.

    Labeled plans are validated against labeled random graphs drawn over
    the label alphabet the pattern uses.  Ground truth comes from the
    compiler-independent ESU oracle (:mod:`repro.verify.oracle`) — the
    same reference the differential verification subsystem trusts.

    The static verifier (:func:`repro.analysis.check_plan`) runs first:
    a plan it rejects is reported without burning trials — and because
    everything it proves, the oracle would eventually catch, a
    static-only failure on a dynamically clean plan is itself a bug the
    differential runner flags (the ``static-dynamic`` invariant).
    """
    from ..analysis import check_plan
    from ..engine.explore import PatternAwareEngine
    from ..graph.labels import LabeledGraph
    from ..verify.oracle import oracle_count

    if static:
        report = check_plan(plan)
        if not report.ok:
            return PlanValidation(
                ok=False,
                trials=0,
                static_findings=tuple(str(d) for d in report.errors),
            )

    rng = np.random.default_rng(seed)
    pattern = plan.pattern
    labeled = pattern.is_labeled
    alphabet = sorted(
        {lab for lab in pattern.labels if lab is not None}
    ) or [0]

    for trial in range(trials):
        n = int(rng.integers(pattern.num_vertices, max_vertices + 1))
        density = float(rng.uniform(0.2, 0.6))
        mask = rng.random((n, n)) < density
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if mask[u, v]
        ]
        graph: CSRGraph = CSRGraph.from_edges(edges, num_vertices=n)
        if labeled:
            # Bias toward the pattern's own alphabet so matches exist.
            labels = rng.choice(
                alphabet + [max(alphabet) + 1], size=n
            )
            graph = LabeledGraph(graph, labels)

        expected = oracle_count(
            graph, pattern, induced=plan.induced
        )
        actual = PatternAwareEngine(graph, plan).run().counts[0]
        if actual != expected:
            return PlanValidation(
                ok=False,
                trials=trial + 1,
                failure_graph=graph if not labeled else graph.graph,
                expected=expected,
                actual=actual,
            )
    return PlanValidation(ok=True, trials=trials)
