"""Differential runner: one case, every backend, structured mismatches.

The repository produces a pattern count six independent ways — serial
:class:`~repro.engine.explore.PatternAwareEngine` (plain recursion,
probe kernels forced on, frontier memo off, and the level-synchronous
``batch_frontier`` walker, the default), the materialize-everything
:class:`~repro.engine.reference.ReferenceEngine`, the persistent
:class:`~repro.engine.pool.MinerPool` (each plan mined twice through
one resident pool, so resident-worker state is exercised), the
resident :class:`~repro.serve.MiningService` (two served requests, the
second answered through the plan cache — and, for ``serve-cached``,
the result cache — must both be bit-identical), and the
cycle-level FlexMiner simulator — the latter in process (where the
walker's trace is also checked against the recursive reference
tracer's) and with two trace workers.  The differential runner executes a
(graph, pattern) case through all of them, compares every per-pattern
count against the compiler-independent :mod:`~repro.verify.oracle`, and
checks two drift invariants: the **zero-drift op-counter invariant**
(with chunking off, each engine-side backend must report
*bit-identical* :class:`~repro.engine.counters.OpCounters`; the served
k-MC decomposition charges only its chain plans, so on those cases the
two serve backends are held to each other) and the
**bit-identical SimReport invariant** (the parallel simulator must
produce the exact same cycles, per-PE stats and cache/NoC/DRAM
counters as the in-process one).

Each backend owns one failure mode; a variant that only re-ran another
backend's code at a different worker count was retired with its owner
recorded next to :data:`BACKENDS`.

Mismatches come back as structured :class:`Mismatch` records and are
exported through :mod:`repro.obs` (``make_report("verify", ...)``
envelopes, a ``repro.verify`` log channel, and ``verify.*`` gauges), so
CI can archive exactly what disagreed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..analysis import check_multi_plan, check_plan
from ..compiler.compiler import compile_motifs, compile_pattern
from ..compiler.plan import MultiPlan
from ..obs import NULL_REGISTRY, get_logger, make_report
from ..patterns import Pattern
from .oracle import oracle_count

__all__ = [
    "BACKENDS",
    "DEFAULT_BACKENDS",
    "SERVE_BACKENDS",
    "SIM_DRIFT_BACKENDS",
    "ZERO_DRIFT_BACKENDS",
    "DifferentialReport",
    "Mismatch",
    "VerifyCase",
    "mismatch_report",
    "resolve_backends",
    "run_case",
]

log = get_logger("verify")

#: A backend executes a compiled plan over a case's graph and returns
#: ``(counts, counters)``; ``counters`` is None when the backend has no
#: OpCounters accounting (the hardware simulator).
Backend = Callable[["VerifyCase", object], Tuple[Tuple[int, ...], object]]


@dataclass(frozen=True)
class VerifyCase:
    """One differential test case.

    Either a single ``pattern`` (edge-induced by default, vertex-induced
    with ``induced=True``) or — when ``motif_k`` is set — the full
    k-motif :class:`~repro.compiler.plan.MultiPlan`, whose per-pattern
    breakdown is compared motif by motif.
    """

    graph: object  #: CSRGraph or LabeledGraph
    pattern: Optional[Pattern] = None
    motif_k: Optional[int] = None
    induced: bool = False
    matching_order: Optional[Tuple[int, ...]] = None
    name: str = ""
    #: Known-good per-pattern counts (regression-corpus cases).  When
    #: set, the oracle itself is checked against it.
    expected: Optional[Tuple[int, ...]] = None
    #: Corpus cases too large for the exponential oracle set this False
    #: and rely on ``expected`` (pinned from an oracle run at promotion
    #: time) as the ground truth instead.
    check_oracle: bool = True

    def __post_init__(self) -> None:
        if (self.pattern is None) == (self.motif_k is None):
            raise ValueError("exactly one of pattern/motif_k required")

    def compile(self):
        if self.motif_k is not None:
            return compile_motifs(self.motif_k)
        return compile_pattern(
            self.pattern,
            induced=self.induced,
            matching_order=self.matching_order,
        )

    def oracle_counts(self) -> Tuple[int, ...]:
        if self.motif_k is not None:
            from ..patterns import enumerate_motifs

            return tuple(
                oracle_count(self.graph, m, induced=True)
                for m in enumerate_motifs(self.motif_k)
            )
        return (
            oracle_count(self.graph, self.pattern, induced=self.induced),
        )

    def describe(self) -> str:
        g = self.graph
        what = (
            f"{self.motif_k}-motifs"
            if self.motif_k is not None
            else (self.pattern.name or repr(self.pattern))
        )
        sem = "induced" if self.induced else "edge-induced"
        labeled = ", labeled" if getattr(g, "labels", None) is not None else ""
        tag = f"{self.name}: " if self.name else ""
        return (
            f"{tag}{what} ({sem}) on |V|={g.num_vertices} "
            f"|E|={g.num_edges}{labeled}"
        )


@dataclass(frozen=True)
class Mismatch:
    """One disagreement surfaced by the differential runner."""

    case: str
    backend: str
    #: "count" | "counter-drift" | "sim-report-drift" | "oracle-expected"
    #: | "error" | "static-dynamic"
    kind: str
    expected: object = None
    actual: object = None
    detail: str = ""

    def as_dict(self) -> Dict[str, object]:
        return {
            "case": self.case,
            "backend": self.backend,
            "kind": self.kind,
            "expected": self.expected,
            "actual": self.actual,
            "detail": self.detail,
        }

    def __str__(self) -> str:
        return (
            f"[{self.kind}] {self.backend} on {self.case}: "
            f"expected {self.expected}, got {self.actual}"
            + (f" ({self.detail})" if self.detail else "")
        )


@dataclass
class DifferentialReport:
    """Every backend's answer for one case, plus the disagreements."""

    case: VerifyCase
    truth: Optional[Tuple[int, ...]]
    counts: Dict[str, Tuple[int, ...]] = field(default_factory=dict)
    mismatches: List[Mismatch] = field(default_factory=list)
    #: FM1xx error codes the static plan verifier raised (normally
    #: empty: the fuzzer only emits compiler-valid plans).
    static_codes: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def as_dict(self) -> Dict[str, object]:
        return {
            "case": self.case.describe(),
            "truth": list(self.truth) if self.truth is not None else None,
            "counts": {k: list(v) for k, v in sorted(self.counts.items())},
            "ok": self.ok,
            "mismatches": [m.as_dict() for m in self.mismatches],
            "static_codes": list(self.static_codes),
        }


# ----------------------------------------------------------------------
# Backend matrix
# ----------------------------------------------------------------------
def _engine(
    engine: str = "PatternAwareEngine", *, probe: bool = False, **options
) -> Backend:
    """One serial run of a :mod:`repro.engine` class; ``options`` are
    its keywords, ``probe`` forces the count-only probe kernels below
    their size threshold."""

    def run(case: VerifyCase, plan):
        from .. import engine as engines

        miner = getattr(engines, engine)(case.graph, plan, **options)
        if probe:
            miner.leaf_count_min_work = 0
        result = miner.run()
        return result.counts, result.counters

    return run


def _pool(workers: int, *, batch_frontier: bool) -> Backend:
    """The persistent pool, exercised as a request *stream*.

    Mines the same plan twice through one resident pool and insists the
    repeat answer is bit-identical to the first (a stale per-request
    reset inside a resident worker would show up only on the second
    request) before the usual oracle/zero-drift comparisons.
    ``batch_frontier`` picks what the resident workers run: root
    slices through the level-synchronous walker, or the recursive path.
    """

    def run(case: VerifyCase, plan):
        from ..engine.pool import MinerPool

        with MinerPool(
            case.graph, workers=workers, batch_frontier=batch_frontier
        ) as pool:
            first = pool.mine(plan)
            second = pool.mine(plan)
        if (
            first.counts != second.counts
            or first.counters.as_dict() != second.counters.as_dict()
        ):
            raise AssertionError(
                "pool request stream drifted between identical requests: "
                f"{first.counts} then {second.counts}"
            )
        return second.counts, second.counters

    return run


def _serve(workers: int, *, cached: bool) -> Backend:
    """The serving layer, exercised as a two-request stream.

    Registers the case graph in a fresh :class:`MiningService` and
    issues the same request twice.  The second request must come back
    through the plan cache (and, with ``cached=True``, the result
    cache) bit-identical to the first — the zero-drift guarantee of
    ``docs/serving.md``, including the memoized path the direct engine
    never takes.
    """

    def run(case: VerifyCase, plan):
        from ..serve import MineRequest, MiningService

        request = MineRequest(
            graph="case",
            pattern=case.pattern,
            motif_k=case.motif_k,
            induced=case.induced,
            matching_order=case.matching_order,
        )
        with MiningService(workers=workers, result_cache=cached) as svc:
            svc.register_graph("case", case.graph)
            first = svc.request(request)
            second = svc.request(request)
        if not second.plan_cache_hit:
            raise AssertionError(
                "second identical request recompiled its plan"
            )
        if cached and not second.result_cache_hit:
            raise AssertionError(
                "second identical request missed the result cache"
            )
        if (
            first.counts != second.counts
            or first.counters.as_dict() != second.counters.as_dict()
        ):
            raise AssertionError(
                "served request stream drifted between identical "
                f"requests: {first.counts} then {second.counts}"
            )
        return second.counts, second.counters

    return run


class _SimReportCounters:
    """Adapter exposing a full :class:`~repro.hw.report.SimReport` dict
    through the backend counter protocol, so the sim-family drift check
    can assert *bit-identical reports* (cycles, per-PE stats, cache/NoC/
    DRAM counters) and not just match counts."""

    def __init__(self, report) -> None:
        self._payload = report.as_dict()

    def as_dict(self) -> Dict[str, object]:
        return dict(self._payload)


def _sim(case: VerifyCase, plan):
    """The default simulation, plus its trace checked against the
    reference: the case's task order traced by the recursive
    ``_TracePE`` and by the frontier walker must agree in every
    :class:`~repro.hw.events.ShardTrace` field."""
    import numpy as np

    from ..engine.parallel import filter_roots, order_tasks
    from ..graph.orientation import orient_by_degree
    from ..hw import FlexMinerConfig, simulate
    from ..hw.events import ShardTrace
    from ..hw.parallel_sim import _TracePE
    from ..hw.walktrace import WalkTracer

    config = FlexMinerConfig.small()
    report = simulate(case.graph, plan, config)
    graph = case.graph
    oriented = getattr(plan, "oriented", False)
    work = orient_by_degree(graph) if oriented else graph
    tasks = order_tasks(work, filter_roots(graph, plan, None))
    want = _TracePE(graph, plan, config).trace(tasks)
    got = WalkTracer(graph, plan, config).trace(tasks)
    drift = [
        name for name in ShardTrace.__slots__
        if not np.array_equal(getattr(want, name), getattr(got, name))
    ]
    if drift:
        raise AssertionError(
            f"walker trace drifted from the reference tracer on {drift}"
        )
    return tuple(report.counts), _SimReportCounters(report)


def _sim_parallel(workers: int) -> Backend:
    def run(case: VerifyCase, plan):
        from ..hw import FlexMinerConfig, simulate_parallel

        config = FlexMinerConfig.small()
        report = simulate_parallel(
            case.graph, plan, config, workers=workers
        )
        return tuple(report.counts), _SimReportCounters(report)

    return run


#: The full backend matrix, in reporting order: one backend per
#: distinct failure mode.  Retired names and the survivor that owns
#: what they checked: ``materialize`` and ``legacy`` -> ``reference``
#: (every leaf materialized, no kernels); ``parallel-1`` ->
#: ``serve-cached`` (in-process ``run_tasks_in_process``);
#: ``parallel-2``/``parallel-4``/``pool-4`` -> ``pool-2`` (forked
#: workers, shared-memory graph, worker-id-order merge);
#: ``sim-parallel-1``/``sim-parallel-4`` -> ``sim-parallel-2``; the
#: ``-fast`` twin of ``sim`` (walker trace, batched timing kernels) ->
#: ``sim``, which now runs that default simulation and checks its trace
#: against the recursive reference tracer's.
#: Every engine and pool backend spells its execution mode out, so no
#: name changes meaning with the engine default; ``serve-pool-2`` and
#: ``serve-cached`` ride the service default and thereby own "what a
#: user gets" (today: the frontier walker over root slices).
BACKENDS: Dict[str, Backend] = {
    "serial": _engine(batch_frontier=False),
    # the probe kernels live on the recursive leaf path
    "kernel-probe": _engine(probe=True, batch_frontier=False),
    "reference": _engine("ReferenceEngine"),
    # different op chain, same counts (outside the zero-drift set)
    "no-memo": _engine(use_frontier_memo=False, batch_frontier=False),
    # closed-form batched charges must equal the per-embedding ones
    "frontier-batch": _engine(batch_frontier=True),
    "pool-2": _pool(2, batch_frontier=False),
    "pool-2-batch": _pool(2, batch_frontier=True),
    "serve-pool-2": _serve(2, cached=False),
    "serve-cached": _serve(1, cached=True),
    "sim": _sim,
    "sim-parallel-2": _sim_parallel(2),
}

DEFAULT_BACKENDS: Tuple[str, ...] = tuple(BACKENDS)

#: Backends whose OpCounters must be bit-identical to ``serial``'s.
#: ``no-memo`` recomputes frontier lists (different op chain by design)
#: so it is excluded; the simulator backends have their own drift set.
ZERO_DRIFT_BACKENDS: Tuple[str, ...] = (
    "serial",
    "kernel-probe",
    "reference",
    "frontier-batch",
    "pool-2",
    "pool-2-batch",
    "serve-pool-2",
    "serve-cached",
)

#: Simulator backends whose *entire SimReport* must be bit-identical to
#: ``sim``'s: the parallel runner claims exact timing parity.
SIM_DRIFT_BACKENDS: Tuple[str, ...] = ("sim", "sim-parallel-2")


#: The served backends.  A decomposable k-MC case (k = 3 or 4 on an
#: undirected graph) is counted by :mod:`repro.engine.motifs`, whose
#: counters are its chain plans', so there they are held to each other
#: instead of to ``serial``.
SERVE_BACKENDS: Tuple[str, ...] = ("serve-pool-2", "serve-cached")


def _drift_groups(case: VerifyCase) -> List[Tuple[Tuple[str, ...], str]]:
    """``(backends, mismatch kind)`` groups whose counters must agree."""
    from ..engine.motifs import motif_count_plan

    zero_drift = ZERO_DRIFT_BACKENDS
    groups = [(SIM_DRIFT_BACKENDS, "sim-report-drift")]
    if (
        case.motif_k is not None
        and not case.graph.directed
        and motif_count_plan(case.motif_k) is not None
    ):
        zero_drift = tuple(b for b in zero_drift if b not in SERVE_BACKENDS)
        groups.append((SERVE_BACKENDS, "counter-drift"))
    return [(zero_drift, "counter-drift")] + groups


def resolve_backends(
    backends: Union[None, Sequence[str], Mapping[str, Backend]],
) -> Dict[str, Backend]:
    """Normalize a backend selection to an ordered name→callable map.

    Accepts ``None`` (full matrix), a sequence of names, or a mapping —
    the mapping form is how tests inject deliberately broken backends
    for mutation testing.
    """
    if backends is None:
        return dict(BACKENDS)
    if isinstance(backends, Mapping):
        return dict(backends)
    unknown = [name for name in backends if name not in BACKENDS]
    if unknown:
        raise ValueError(
            f"unknown backend(s) {unknown}; known: {', '.join(BACKENDS)}"
        )
    return {name: BACKENDS[name] for name in backends}


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------
def run_case(
    case: VerifyCase,
    *,
    backends: Union[None, Sequence[str], Mapping[str, Backend]] = None,
    oracle: bool = True,
    metrics=None,
) -> DifferentialReport:
    """Execute one case through every backend and diff the answers.

    Ground truth is ``case.expected`` when present (and the oracle is
    then *also* checked against it), else the oracle count, else —
    with ``oracle=False`` — the serial engine's answer (pure
    cross-backend mode for large inputs).
    """
    metrics = metrics if metrics is not None else NULL_REGISTRY
    resolved = resolve_backends(backends)
    name = case.describe()
    report = DifferentialReport(case=case, truth=None)

    try:
        plan = case.compile()
    except Exception as exc:  # pragma: no cover - generator bug guard
        report.mismatches.append(
            Mismatch(name, "compile", "error", actual=repr(exc))
        )
        return report

    # Static verdict first: a statically rejected plan MUST also fail
    # dynamically (checked below) — the converse direction (dynamic
    # failure with a static pass) is legitimate, the oracle sees bug
    # classes the algebra cannot.
    static = (
        check_multi_plan(plan)
        if isinstance(plan, MultiPlan)
        else check_plan(plan)
    )
    report.static_codes = tuple(d.code for d in static.errors)

    counters: Dict[str, Dict[str, int]] = {}
    for backend_name, runner in resolved.items():
        try:
            counts, ctrs = runner(case, plan)
        except Exception as exc:
            report.mismatches.append(
                Mismatch(name, backend_name, "error", actual=repr(exc))
            )
            continue
        report.counts[backend_name] = tuple(int(c) for c in counts)
        if ctrs is not None:
            counters[backend_name] = ctrs.as_dict()

    # -- ground truth ---------------------------------------------------
    truth: Optional[Tuple[int, ...]] = None
    if oracle and case.check_oracle:
        oracle_counts = case.oracle_counts()
        truth = oracle_counts
        if case.expected is not None and oracle_counts != case.expected:
            report.mismatches.append(
                Mismatch(
                    name,
                    "oracle",
                    "oracle-expected",
                    expected=list(case.expected),
                    actual=list(oracle_counts),
                    detail="oracle disagrees with the corpus expectation",
                )
            )
    elif case.expected is not None:
        truth = case.expected
    elif "serial" in report.counts:
        truth = report.counts["serial"]
    report.truth = truth

    # -- count agreement ------------------------------------------------
    if truth is not None:
        for backend_name, counts in report.counts.items():
            if counts != truth:
                report.mismatches.append(
                    Mismatch(
                        name,
                        backend_name,
                        "count",
                        expected=list(truth),
                        actual=list(counts),
                    )
                )

    # -- static ⇒ dynamic cross-check -----------------------------------
    # ``static-pass ⇒ oracle-pass`` is the differential invariant: when
    # the static verifier rejects the plan but every backend matched the
    # ground truth, one of the two layers is lying — surface it.
    if report.static_codes and truth is not None:
        dynamic_failure = any(
            m.kind in ("count", "error", "oracle-expected")
            for m in report.mismatches
        )
        if not dynamic_failure:
            report.mismatches.append(
                Mismatch(
                    name,
                    "plancheck",
                    "static-dynamic",
                    expected="a dynamic count mismatch",
                    actual=list(report.static_codes),
                    detail="static verifier rejected a plan every "
                    "backend executed correctly",
                )
            )

    # -- drift invariants: each group bit-identical to its first member --
    for group, kind in _drift_groups(case):
        ref_name = next((b for b in group if b in counters), None)
        if ref_name is None:
            continue
        ref = counters[ref_name]
        for backend_name in group:
            got = counters.get(backend_name)
            if got is None or got == ref:
                continue
            diff_keys = sorted(k for k in ref if ref[k] != got.get(k))
            report.mismatches.append(
                Mismatch(
                    name,
                    backend_name,
                    kind,
                    expected={k: ref[k] for k in diff_keys},
                    actual={k: got.get(k) for k in diff_keys},
                    detail=f"drift vs {ref_name} on {diff_keys}",
                )
            )

    metrics.counter("verify.cases").inc()
    if not report.ok:
        metrics.counter("verify.mismatched_cases").inc()
        metrics.counter("verify.mismatches").inc(len(report.mismatches))
        for mismatch in report.mismatches:
            log.warning("mismatch: %s", mismatch)
    else:
        log.debug("ok: %s -> %s", name, truth)
    return report


def mismatch_report(
    reports: Sequence[DifferentialReport],
    *,
    meta: Optional[Mapping[str, object]] = None,
) -> Dict[str, object]:
    """Wrap differential results in the ``flexminer.run/1`` envelope.

    The payload keeps only failing cases in full (plus aggregate
    totals), which is what the CI artifact archives on failure.
    """
    failures = [r for r in reports if not r.ok]
    data = {
        "cases": len(reports),
        "failed_cases": len(failures),
        "ok": not failures,
        "failures": [r.as_dict() for r in failures],
    }
    return make_report("verify", data, meta=meta)
