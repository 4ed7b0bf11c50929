"""The four GPM applications (paper §II-A) over a single public API.

* :func:`triangle_count` (TC)
* :func:`clique_count` (k-CL)
* :func:`subgraph_list` (SL, edge-induced, arbitrary pattern)
* :func:`motif_count` (k-MC, vertex-induced, multi-pattern)

Every app accepts a ``backend``:

* ``"engine"`` — the pattern-aware software engine (GraphZero model;
  its frontier walker reads the graph's arc map, the software vector
  c-map of §II-C);
* ``"oblivious"`` — the pattern-oblivious baseline (Gramer model);
* ``"sim"`` — the FlexMiner cycle-level simulator (pass ``config``).

Engine backends return a :class:`~repro.engine.explore.MiningResult`;
the simulator returns a :class:`~repro.hw.report.SimReport`.  Both expose
``counts``.

The ``"engine"`` backend additionally accepts ``workers=N`` to mine
through a transient multi-process :class:`~repro.engine.pool.MinerPool`
over a shared-memory copy of the graph, or ``pool=`` — a resident
``MinerPool`` — to serve the request from already-forked workers (a
caller answering many app requests creates the pool once and passes it
to every call).  It runs the level-synchronous frontier walker over
the whole root set.

``motif_count`` on the ``"engine"`` backend counts k = 3 and 4 on an
undirected graph by decomposition (:mod:`repro.engine.motifs`): the
sparse motifs in closed form, only the 4-cycle and the 4-clique chain
plans through the route's runner.  Counts are the ``MultiPlan``'s;
counters are the chain plans' (none for k = 3).  The decomposition
cannot enumerate, so ``collect=True`` walks the merged ``MultiPlan``.

``service=`` goes one step further: pass a resident
:class:`~repro.serve.MiningService` and the request routes through its
graph registry and plan/result caches (the graph auto-registers on
first use).  The return value is still a :class:`MiningResult`, bit-
identical to the direct engine — see ``docs/serving.md``.

Every app takes the same keyword options, spelled once on :func:`_run`:
``backend="engine"``, ``config=None``, ``workers=1``, ``pool=None``,
``service=None``, ``profiler=None``
(:func:`subgraph_list` adds ``collect=False``).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Tuple, Union

from ..compiler.compiler import compile_motifs, compile_pattern
from ..engine.explore import MiningResult, PatternAwareEngine
from ..engine.motifs import MotifCountPlan, count_motifs, motif_count_plan
from ..engine.oblivious import ObliviousEngine
from ..engine.pool import MinerPool
from ..errors import ConfigError
from ..graph.csr import CSRGraph
from ..hw import FlexMinerConfig, SimReport, simulate
from ..patterns import Pattern, enumerate_motifs, k_clique

__all__ = [
    "triangle_count",
    "clique_count",
    "subgraph_list",
    "motif_count",
    "run_app",
    "APP_NAMES",
]

Result = Union[MiningResult, SimReport]

APP_NAMES = ("TC", "k-CL", "SL", "k-MC")


def _run(
    graph: CSRGraph,
    request: Dict[str, object],
    build: Callable[[], Tuple[object, Sequence[Pattern], bool]],
    collect: bool = False,
    *,
    backend: str = "engine",
    config: Optional[FlexMinerConfig] = None,
    workers: int = 1,
    pool=None,
    service=None,
    profiler=None,
) -> Result:
    """Route one app call.

    ``request`` holds the app's :class:`~repro.serve.MineRequest`
    fields for the ``service=`` route; ``build`` returns ``(plan,
    patterns, induced)`` for every other route (the service compiles
    through its own plan cache, so the app must not).
    """
    if service is not None:
        if backend != "engine":
            raise ConfigError(
                "service= requires the 'engine' backend (the service "
                "mines on PatternAwareEngine pool workers)"
            )
        if pool is not None or workers > 1:
            raise ConfigError(
                "service= owns its worker pools; drop workers=/pool="
            )
        if collect:
            raise ConfigError(
                "the mining service does not collect embeddings"
            )
        response = service.request_for(graph, **request)
        return MiningResult(
            counts=response.counts, counters=response.counters
        )
    if (workers > 1 or pool is not None) and backend != "engine":
        raise ConfigError(
            "workers > 1 (and pool=) require the 'engine' backend (the "
            "worker pool runs PatternAwareEngine workers)"
        )
    plan, patterns, induced = build()
    if backend == "engine":
        if (pool is not None or workers > 1) and collect:
            raise ConfigError("the worker pool does not collect embeddings")
        if pool is not None:
            return _engine_mine(graph, plan, pool.mine)
        if workers > 1:
            with MinerPool(
                graph, workers=workers, profiler=profiler
            ) as transient:
                return _engine_mine(graph, plan, transient.mine)
        return _engine_mine(
            graph, plan, lambda run: PatternAwareEngine(
                graph, run, collect=collect, profiler=profiler
            ).run(),
        )
    if backend == "oblivious":
        return ObliviousEngine(graph, patterns, induced=induced).run(
            collect=collect
        )
    if backend == "sim":
        if collect:
            raise ConfigError("the simulator does not collect embeddings")
        return simulate(graph, plan, config, profiler=profiler)
    raise ConfigError(
        f"unknown backend {backend!r}; expected engine/oblivious/sim"
    )


def _engine_mine(graph, plan, mine: Callable[[object], MiningResult]):
    """Run ``plan`` through ``mine``; a k-MC decomposition runs its
    chain plans through it."""
    if isinstance(plan, MotifCountPlan):
        return count_motifs(graph, plan, mine)
    return mine(plan)


def triangle_count(graph: CSRGraph, **options) -> Result:
    """TC: count triangles (3-cliques, orientation-optimized)."""
    return clique_count(graph, 3, **options)


def clique_count(graph: CSRGraph, k: int, **options) -> Result:
    """k-CL: count k-cliques using the orientation technique (§V-C)."""
    pattern = k_clique(k)
    return _run(
        graph,
        {"app": "k-CL", "k": k},
        lambda: (compile_pattern(pattern), [pattern], False),
        **options,
    )


def subgraph_list(
    graph: CSRGraph, pattern: Pattern, *, collect: bool = False, **options
) -> Result:
    """SL: enumerate edge-induced matches of an arbitrary pattern."""
    return _run(
        graph,
        {"pattern": pattern},
        lambda: (compile_pattern(pattern, induced=False), [pattern], False),
        collect,
        **options,
    )


def motif_count(graph: CSRGraph, k: int, **options) -> Result:
    """k-MC: count every k-vertex motif simultaneously (multi-pattern)."""
    # the decomposition counts without enumerating: collect walks the
    # merged plan
    decompose = options.get("backend", "engine") == "engine" and not (
        options.get("collect", False)
    )
    return _run(
        graph,
        {"motif_k": k},
        lambda: (
            (decompose and motif_count_plan(k)) or compile_motifs(k),
            enumerate_motifs(k),
            True,
        ),
        **options,
    )


def run_app(
    graph: CSRGraph,
    app: str,
    *,
    pattern: Optional[Pattern] = None,
    k: int = 3,
    batch_frontier: bool = True,
    **options,
) -> Result:
    """Dispatch by app name: 'TC', 'k-CL', 'SL' or 'k-MC'.

    ``options`` are the shared keyword options (``backend``, ``config``,
    ``workers``, ``pool``, ``service``, ``profiler``) — see the module
    docstring.

    ``batch_frontier`` is accepted and ignored; ROADMAP item 1a deletes it.
    """
    if app == "TC":
        return triangle_count(graph, **options)
    if app == "k-CL":
        return clique_count(graph, k, **options)
    if app == "SL":
        if pattern is None:
            raise ConfigError("SL needs a pattern")
        return subgraph_list(graph, pattern, **options)
    if app == "k-MC":
        return motif_count(graph, k, **options)
    raise ConfigError(f"unknown app {app!r}; expected one of {APP_NAMES}")
