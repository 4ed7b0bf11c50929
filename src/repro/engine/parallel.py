"""Multi-process mining backend over shared-memory CSR buffers.

The FlexMiner hardware mines one root-vertex task per PE with dynamic
dispatch (paper §IV); this module is the CPU-side analogue: N worker
*processes* pull (root, chunk) units from a shared queue and walk the
search tree with the ordinary :class:`~repro.engine.explore.PatternAwareEngine`.

Two properties carry over from the simulator's scheduler:

* **degree-descending dispatch** — expensive hubs are issued first so
  stragglers cannot dominate the tail (§IV-B);
* **fine-grained chunking** — roots whose degree exceeds
  ``split_degree`` are split into several depth-1 slices via the
  engine's ``run_task(chunk=)`` support.

The data graph never crosses a pipe: the parent copies ``indptr`` /
``indices`` (and the oriented DAG, and labels, when present) into POSIX
shared memory once (:class:`repro.graph.SharedCSRBuffers`) and every
worker maps the same read-only pages, so per-worker attach cost is
independent of graph size.

Determinism: per-worker results are merged sorted by worker id, and all
:class:`~repro.engine.counters.OpCounters` fields are additive, so the
merged result is bit-identical to a serial run *when chunking is off*
(the default).  Chunk splitting re-runs depth-1 candidate generation
once per chunk and bumps ``tasks`` per unit, inflating counters — counts
stay exact — so it is opt-in for wall-clock runs only.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..graph import (
    CSRGraph,
    LabeledGraph,
    attach_array,
    attach_shared_csr,
    orient_by_degree,
)
from ..compiler.plan import MultiPlan
from ..obs import NULL_PROFILER, NULL_REGISTRY, NULL_TRACER
from ..obs.prof import LaneRecorder, task_label
from .counters import OpCounters
from .explore import MiningResult, PatternAwareEngine

__all__ = [
    "ParallelMiner",
    "filter_roots",
    "mine_parallel",
    "order_tasks",
    "publish_worker_metrics",
    "run_tasks_in_process",
]

#: One unit of work: (root vertex, optional (index, pieces) chunk).
Task = Tuple[int, Optional[Tuple[int, int]]]


def order_tasks(
    graph: CSRGraph,
    roots: Optional[Sequence[int]] = None,
    *,
    split_degree: Optional[int] = None,
) -> List[Task]:
    """Degree-descending task list, optionally chunking heavy roots.

    Mirrors the simulator scheduler's issue order: largest adjacency
    first (ties broken by vertex id for determinism).  With
    ``split_degree``, a root of degree d becomes ``ceil(d /
    split_degree)`` chunk units so no single unit holds a whole hub.
    """
    degrees = graph.degrees()
    if roots is None:
        verts = np.arange(graph.num_vertices)
    else:
        verts = np.asarray(list(roots), dtype=np.int64)
    order = verts[np.argsort(-degrees[verts], kind="stable")]
    tasks: List[Task] = []
    for v in order.tolist():
        d = int(degrees[v])
        if split_degree is not None and d > split_degree:
            pieces = -(-d // split_degree)  # ceil
            tasks.extend((v, (i, pieces)) for i in range(pieces))
        else:
            tasks.append((v, None))
    return tasks


def filter_roots(
    graph,
    topology: CSRGraph,
    plan,
    roots: Optional[Sequence[int]] = None,
) -> List[int]:
    """Root list after the plan's root-label filter (parent side).

    Shared between :class:`ParallelMiner` and the persistent
    :class:`~repro.engine.pool.MinerPool` so both dispatch identical
    task sets for identical requests.
    """
    if roots is None:
        roots = range(topology.num_vertices)
    multi = isinstance(plan, MultiPlan)
    root_label = None if multi else plan.root_label
    if root_label is None:
        return [int(v) for v in roots]
    labels = getattr(graph, "labels", None)
    if labels is None:
        raise ValueError(
            "plan carries label constraints but the graph is "
            "unlabeled; wrap it in a LabeledGraph"
        )
    return [int(v) for v in roots if int(labels[int(v)]) == root_label]


def run_tasks_in_process(
    graph,
    plan,
    tasks: Sequence[Task],
    *,
    work_graph=None,
    options: Optional[Dict[str, object]] = None,
    profile: bool = False,
):
    """Run a task list in-process; returns one ``(0, summary)`` pair.

    The ``workers=1`` body of both the one-shot miner and the pool:
    same degree-descending task order, no processes, exact parity with
    a plain engine run.
    """
    rec = LaneRecorder()
    with rec.span("attach-shm"):
        engine = PatternAwareEngine(
            graph, plan, work_graph=work_graph, **(options or {})
        )
    tasks_done = chunks_done = 0
    for root, chunk in tasks:
        with rec.span(task_label(root, chunk), cat="task"):
            engine.run_task(root, chunk=chunk)
        if chunk is None:
            tasks_done += 1
        else:
            chunks_done += 1
    return (
        0,
        _worker_summary(
            engine, rec, tasks_done, chunks_done, profile=profile
        ),
    )


def publish_worker_metrics(
    metrics,
    profiler,
    summaries,
    *,
    workers: int,
    num_tasks: int,
    chunk_units: int,
    counters: OpCounters,
) -> None:
    """Worker lanes, gauges and queue-wait distribution (merge side).

    Emits the ``engine.parallel.*`` gauge family and, when profiling is
    enabled, one wall-clock lane per worker — shared by the one-shot
    miner and the pool so dashboards see one schema either way.
    """
    if profiler.enabled:
        profiler.init_lanes(len(summaries))
        for worker_id, summary in summaries:
            profiler.add_lane(worker_id, summary.get("spans"))
            for wait_s in _span_durations(summary.get("spans"), "queue-wait"):
                metrics.histogram(
                    "engine.parallel.queue_wait_us"
                ).observe(wait_s * 1e6)
    metrics.gauge("engine.parallel.workers").set(workers)
    metrics.gauge("engine.parallel.queue_depth").set(num_tasks)
    metrics.gauge("engine.parallel.chunk_units").set(chunk_units)
    for worker_id, summary in summaries:
        for key in (
            "busy_seconds",
            "queue_wait_seconds",
            "tasks_done",
            "chunks_done",
        ):
            metrics.gauge(
                f"engine.parallel.worker_{key}", worker=worker_id
            ).set(summary[key])
    metrics.absorb(counters.as_dict(), prefix="engine.")
    frontier = [
        s["frontier"] for _w, s in summaries if s.get("frontier")
    ]
    if frontier:
        metrics.absorb(
            {
                "rows_expanded": sum(
                    f["rows_expanded"] for f in frontier
                ),
                "bands": sum(f["bands"] for f in frontier),
                "peak_width": max(f["peak_width"] for f in frontier),
                "fallbacks": sum(f["fallbacks"] for f in frontier),
            },
            prefix="engine.frontier.",
        )


def _build_worker_graph(
    spec: Dict[str, object],
    labels_spec: Optional[Dict[str, object]],
):
    """Attach the shared CSR (and labels) inside a worker process."""
    graph = attach_shared_csr(spec)
    if labels_spec is None:
        return graph
    labels, handle = attach_array(labels_spec)
    labeled = LabeledGraph(graph, labels)
    # Keep the mapping alive alongside the topology handles.
    graph._shm = graph._shm + (handle,)
    return labeled


def _span_durations(spans, cat: str) -> List[float]:
    """Durations (seconds) of the spans in category ``cat``."""
    return [
        t1 - t0 for _name, t0, t1, c, _args in (spans or ()) if c == cat
    ]


def _worker_summary(
    engine: PatternAwareEngine,
    rec: LaneRecorder,
    tasks_done: int,
    chunks_done: int,
    *,
    profile: bool,
) -> Dict[str, object]:
    """Shared summary payload of one worker (or the in-process runner).

    All timing flows through the lane recorder (fmlint FM206): busy is
    the sum of the per-task ``task`` spans, queue wait the sum of the
    ``queue-wait`` spans.  The raw span stream crosses the pipe only
    when profiling is on — keys present either way, so the merge path
    is identical and profiling cannot drift results.
    """
    summary: Dict[str, object] = {
        "counts": list(engine.counts),
        "counters": engine.counters,
        "busy_seconds": rec.total("task"),
        "queue_wait_seconds": rec.total("queue-wait"),
        "tasks_done": tasks_done,
        "chunks_done": chunks_done,
        "spans": rec.spans if profile else None,
        "frontier": (
            engine.frontier_stats() if engine.batch_frontier else None
        ),
    }
    return summary


class ParallelMiner:
    """Mine a plan with N worker processes over a shared-memory graph.

    Parameters
    ----------
    graph:
        The data graph (:class:`CSRGraph` or :class:`LabeledGraph`).
    plan:
        A single-pattern :class:`ExecutionPlan` or a :class:`MultiPlan`.
    workers:
        Worker process count; defaults to ``os.cpu_count()``.
        ``workers=1`` runs in-process (no fork, no queues) but through
        the same degree-descending task order.
    split_degree:
        Chunk roots whose degree exceeds this into depth-1 slices.
        ``None`` (default) keeps whole-root tasks, which is the
        configuration whose merged counters are bit-identical to a
        serial run.  Chunking never changes *counts*.  Single-pattern
        plans only.
    use_frontier_memo / count_leaves / batch_leaves / batch_frontier:
        Forwarded to every worker's engine.
    tracer / metrics:
        Parent-side observability; workers run untraced and their
        op-counter totals are merged into the parent registry.
    profiler:
        Optional :class:`repro.obs.PhaseProfiler`.  When enabled (and
        carrying a tracer), workers ship their span streams back and
        the mine emits one wall-clock lane per worker plus a
        coordinator lane, with setup/mine/merge phase attribution.
        Never changes counts or counters (tested zero-drift).
    """

    def __init__(
        self,
        graph,
        plan,
        *,
        workers: Optional[int] = None,
        split_degree: Optional[int] = None,
        use_frontier_memo: bool = True,
        count_leaves: bool = True,
        batch_leaves: bool = True,
        batch_frontier: bool = False,
        tracer=None,
        metrics=None,
        profiler=None,
    ) -> None:
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if split_degree is not None and isinstance(plan, MultiPlan):
            raise ValueError("task chunking requires a single-pattern plan")
        self.graph = graph
        self.plan = plan
        self.workers = int(workers)
        self.split_degree = split_degree
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.profiler = profiler if profiler is not None else NULL_PROFILER
        self._options = {
            "use_frontier_memo": use_frontier_memo,
            "count_leaves": count_leaves,
            "batch_leaves": batch_leaves,
            "batch_frontier": batch_frontier,
        }
        self._multi = isinstance(plan, MultiPlan)
        oriented = (not self._multi) and plan.oriented
        self._topology = graph.graph if isinstance(graph, LabeledGraph) else graph
        self._work_graph = (
            orient_by_degree(self._topology) if oriented else self._topology
        )

    # ------------------------------------------------------------------
    def _roots(self, roots: Optional[Sequence[int]]) -> List[int]:
        """Root list after the plan's root-label filter (parent side)."""
        return filter_roots(self.graph, self._topology, self.plan, roots)

    def mine(self, roots: Optional[Sequence[int]] = None) -> MiningResult:
        """Run the parallel mining job and merge worker results."""
        with self.profiler.phase("setup", workers=self.workers):
            tasks = order_tasks(
                self._work_graph,
                self._roots(roots),
                split_degree=self.split_degree,
            )
        chunk_units = sum(1 for _, chunk in tasks if chunk is not None)
        with self.tracer.span(
            "mine-parallel", cat="phase", workers=self.workers,
            tasks=len(tasks),
        ):
            with self.profiler.phase("mine", tasks=len(tasks)):
                if self.workers == 1:
                    summaries = [self._mine_serial(tasks)]
                else:
                    summaries = self._mine_processes(tasks)

        with self.profiler.phase("merge"):
            # Deterministic merge: worker order fixed, fields additive.
            summaries.sort(key=lambda item: item[0])
            counts = [0] * (self.plan.num_patterns if self._multi else 1)
            counters = OpCounters()
            with self.profiler.lane_span("counter-merge"):
                for _, summary in summaries:
                    for i, c in enumerate(summary["counts"]):
                        counts[i] += c
                    counters += summary["counters"]
            counters.matches = sum(counts)
            self._publish(summaries, tasks, chunk_units, counters)
        return MiningResult(counts=tuple(counts), counters=counters)

    def _publish(self, summaries, tasks, chunk_units, counters) -> None:
        """Worker lanes, gauges and queue-wait distribution (merge side)."""
        publish_worker_metrics(
            self.metrics,
            self.profiler,
            summaries,
            workers=self.workers,
            num_tasks=len(tasks),
            chunk_units=chunk_units,
            counters=counters,
        )

    # ------------------------------------------------------------------
    def _mine_serial(self, tasks: Sequence[Task]):
        """workers=1: same task order, no processes, exact parity."""
        return run_tasks_in_process(
            self.graph,
            self.plan,
            tasks,
            work_graph=self._work_graph,
            options=self._options,
            profile=self.profiler.enabled,
        )

    def _mine_processes(self, tasks: Sequence[Task]):
        """One-shot multi-process mine through a transient worker pool.

        All process construction lives in :mod:`repro.engine.pool`
        (fmlint FM207); the one-shot path is simply a pool whose stream
        has length one.
        """
        from .pool import MinerPool

        pool = MinerPool(
            self.graph,
            workers=self.workers,
            oriented_graph=(
                self._work_graph
                if self._work_graph is not self._topology
                else None
            ),
            tracer=self.tracer,
            metrics=self.metrics,
            profiler=self.profiler,
            **self._options,
        )
        try:
            return pool.run_tasks(self.plan, tasks)
        finally:
            pool.close()


class _OwnedBlock:
    """Close/unlink adapter so a bare SharedMemory handle matches the
    SharedCSRBuffers cleanup interface."""

    def __init__(self, shm) -> None:
        self._shm = shm

    def close(self) -> None:
        self._shm.close()

    def unlink(self) -> None:
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


def mine_parallel(
    graph,
    plan,
    *,
    workers: Optional[int] = None,
    split_degree: Optional[int] = None,
    roots: Optional[Sequence[int]] = None,
    batch_frontier: bool = False,
    tracer=None,
    metrics=None,
    profiler=None,
) -> MiningResult:
    """Convenience wrapper: parallel-mine a plan over a graph."""
    miner = ParallelMiner(
        graph,
        plan,
        workers=workers,
        split_degree=split_degree,
        batch_frontier=batch_frontier,
        tracer=tracer,
        metrics=metrics,
        profiler=profiler,
    )
    return miner.mine(roots=roots)
