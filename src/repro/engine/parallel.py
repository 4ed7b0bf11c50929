"""The task vocabulary, the unit a pool worker runs, and worker telemetry.

The FlexMiner hardware mines one root-vertex task per PE with dynamic
dispatch (paper §IV).  :class:`~repro.engine.pool.MinerPool` is the
CPU-side analogue, and it and the simulator's scheduler
(:mod:`repro.hw.scheduler`) dispatch the same :data:`Task` list, built
here; the module also holds the pieces of the pool that need no
processes:

* **degree-descending dispatch** (:func:`order_tasks`) — expensive hubs
  are issued first so stragglers cannot dominate the tail (§IV-B);
* **fine-grained chunking** — roots whose degree exceeds
  ``split_degree`` are split into several depth-1 slices via the
  engine's ``run_task(chunk=)`` support;
* **the unit a worker runs** (:func:`run_task_slice`) — a contiguous
  slice of the task list: its unchunked roots as one root-set walk
  (wide enough to fill the frontier walker's lanes), its chunk tasks
  one at a time; :class:`MineJob` is a mine request as a forked
  worker serves it;
* the summary / gauge schema both pool bodies report through.

A ``workers=1`` pool needs none of this but the task order and the
gauge schema: it mines a request as one :meth:`PatternAwareEngine.run`
in-process.

Determinism: per-worker results are merged sorted by worker id, and all
:class:`~repro.engine.counters.OpCounters` fields are additive, so the
merged result is bit-identical to a serial run *when chunking is off*
(the default).  Chunk splitting re-runs depth-1 candidate generation
once per chunk and bumps ``tasks`` per unit, inflating counters — counts
stay exact — so it is opt-in for wall-clock runs only.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..graph.csr import CSRGraph
from ..obs.prof import LaneRecorder, slice_label, task_label
from .counters import OpCounters
from .explore import PatternAwareEngine, _root_array, filter_roots

__all__ = [
    "MineJob",
    "filter_roots",
    "order_tasks",
    "publish_engine_gauges",
    "publish_worker_metrics",
    "run_task_slice",
]

#: One unit of work: (root vertex, optional (index, pieces) chunk).
Task = Tuple[int, Optional[Tuple[int, int]]]


def order_tasks(
    graph: CSRGraph,
    roots: Optional[Sequence[int]] = None,
    *,
    split_degree: Optional[int] = None,
) -> List[Task]:
    """Issue order: descending degree, ties by vertex id.

    The one task list both the pool and the simulator scheduler
    dispatch.  With ``split_degree``, a root of degree d above it
    becomes ``ceil(d / split_degree)`` chunk units, so one power-law
    hub cannot serialize the tail of the schedule.

    Sorting runs over the cached ``graph.degrees()`` vector (one
    lexsort) rather than one ``graph.degree(v)`` call per key.
    """
    if split_degree is not None and split_degree < 1:
        raise ValueError(f"split_degree must be >= 1, got {split_degree}")
    verts = _root_array(graph, roots)
    if len(verts) == 0:
        return []
    degs = graph.degrees()[verts]
    # Primary key descending degree, ties broken by vertex id —
    # identical to sorted(key=lambda v: (-degree(v), v)).
    order = np.lexsort((verts, -degs))
    ordered = verts[order].tolist()
    if split_degree is None:
        return [(v, None) for v in ordered]
    pieces_per_root = np.maximum(
        1, np.ceil(degs[order] / split_degree).astype(np.int64)
    ).tolist()
    tasks: List[Task] = []
    for v, pieces in zip(ordered, pieces_per_root):
        if pieces == 1:
            tasks.append((v, None))
        else:
            tasks.extend((v, (i, pieces)) for i in range(pieces))
    return tasks


def run_task_slice(
    engine: PatternAwareEngine, rec: LaneRecorder, tasks: Sequence[Task]
) -> Tuple[int, int]:
    """Run one slice of the task list; returns (roots, chunks) done.

    The unchunked roots go through :meth:`PatternAwareEngine.run_roots`
    as one set — one frontier walk, one ``task`` span naming the slice —
    and ``(root, (i, n))`` chunk tasks through ``run_task(chunk=)``,
    one span each.
    """
    roots = [root for root, chunk in tasks if chunk is None]
    if roots:
        with rec.span(slice_label(roots), cat="task"):
            engine.run_roots(roots)
    for root, chunk in tasks:
        if chunk is not None:
            with rec.span(task_label(root, chunk), cat="task"):
                engine.run_task(root, chunk=chunk)
    return len(roots), len(tasks) - len(roots)


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

    Emits the ``engine.parallel.*`` gauge family and, when the
    profiler traces, one wall-clock lane per worker (its spans only
    when profiling is enabled).
    """
    profiler.init_lanes(len(summaries))
    for worker_id, summary in summaries:
        profiler.add_lane(worker_id, summary["spans"])
        for wait_s in _span_durations(summary["spans"], "queue-wait"):
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
    publish_engine_gauges(
        metrics, counters, [summary["frontier"] for _w, summary in summaries]
    )


def publish_engine_gauges(
    metrics, counters: OpCounters, frontier: Sequence[Dict[str, int]]
) -> None:
    """The ``engine.*`` / ``engine.frontier.*`` gauge schema, one owner
    for both pool bodies: the merged op counters, and the walkers'
    :meth:`~PatternAwareEngine.frontier_stats` merged — only when a
    walk ran."""
    metrics.absorb(counters.as_dict(), prefix="engine.")
    ran = [stats for stats in frontier if stats["bands"]]
    if len(ran) > 1:
        # Every frontier_stats() key is a per-walker total, except the
        # widest band: a new stat merges here without being listed.
        ran = [{
            key: (max if key == "peak_width" else sum)(f[key] for f in ran)
            for key in ran[0]
        }]
    if ran:
        metrics.absorb(ran[0], prefix="engine.frontier.")


def _span_durations(spans, cat: str) -> List[float]:
    """Durations (seconds) of the spans in category ``cat``."""
    return [
        t1 - t0 for _name, t0, t1, c, _args in (spans or ()) if c == cat
    ]


class MineJob:
    """A mine request as a forked pool worker runs it.

    A pool worker serves one request shape: a job, the queue items it
    pulls and the result it reports (the simulator's trace request is
    the other job).  This one builds an engine over ``plan``, runs each
    item — a slice of the task list — through :func:`run_task_slice`
    and reports the worker's summary.  All timing flows through the
    lane recorder (fmlint FM206): busy is the sum of the ``task``
    spans, queue wait the sum of the ``queue-wait`` spans.  The raw
    span stream crosses the pipe only when profiling is on — keys
    present either way, so the merge path is identical and profiling
    cannot drift results.
    """

    def __init__(self, plan) -> None:
        self.plan = plan

    def start(self, graph) -> None:
        self._engine = PatternAwareEngine(graph, self.plan)
        self._roots = self._chunks = 0

    def run(self, rec: LaneRecorder, tasks: Sequence[Task]) -> None:
        roots, chunks = run_task_slice(self._engine, rec, tasks)
        self._roots += roots
        self._chunks += chunks

    def result(self, rec: LaneRecorder, profile: bool) -> Dict[str, object]:
        engine = self._engine
        return {
            "counts": list(engine.counts),
            "counters": engine.counters,
            "busy_seconds": rec.total("task"),
            "queue_wait_seconds": rec.total("queue-wait"),
            "tasks_done": self._roots,
            "chunks_done": self._chunks,
            "spans": rec.spans if profile else None,
            "frontier": engine.frontier_stats(),
        }
