"""The task vocabulary, in-process execution and worker telemetry.

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
  one at a time;
* **the in-process runner** (:func:`run_tasks_in_process`) — the
  ``workers=1`` body of the pool and of every served request: the
  whole task list as one slice;
* the summary / gauge schema workers report through.

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

from ..graph import CSRGraph
from ..obs.prof import LaneRecorder, slice_label, task_label
from .counters import OpCounters
from .explore import PatternAwareEngine, _root_array, filter_roots

__all__ = [
    "filter_roots",
    "order_tasks",
    "publish_worker_metrics",
    "run_task_slice",
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
    """Issue order: descending degree, ties by vertex id.

    The one task list both the pool and the simulator scheduler
    dispatch.  With ``split_degree``, a root of degree d above it
    becomes ``ceil(d / split_degree)`` chunk units, so one power-law
    hub cannot serialize the tail of the schedule.

    Sorting runs over the cached ``graph.degrees()`` vector (one
    lexsort) rather than one ``graph.degree(v)`` call per key.
    """
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


def run_tasks_in_process(
    graph,
    plan,
    tasks: Sequence[Task],
    *,
    batch_frontier: bool = True,
    profile: bool = False,
):
    """Run a task list in-process; returns one ``(0, summary)`` pair.

    The ``workers=1`` body of the pool: the whole ordered list is one
    slice (the walker cuts its own bands; pre-slicing only adds walks),
    no processes, exact parity with a plain engine run.
    """
    rec = LaneRecorder()
    with rec.span("attach-shm"):
        engine = PatternAwareEngine(
            graph, plan, batch_frontier=batch_frontier
        )
    tasks_done, chunks_done = run_task_slice(engine, rec, tasks)
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
    enabled, one wall-clock lane per worker.
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
        # Every frontier_stats() key is a per-worker total, except the
        # widest band: a new stat merges here without being listed.
        metrics.absorb(
            {
                key: (max if key == "peak_width" else sum)(
                    f[key] for f in frontier
                )
                for key in frontier[0]
            },
            prefix="engine.frontier.",
        )


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
