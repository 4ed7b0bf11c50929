"""Trace → replay: the simulator's one execution path.

The simulator interleaves two very different workloads: the
*functional* search-tree walk (set operations, candidate generation —
the expensive part) and the *timing* application (cache walks, NoC/DRAM
models, cycle charges — cheap but strictly order-dependent, because the
shared L2/NoC/DRAM state and every float accumulation depend on the
global task order).  Every simulation splits them:

1. **Trace** — a tracer turns a list of ``(root, chunk)`` tasks into a
   :class:`~repro.hw.events.ShardTrace`: per task, the ordered events
   its walk charges (busy cycles by unit, private-cache touches,
   frontier writes/reads).  A stream is independent of which PE
   eventually executes the task: the c-map resets per task, graph
   addresses are global, and frontier entries are resolved symbolically
   (by depth) so the replaying PE's bump allocator assigns the real
   addresses.  :func:`tracer_for` picks the tracer.

2. **Replay** — the streams drive the real scheduler heap, per-PE
   private caches / frontier allocators and the shared memory system
   through :class:`_ReplayPE`, which applies every charge in task order
   with the timing hooks of :class:`~repro.hw.pe.PETiming` — and, when
   a cycle-domain tracer is attached, emits the task, stall, c-map,
   SIU/SDU and overflow events.

The task order is cut into root slices (:func:`slice_tasks`).
In-process each slice is replayed as soon as it is traced, so memory is
bounded by a slice; with ``workers > 1`` slice ``s`` is traced by
worker process ``s % workers``, which attaches the graph — labels and
oriented DAG included — through :class:`~repro.graph.SharedCSRBuffers`.
Either way replay runs in task order, so the report is bit-identical
at any worker count.  :class:`TraceReplay` is the pipeline every
simulation runs (:class:`repro.hw.FlexMinerAccelerator` holds one).
"""

from __future__ import annotations

import traceback
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..engine.explore import _cut_bands
from ..engine.parallel import Task
from ..errors import SimulationError
from ..graph import (
    SharedCSRBuffers,
    attach_shared_csr,
    orient_by_degree,
    worker_context,
)
from ..obs import NULL_PROFILER
from ..obs.prof import LaneRecorder, slice_label
from ..obs.trace import SIM_PID
from .config import FlexMinerConfig
from .events import (
    CMAP_STAT_FIELDS,
    EV_BUSY,
    EV_FREAD,
    EV_FWRITE,
    EV_TOUCH,
    PE_STAT_FIELDS,
    ShardTrace,
)
from .mem import MemorySystem
from .pe import PETiming, ProcessingElement
from .scheduler import Scheduler

__all__ = ["TraceReplay", "slice_tasks", "tracer_for"]

#: Root-slice budget, in summed squared root degrees of the work graph
#: (a task's trace grows with its first two levels; hubs dominate).
_SLICE_WORK = 1 << 13

#: Sentinel base address marking a frontier read in _TracePE's table
#: (real addresses are assigned by the replaying PE's allocator).
_FR_SENTINEL = -1


def tracer_for(graph, plan, config: FlexMinerConfig):
    """The one rule choosing a tracer.

    Exact c-map slots are inherently per key, and the legacy per-element
    timing path is the reference the walker is checked against, so
    ``cmap_exact`` or ``timing_kernels=False`` trace recursively
    (:class:`_TracePE`); every other config is traced by the frontier
    walker (:class:`~repro.hw.walktrace.WalkTracer`).  Both produce the
    same :class:`~repro.hw.events.ShardTrace`, element for element.
    """
    if config.cmap_exact or not config.timing_kernels:
        return _TracePE(graph, plan, config)
    # Imported on first use: every CLI verb imports repro.hw, and only
    # a simulation needs the walker compiled.
    from .walktrace import WalkTracer

    return WalkTracer(graph, plan, config)


def slice_tasks(
    work_graph, tasks: Sequence[Task], workers: int = 1
) -> List[List[Task]]:
    """Cut the task order into contiguous root slices of bounded summed
    squared root degree (a chunk task counts its share of its root's).

    Trace workers get at least two slices each where the task count
    allows, so every worker has work and the schedule's head (the hubs)
    spreads across them.
    """
    if not tasks:
        return []
    roots = np.array([root for root, _ in tasks], dtype=np.int64)
    pieces = np.array(
        [1 if chunk is None else chunk[1] for _, chunk in tasks]
    )
    degrees = work_graph.degrees()[roots]
    sizes = (1 + degrees // pieces) * (1 + degrees)
    budget = _SLICE_WORK
    if workers > 1:
        budget = min(budget, -(-int(sizes.sum()) // (2 * workers)))
    return [list(tasks[lo:hi]) for lo, hi in _cut_bands(sizes, budget)]


class _TracePE(ProcessingElement):
    """The recursive tracer: a PE whose timing hooks record events
    instead of applying them.

    The functional walk (and the per-task c-map timing, which resets at
    every task boundary) runs for real; private-cache / memory-system /
    frontier-address state — everything that depends on which PE runs
    the task — is deferred to replay.
    """

    def __init__(self, graph, plan, config) -> None:
        super().__init__(0, graph, plan, config, MemorySystem(config, graph))
        self._events: List[Tuple[int, int, int]] = []

    # -- timing hooks: record, don't apply -----------------------------
    def _charge_busy(self, cycles) -> None:
        self._events.append((EV_BUSY, cycles, 0))

    def _charge(self, code: int, cycles: int, arg: int) -> None:
        self._events.append((code, cycles, arg))

    def _touch(self, base: int, size: int) -> None:
        if base == _FR_SENTINEL:
            self._events.append((EV_FREAD, size, 0))
        else:
            self._events.append((EV_TOUCH, base, size))

    def _write_frontier(self, length: int, depth: int) -> None:
        self._events.append((EV_FWRITE, length, depth))
        # Symbolic entry: replay resolves the spill address; reads via
        # _touch(*entry) become (_FR_SENTINEL, depth) and are re-coded.
        self._frontier_table[depth] = (_FR_SENTINEL, depth)

    # -- tracing ---------------------------------------------------------
    def trace(self, tasks: Sequence[Task]) -> ShardTrace:
        """The event streams, stat deltas and counts of ``tasks``."""
        return ShardTrace.from_streams(
            [self._trace_task(root, chunk) for root, chunk in tasks],
            self._num_patterns,
        )

    def _trace_task(self, root: int, chunk: Optional[Tuple[int, int]]):
        """One task's ``(events, stat deltas, count deltas)``; the
        dispatch charge and the task counter are replay's."""
        if self.cmap is not None:
            self.cmap.reset()
        self._covered.clear()
        # A task reads back only the lists it memoized itself.
        self._frontier_table.clear()
        self._events = []
        before = self._stat_values()
        counts_before = list(self._counts)
        self.run_task(root, chunk=chunk)
        deltas = [a - b for a, b in zip(self._stat_values(), before)]
        counts = [a - b for a, b in zip(self._counts, counts_before)]
        return self._events, deltas, counts

    def _stat_values(self) -> List[int]:
        values = [int(getattr(self.stats, f)) for f in PE_STAT_FIELDS]
        if self.cmap is None:
            return values + [0] * len(CMAP_STAT_FIELDS)
        return values + [getattr(self.cmap.stats, f) for f in CMAP_STAT_FIELDS]


class _ReplayPE(PETiming):
    """Applies recorded event streams with real per-PE and shared state.

    The timing surface — charge order, overlap credit, frontier
    allocation, fast/legacy kernel selection, cycle-domain trace
    emission — is the inherited :class:`~repro.hw.pe.PETiming`.
    ``traces`` maps each task to its ``(shard, index)``; the pipeline
    fills it a slice at a time.
    """

    def __init__(
        self,
        pe_id: int,
        config: FlexMinerConfig,
        memsys: MemorySystem,
        num_patterns: int,
        traces: Dict[Task, Tuple[ShardTrace, int]],
    ) -> None:
        super().__init__(pe_id, config, memsys)
        self._counts = [0] * num_patterns
        self._traces = traces

    # -- scheduler entry point ------------------------------------------
    def execute_task(
        self,
        v0: int,
        dispatch_time: float,
        *,
        chunk: Optional[Tuple[int, int]] = None,
    ) -> None:
        """Replay one task; ``dispatch_time`` is when the scheduler sent
        it."""
        self.time = max(self.time, dispatch_time)
        start = self.time
        self._charge_busy(self.config.dispatch_cycles)
        self.stats.tasks += 1
        shard, index = self._traces[v0, chunk]
        codes, arg_a, arg_b, deltas, counts = shard.task(index)
        trace = self._trace
        for code, a, b in zip(codes, arg_a, arg_b):
            if code == EV_TOUCH:
                self._touch(a, b)
            elif code == EV_FWRITE:
                self._write_frontier(a, b)
            elif code == EV_FREAD:
                entry = self._frontier_table.get(a)
                if entry is None:  # pragma: no cover - invariant guard
                    raise SimulationError(
                        "frontier read before any write at depth "
                        f"{a} during replay"
                    )
                self._touch(*entry)
            elif code == EV_BUSY or trace is None:
                self._charge_busy(a)
            else:
                self._charge(code, a, b)
        n_pe = len(PE_STAT_FIELDS)
        for name, delta in zip(PE_STAT_FIELDS, deltas[:n_pe]):
            setattr(self.stats, name, getattr(self.stats, name) + delta)
        if self.cmap is not None:
            for name, delta in zip(CMAP_STAT_FIELDS, deltas[n_pe:]):
                setattr(
                    self.cmap.stats,
                    name,
                    getattr(self.cmap.stats, name) + delta,
                )
        for i, c in enumerate(counts):
            self._counts[i] += c
        if trace is not None:
            args = {"root": int(v0)}
            if chunk is not None:
                args["chunk"] = list(chunk)
            trace.complete(
                f"task v{int(v0)}", start, self.time - start,
                pid=SIM_PID, tid=self.pe_id, cat="task", args=args,
            )


def _trace_slice(tracer, tasks: Sequence[Task], rec: LaneRecorder):
    """Trace one root slice under a ``task`` lane span."""
    with rec.span(slice_label([root for root, _ in tasks]), cat="task"):
        return tracer.trace(tasks)


def _trace_worker(
    worker_id: int,
    spec,
    plan,
    config: FlexMinerConfig,
    slices: Sequence[Sequence[Task]],
    result_queue,
) -> None:
    """Worker main: attach the shared graph, trace the slices, report
    the shards and the recorded span stream."""
    try:
        rec = LaneRecorder()
        with rec.span("attach-shm"):
            tracer = tracer_for(attach_shared_csr(spec), plan, config)
        shards = [_trace_slice(tracer, tasks, rec) for tasks in slices]
        result_queue.put(("done", worker_id, (shards, rec.spans)))
    except BaseException:  # pragma: no cover - exercised via error path
        result_queue.put(("error", worker_id, traceback.format_exc()))


def _trace_in_processes(
    spec,
    plan,
    config: FlexMinerConfig,
    slices: Sequence[Sequence[Task]],
    workers: int,
    profiler=NULL_PROFILER,
) -> List[Tuple[List[ShardTrace], list]]:
    """Trace slice ``s`` on worker ``s % workers``; returns each
    worker's ``(shards, spans)`` by worker id.

    ``spec`` names the shared graph the workers attach.
    """
    ctx = worker_context()
    results: Dict[int, Tuple[List[ShardTrace], list]] = {}
    procs = []
    try:
        result_queue = ctx.Queue()
        with profiler.lane_span("spawn-workers"):
            for worker_id in range(workers):
                proc = ctx.Process(
                    target=_trace_worker,
                    args=(
                        worker_id,
                        spec,
                        plan,
                        config,
                        list(slices[worker_id::workers]),
                        result_queue,
                    ),
                    daemon=True,
                )
                proc.start()
                procs.append(proc)

        with profiler.lane_span("drain-results"):
            while len(results) < len(procs):
                try:
                    kind, worker_id, payload = result_queue.get(
                        timeout=1.0
                    )
                except Exception:
                    dead = [
                        p for p in procs if p.exitcode not in (0, None)
                    ]
                    if dead:  # pragma: no cover - hard crash path
                        raise RuntimeError(
                            f"{len(dead)} sim trace worker(s) died with "
                            f"exit codes {[p.exitcode for p in dead]}"
                        )
                    continue
                if kind == "error":
                    raise RuntimeError(
                        f"sim trace worker {worker_id} failed:\n{payload}"
                    )
                results[worker_id] = payload
            for proc in procs:
                proc.join()
    finally:
        for proc in procs:
            if proc.is_alive():  # pragma: no cover - error cleanup
                proc.terminate()
                proc.join()
    return [results[w] for w in range(workers)]


class TraceReplay:
    """The simulator's one pipeline: trace a task order, replay it.

    Owns the replay PEs (their per-PE state and the shared
    ``memsys``), the scheduler that dispatches to them, and the feed
    that hands each PE the traced stream of the task it is sent.
    """

    def __init__(
        self,
        graph,
        plan,
        config: FlexMinerConfig,
        memsys: MemorySystem,
        num_patterns: int,
    ) -> None:
        self.graph = graph
        self.plan = plan
        self.config = config
        self._oriented = getattr(plan, "oriented", False)
        #: The graph the plan walks: the cached oriented DAG or ``graph``.
        self.work_graph = orient_by_degree(graph) if self._oriented else graph
        #: The replay feed: task -> (its slice's shard, index).
        self._traces: Dict[Task, Tuple[ShardTrace, int]] = {}
        self.pes = [
            _ReplayPE(i, config, memsys, num_patterns, self._traces)
            for i in range(config.num_pes)
        ]
        self.scheduler = Scheduler(self.pes)

    def run(self, tasks: Sequence[Task], workers: int, profiler) -> float:
        """Trace and replay ``tasks`` in order; returns the makespan.

        With ``workers > 1`` the slices are traced in that many worker
        processes first; an enabled ``profiler`` gets the trace and
        replay phases and one wall-clock lane per tracing process.
        """
        slices = slice_tasks(self.work_graph, tasks, workers)
        if workers == 1 or len(slices) < 2:
            lanes = [self._in_process(slices, profiler)]
        else:
            lanes = self._in_processes(slices, workers, profiler)
        if profiler.enabled:
            profiler.init_lanes(len(lanes))
            for worker_id, spans in enumerate(lanes):
                profiler.add_lane(worker_id, spans)
        return max(pe.time for pe in self.pes)

    def _in_process(self, slices, profiler) -> list:
        """Trace each slice and replay it straight away; returns the
        lane's recorded spans."""
        rec = LaneRecorder()
        with rec.span("attach-shm"):
            tracer = tracer_for(self.graph, self.plan, self.config)
        for tasks in slices:
            with profiler.phase("trace", tasks=len(tasks)):
                shard = _trace_slice(tracer, tasks, rec)
            with profiler.phase("replay", tasks=len(tasks)):
                self._replay([(tasks, shard)])
        return rec.spans

    def _in_processes(self, slices, workers: int, profiler) -> list:
        """Trace the slices in ``workers`` processes, then replay them
        in task order; returns each worker's recorded spans."""
        with profiler.phase("trace", slices=len(slices)):
            # Segments outlive the workers and never the call: leaving
            # the block closes and unlinks every one of them (FM301).
            with SharedCSRBuffers(self.graph) as shared:
                if self._oriented:
                    shared.share_oriented()
                results = _trace_in_processes(
                    shared.spec, self.plan, self.config, slices, workers,
                    profiler=profiler,
                )
        with profiler.phase("replay", slices=len(slices)):
            self._replay([
                (tasks, results[s % workers][0][s // workers])
                for s, tasks in enumerate(slices)
            ])
        return [spans for _shards, spans in results]

    def _replay(self, traced) -> None:
        """Dispatch traced ``(tasks, shard)`` slices, in order."""
        for tasks, shard in traced:
            for index, task in enumerate(tasks):
                self._traces[task] = (shard, index)
        self.scheduler.run(task for tasks, _ in traced for task in tasks)
        self._traces.clear()
