"""Trace → replay: the simulator's one execution path.

The simulator interleaves two very different workloads: the
*functional* search-tree walk (set operations, candidate generation —
the expensive part) and the *timing* application (cache walks, NoC/DRAM
models, cycle charges — cheap but strictly order-dependent, because the
shared L2/NoC/DRAM state and every float accumulation depend on the
global task order).  Every simulation splits them:

1. **Trace** — the frontier walker
   (:class:`~repro.hw.walktrace.WalkTracer`) turns a list of
   ``(root, chunk)`` tasks into a :class:`~repro.hw.events.ShardTrace`:
   per task, the ordered events its walk charges (busy cycles by unit,
   private-cache touches, frontier writes/reads).  A stream is
   independent of which PE eventually executes the task: the c-map
   resets per task, graph addresses are global, and frontier entries are
   named by depth so the replaying PE's bump allocator assigns the real
   addresses.  :class:`_TracePE`, one recursion per embedding, is the
   reference the walker's streams are checked against.

2. **Replay** — each slice's shard is decoded once
   (:class:`~repro.hw.events.ReplayColumns`) and drives the real
   scheduler heap, per-PE private caches / frontier allocators and the
   shared memory system through
   :class:`~repro.hw.pe.ProcessingElement`, which replays a task in one
   pass over its memory events, in task order — and, when a
   cycle-domain tracer is attached, emits the task, stall, c-map,
   SIU/SDU and overflow events from the same pass.

The task order is cut into contiguous root slices.  In-process each
slice is replayed as soon as it is traced, so memory is bounded by a
slice, and slices are sized by the events they hold: the first takes
a root budget in summed squared root degrees, and each next budget is
set from the events per unit of squared degree the last slice traced,
aiming at :data:`_SLICE_EVENTS` events and at most doubling from one
slice to the next.  With ``workers > 1`` the cut is fixed up front
(:func:`slice_tasks`) and the slices are traced on a transient
:class:`~repro.engine.MinerPool` — the repository's one process pool,
whose workers already hold the shared graph, labels and oriented DAG
— as a trace job: each worker pulls ``(slice index, tasks)`` items
from the pool's task queue and ships back its shards by slice index.
Either way replay runs in task order and a slice boundary only
regroups exact integer settles, so the report is bit-identical at any
worker count and any cut.  :class:`TraceReplay` is the pipeline every
simulation runs (:class:`repro.hw.FlexMinerAccelerator` holds one).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..compiler.plan import VertexStep
from ..engine.explore import _cut_bands
from ..engine.parallel import Task
from ..engine.counters import merge_iterations
from ..engine.reference import RecursiveEngine
from ..engine.setops import bound_below, difference, intersect
from ..graph.orientation import orient_by_degree
from ..obs.prof import LaneRecorder, slice_label
from .cmap import HardwareCMap
from .config import FlexMinerConfig
from .events import (
    CMAP_STAT_FIELDS,
    EV_BUSY,
    EV_FREAD,
    EV_FWRITE,
    EV_INSERT,
    EV_OVERFLOW,
    EV_QUERY,
    EV_SDU,
    EV_SIU,
    EV_TOUCH,
    PE_STAT_FIELDS,
    ReplayColumns,
    ShardTrace,
    insert_arg,
    overflow_arg,
)
from .mem import GraphLayout, MemorySystem
from .pe import PEStats, ProcessingElement
from .scheduler import Scheduler

__all__ = ["TraceReplay", "slice_tasks"]

#: The first slice's root budget, in summed squared root degrees of the
#: work graph (a task's trace grows with its first two levels; hubs
#: dominate), and the trace workers' slice budget.
_FIRST_SLICE_BUDGET = 1 << 13
#: Events an in-process slice aims to trace; replay holds one decoded
#: slice at a time, so this bounds its columns.
_SLICE_EVENTS = 1 << 14


def _task_work(work_graph, tasks: Sequence[Task]) -> np.ndarray:
    """Each task's squared root degree (a chunk task counts its share
    of its root's)."""
    roots = np.array([root for root, _ in tasks], dtype=np.int64)
    pieces = np.array(
        [1 if chunk is None else chunk[1] for _, chunk in tasks]
    )
    degrees = work_graph.degrees()[roots]
    return (1 + degrees // pieces) * (1 + degrees)


def slice_tasks(
    work_graph, tasks: Sequence[Task], workers: int = 1
) -> List[List[Task]]:
    """The trace workers' cut: contiguous root slices of at most
    ``_FIRST_SLICE_BUDGET`` summed squared root degree, fixed before any
    slice is traced.

    Trace workers get at least two slices each where the task count
    allows, so every worker has work and the schedule's head (the hubs)
    spreads across them.
    """
    if not tasks:
        return []
    sizes = _task_work(work_graph, tasks)
    budget = _FIRST_SLICE_BUDGET
    if workers > 1:
        budget = min(budget, -(-int(sizes.sum()) // (2 * workers)))
    return [list(tasks[lo:hi]) for lo, hi in _cut_bands(sizes, budget)]


def _event_slices(work_graph, tasks: Sequence[Task], trace):
    """Cut ``tasks`` into contiguous slices as ``trace`` traces them;
    yields each ``(slice, shard)``.

    The first slice takes ``_FIRST_SLICE_BUDGET`` summed squared root
    degrees; each next budget aims the last slice's events per unit of
    squared degree at ``_SLICE_EVENTS`` events, at most doubling.  A
    slice always holds at least one task.
    """
    csum = np.cumsum(_task_work(work_graph, tasks), dtype=np.int64)
    lo, done, budget = 0, 0, _FIRST_SLICE_BUDGET
    while lo < len(tasks):
        hi = int(np.searchsorted(csum, done + budget, side="right"))
        hi = max(hi, lo + 1)
        chunk = list(tasks[lo:hi])
        shard = trace(chunk)
        yield chunk, shard
        work, events = int(csum[hi - 1]) - done, max(len(shard.codes), 1)
        budget = min(2 * budget, max(1, _SLICE_EVENTS * work // events))
        lo, done = hi, int(csum[hi - 1])


class _TracePE(RecursiveEngine):
    """The reference tracer: one recursion per embedding, appending the
    events each step charges.

    The functional walk runs for real, and so does the per-task c-map
    (it resets at every task boundary); private-cache, memory-system
    and frontier-address state — everything that depends on which PE
    runs the task — is replay's.  :meth:`trace` is the interface the
    walker shares.
    """

    def __init__(self, graph, plan, config: FlexMinerConfig) -> None:
        super().__init__(graph, plan)
        self.cmap: Optional[HardwareCMap] = HardwareCMap.from_config(config)
        self.stats = PEStats()
        self._layout = GraphLayout(graph.num_vertices)
        self._insert_depths = set(plan.cmap_insert_depths)
        self._insert_filter = getattr(plan, "cmap_insert_filter", {})
        self._covered: Dict[int, bool] = {}
        #: Depths whose candidate list the current task memoized.
        self._memoized: Set[int] = set()
        self._events: List[Tuple[int, int, int]] = []

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
        self._memoized.clear()
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

    # -- the walk --------------------------------------------------------
    def _touch_list(self, v: int, length: int) -> None:
        """The touches of reading ``v``'s neighbor list: its ``indptr``
        pair and ``indices`` slice."""
        start = int(self._work_graph.indptr[v])
        self._events += [
            (EV_TOUCH, *self._layout.indptr_range(v)),
            (EV_TOUCH, *self._layout.indices_range(start, length)),
        ]

    def _raw_candidates(
        self, step: VertexStep, emb: Sequence[int]
    ) -> np.ndarray:
        events = self._events
        cands, ops = self._operands(step, emb)
        if step.base_step is not None:
            self.stats.frontier_reads += 1
            # Only memoized lists are in the table (plancheck FM140).
            if step.base_step in self._memoized:
                events.append((EV_FREAD, step.base_step, 0))
        else:
            self._touch_list(emb[step.extender], len(cands))

        via_cmap = self.cmap is not None and all(
            self._covered.get(d, False) for _, d in ops
        )
        if ops and via_cmap:
            cycles = self.cmap.query_batch(len(cands))
            events.append((EV_QUERY, cycles, len(cands)))
            self.stats.cmap_cycles += cycles
            self.stats.cmap_resolved_checks += len(ops)
        elif ops:
            if self.cmap is not None:
                self.stats.cmap_fallbacks += 1
            self.stats.siu_resolved_checks += len(ops)
        for is_intersect, d in ops:
            # The CPU model charges every op, whichever unit answers it.
            other = self._load_adjacency(emb[d])
            if not via_cmap:
                self._touch_list(emb[d], len(other))
                cycles = merge_iterations(len(cands), len(other))
                events.append((EV_SIU if is_intersect else EV_SDU, cycles, 0))
                self.stats.setop_cycles += cycles
            op = intersect if is_intersect else difference
            cands = op(cands, other, self.counters)

        # Pruner scan: one candidate per cycle for bound + injectivity.
        events.append((EV_BUSY, len(cands), 0))
        self.stats.pruner_cycles += len(cands)

        self._raw_stack[step.depth] = cands
        if step.memoize_frontier:
            events.append((EV_FWRITE, len(cands), step.depth))
            self._memoized.add(step.depth)
        return cands

    # -- c-map maintenance on DFS moves (Fig. 12) -------------------------
    def _on_descend(self, depth: int, emb: List[int]) -> None:
        if self.cmap is None or depth not in self._insert_depths:
            return
        neighbors = self._work_graph.neighbors(emb[depth])
        flt = self._insert_filter.get(depth)
        if flt is not None:
            neighbors = bound_below(neighbors, emb[flt])
        # The degree is known from indptr before the list is brought in,
        # so the footprint estimate precedes the data fetch (§VI-B).
        occupancy = self.cmap.occupancy
        outcome = self.cmap.try_insert(neighbors, depth)
        self.stats.cmap_cycles += outcome.cycles
        if outcome.accepted:
            start = int(self._work_graph.indptr[emb[depth]])
            self._events += [
                (EV_INSERT, outcome.cycles, insert_arg(len(neighbors), depth)),
                (EV_TOUCH, *self._layout.indices_range(start, len(neighbors))),
            ]
        else:
            self._events.append((
                EV_OVERFLOW,
                outcome.cycles,
                overflow_arg(occupancy, len(neighbors), depth),
            ))
        self._covered[depth] = outcome.accepted

    def _on_backtrack(self, depth: int, emb: List[int]) -> None:
        if self._covered.pop(depth, False):
            cycles = self.cmap.remove_level(depth)
            self._events.append((EV_BUSY, cycles, 0))
            self.stats.cmap_cycles += cycles


def _trace_slice(tracer, tasks: Sequence[Task], rec: LaneRecorder):
    """Trace one root slice under a ``task`` lane span."""
    with rec.span(slice_label([root for root, _ in tasks]), cat="task"):
        return tracer.trace(tasks)


class _TraceJob:
    """The trace half of a simulation as a pool request
    (:meth:`repro.engine.MinerPool.run_tasks`): each worker builds a
    :class:`~repro.hw.walktrace.WalkTracer` over the graph it attached
    — its oriented DAG included — and traces the ``(slice index,
    tasks)`` items it pulls; its result is ``{slice index: shard}`` and
    its lane spans (when profiling)."""

    def __init__(self, plan, config: FlexMinerConfig) -> None:
        self.plan = plan
        self.config = config

    def start(self, graph) -> None:
        from .walktrace import WalkTracer

        self._tracer = WalkTracer(graph, self.plan, self.config)
        self._shards: Dict[int, ShardTrace] = {}

    def run(self, rec: LaneRecorder, item) -> None:
        index, tasks = item
        self._shards[index] = _trace_slice(self._tracer, tasks, rec)

    def result(self, rec: LaneRecorder, profile: bool):
        return self._shards, rec.spans if profile else None


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
        self.memsys = memsys
        #: The graph the plan walks: the cached oriented DAG or ``graph``.
        self.work_graph = (
            orient_by_degree(graph) if getattr(plan, "oriented", False)
            else graph
        )
        #: The replay feed: task -> (its slice's decoded columns, index).
        self._traces: Dict[Task, Tuple[ReplayColumns, int]] = {}
        self.pes = [
            ProcessingElement(i, config, memsys, num_patterns, self._traces)
            for i in range(config.num_pes)
        ]
        self.scheduler = Scheduler(self.pes)

    def run(self, tasks: Sequence[Task], workers: int, profiler) -> float:
        """Trace and replay ``tasks`` in order; returns the makespan.

        With ``workers > 1`` the slices are traced on a transient pool
        of that many worker processes first.  An enabled ``profiler``
        gets the trace and replay phases and one wall-clock lane per
        tracing process.  A trace-only one gets the pool's lanes, named,
        beside its coordinator rail, and no lane for an in-process run,
        which has no rail (its trace stays the host and cycle domains).
        """
        slices = (
            slice_tasks(self.work_graph, tasks, workers) if workers > 1
            else []
        )
        if len(slices) < 2:
            spans = self._in_process(tasks, profiler)
            lanes = [spans] if profiler.enabled else []
        else:
            lanes = self._in_processes(slices, workers, profiler)
        if lanes:
            profiler.init_lanes(len(lanes))
            for worker_id, spans in enumerate(lanes):
                profiler.add_lane(worker_id, spans)
        return max(pe.time for pe in self.pes)

    def _in_process(self, tasks, profiler) -> list:
        """Trace each slice and replay it straight away, cutting the
        next slice by the events the last one held; returns the lane's
        recorded spans."""
        # Imported on first use: every CLI verb imports repro.hw, and
        # only a simulation needs the walker compiled.
        from .walktrace import WalkTracer

        rec = LaneRecorder()
        with rec.span("build-tracer"):
            tracer = WalkTracer(self.graph, self.plan, self.config)

        def trace(chunk):
            with profiler.phase("trace", tasks=len(chunk)) as args:
                shard = _trace_slice(tracer, chunk, rec)
                if profiler.enabled:
                    args["events"] = len(shard.codes)
            return shard

        for chunk, shard in _event_slices(self.work_graph, tasks, trace):
            with profiler.phase("replay", tasks=len(chunk)) as args:
                self.replay(
                    [(chunk, shard)], args if profiler.enabled else None
                )
        return rec.spans

    def _in_processes(self, slices, workers: int, profiler) -> list:
        """Trace the slices on a transient pool of ``workers``, then
        replay them in task order; returns each worker's lane spans."""
        # Imported on first use, as the walker is: only a forked
        # simulation needs the pool.  The walker is imported before the
        # pool forks, so its workers inherit it instead of each
        # importing it in their attach-shm span.
        from ..engine.pool import MinerPool
        from . import walktrace  # noqa: F401

        with profiler.phase("trace", slices=len(slices)) as args:
            with MinerPool(
                self.graph, workers=workers, profiler=profiler
            ) as pool:
                results = sorted(pool.run_tasks(
                    _TraceJob(self.plan, self.config),
                    list(enumerate(slices)),
                ), key=lambda result: result[0])
            shards: Dict[int, ShardTrace] = {}
            for _worker_id, (traced, _spans) in results:
                shards.update(traced)
            if profiler.enabled:
                args["events"] = sum(
                    len(shard.codes) for shard in shards.values()
                )
        with profiler.phase("replay", slices=len(slices)) as args:
            self.replay(
                [(tasks, shards[s]) for s, tasks in enumerate(slices)],
                args if profiler.enabled else None,
            )
        return [spans for _worker_id, (_traced, spans) in results]

    def replay(self, traced, counts: Optional[dict] = None) -> None:
        """Replay traced ``(tasks, shard)`` slices, in order.

        Each slice is decoded once, dispatched task by task through the
        scheduler, settled on every PE and dropped, so replay holds one
        decoded slice at a time.  ``counts`` (the profiler's ``replay``
        phase args), when given, receives the replayed ``events``, the
        ``slices`` and the events of the largest (``largest_slice``),
        the private-cache reads of at least a byte (``touches``), the
        reads that missed (``missed_touches``) and the lines they
        fetched (``lines_fetched``: one NoC request each).
        """
        spans = any(pe._trace is not None for pe in self.pes)
        line_bytes = self.config.line_bytes
        if counts is not None:
            noc = self.memsys.noc.stats
            requests = noc.requests
            missed = sum(pe.missed_touches for pe in self.pes)
            events = touches = largest = 0
        for tasks, shard in traced:
            cols = ReplayColumns(shard, line_bytes, spans)
            for index, task in enumerate(tasks):
                self._traces[task] = (cols, index)
            self.scheduler.run(tasks)
            self._traces.clear()
            # One grouped sum settles every PE that ran a task.
            ran = [pe for pe in self.pes if pe.ran]
            sizes = [len(pe.ran) for pe in ran]
            rows = np.add.reduceat(
                cols.totals[[i for pe in ran for i in pe.ran]],
                np.cumsum([0] + sizes[:-1]),
            )
            for pe, row in zip(ran, rows.tolist()):
                pe.settle(row)
            if counts is not None:
                events += len(shard.codes)
                largest = max(largest, len(shard.codes))
                touches += int(np.count_nonzero(
                    ((shard.codes == EV_TOUCH) & (shard.arg_b > 0))
                    | (shard.codes == EV_FREAD)
                ))
        if counts is not None:
            counts.update(
                events=events,
                slices=len(traced),
                largest_slice=largest,
                touches=touches,
                missed_touches=(
                    sum(pe.missed_touches for pe in self.pes) - missed
                ),
                lines_fetched=noc.requests - requests,
            )
