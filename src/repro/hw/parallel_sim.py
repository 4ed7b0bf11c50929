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

2. **Replay** — the streams drive the real scheduler heap, per-PE
   private caches / frontier allocators and the shared memory system
   through :class:`~repro.hw.pe.ProcessingElement`, which applies every
   charge in task order — and, when a cycle-domain tracer is attached,
   emits the task, stall, c-map, SIU/SDU and overflow events.

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
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..compiler.plan import VertexStep
from ..engine.explore import PatternAwareEngine, _cut_bands
from ..engine.parallel import Task
from ..engine.counters import merge_iterations
from ..engine.setops import bound_below, difference, intersect
from ..graph.csr import SharedCSRBuffers, attach_shared_csr, worker_context
from ..graph.orientation import orient_by_degree
from ..obs import NULL_PROFILER
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
    ShardTrace,
    insert_arg,
    overflow_arg,
)
from .mem import GraphLayout, MemorySystem
from .pe import PEStats, ProcessingElement
from .scheduler import Scheduler

__all__ = ["TraceReplay", "slice_tasks"]

#: Root-slice budget, in summed squared root degrees of the work graph
#: (a task's trace grows with its first two levels; hubs dominate).
_SLICE_WORK = 1 << 13


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


class _TracePE(PatternAwareEngine):
    """The reference tracer: one recursion per embedding, appending the
    events each step charges.

    The functional walk runs for real, and so does the per-task c-map
    (it resets at every task boundary); private-cache, memory-system
    and frontier-address state — everything that depends on which PE
    runs the task — is replay's.  :meth:`trace` is the interface the
    walker shares.
    """

    # Every candidate list must flow through the c-map/SIU charges
    # below; the base engine's count-only leaf shortcut would skip it.
    supports_leaf_counting = False

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
        from .walktrace import WalkTracer

        rec = LaneRecorder()
        with rec.span("attach-shm"):
            tracer = WalkTracer(attach_shared_csr(spec), plan, config)
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
            ProcessingElement(i, config, memsys, num_patterns, self._traces)
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
        # Imported on first use: every CLI verb imports repro.hw, and
        # only a simulation needs the walker compiled.
        from .walktrace import WalkTracer

        rec = LaneRecorder()
        with rec.span("attach-shm"):
            tracer = WalkTracer(self.graph, self.plan, self.config)
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
