"""Parallel accelerator simulation with bit-identical SimReports.

The serial simulator interleaves two very different workloads: the
*functional* search-tree walk (set operations, candidate generation —
the expensive part) and the *timing* application (cache walks, NoC/DRAM
models, cycle charges — cheap but strictly order-dependent, because the
shared L2/NoC/DRAM state and every float accumulation depend on the
global task order).

This module splits them into a classic trace/replay pipeline:

1. **Trace phase (parallel)** — worker processes walk disjoint shards
   of the task list with a :class:`_TracePE`: a real
   :class:`~repro.hw.pe.ProcessingElement` whose timing hooks record
   *events* instead of touching caches.  A task's event stream —
   busy charges, private-cache touches, frontier writes/reads — is
   independent of which PE eventually executes it: the c-map resets per
   task, graph addresses are global, and frontier entries are resolved
   symbolically (by depth) so the replaying PE's bump allocator assigns
   the real addresses.

2. **Replay phase (serial, cheap)** — the recorded streams drive the
   real scheduler heap, per-PE private caches / frontier allocators and
   the shared memory system through :class:`_ReplayPE`, which inherits
   the PE's own timing hooks (:class:`~repro.hw.pe.PETiming`).  Every
   charge is applied individually in the exact order the serial
   simulator would apply it, so float accumulation order — and
   therefore every cycle count, stall, queue delay and statistic — is
   preserved bit-for-bit.

``workers=1`` runs trace and replay in-process (no fork) through the
same encode/decode path, which is what the differential harness uses to
pin the machinery against the serial oracle.  The task list is the one
:func:`repro.engine.order_tasks` builds for the mining pool, and workers
use the pool's transport, :class:`~repro.graph.SharedCSRBuffers`: the
graph (labels and oriented DAG included) crosses into workers via POSIX
shared memory, never a pipe.

Tracing (``repro.obs``) hooks into simulator internals that the trace
phase bypasses, so ``simulate_parallel`` does not accept a tracer;
callers that need a cycle-domain trace run the serial
:func:`repro.hw.simulate`.  It does accept a
:class:`repro.obs.PhaseProfiler`: phases (setup / trace / replay /
merge) are attributed on the parent and — when the profiler carries a
tracer — each trace worker ships its wall-clock span stream back for a
per-worker lane in the merged Chrome trace.  Profiling never changes
the report (tested zero-drift).
"""

from __future__ import annotations

import traceback
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..compiler.plan import MultiPlan
from ..engine.parallel import Task, filter_roots, order_tasks
from ..errors import SimulationError
from ..graph import (
    CSRGraph,
    SharedCSRBuffers,
    attach_shared_csr,
    orient_by_degree,
    worker_context,
)
from ..obs import NULL_PROFILER, NULL_REGISTRY
from ..obs.prof import LaneRecorder, task_label
from .accelerator import build_report
from .config import FlexMinerConfig
from .mem import MemorySystem
from .pe import PETiming, ProcessingElement
from .report import SimReport
from .scheduler import Scheduler

__all__ = ["simulate_parallel"]

# Event codes in the per-task streams.
_EV_BUSY = 0      # (cycles, -)       charge busy cycles
_EV_TOUCH = 1     # (base, size)      private-cache read of a byte range
_EV_FWRITE = 2    # (length, depth)   frontier-list store
_EV_FREAD = 3     # (depth, -)        frontier-list read-back

#: Sentinel base address marking a frontier read in _TracePE's table
#: (real addresses are assigned by the replaying PE's allocator).
_FR_SENTINEL = -1

#: Integer statistic deltas shipped per task (exact under re-grouping).
_PE_STAT_FIELDS = (
    "pruner_cycles",
    "setop_cycles",
    "cmap_cycles",
    "frontier_reads",
    "cmap_fallbacks",
    "cmap_resolved_checks",
    "siu_resolved_checks",
)
_CMAP_STAT_FIELDS = (
    "inserts",
    "updates",
    "queries",
    "deletes",
    "insert_cycles",
    "query_cycles",
    "delete_cycles",
    "overflows",
)


class _TracePE(ProcessingElement):
    """A PE whose timing hooks record events instead of applying them.

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
        self._events.append((_EV_BUSY, cycles, 0))

    def _touch(self, base: int, size: int) -> None:
        if base == _FR_SENTINEL:
            self._events.append((_EV_FREAD, size, 0))
        else:
            self._events.append((_EV_TOUCH, base, size))

    def _write_frontier(self, length: int, depth: int) -> None:
        self._events.append((_EV_FWRITE, length, depth))
        # Symbolic entry: replay resolves the spill address; reads via
        # _touch(*entry) become (_FR_SENTINEL, depth) and are re-coded.
        self._frontier_table[depth] = (_FR_SENTINEL, depth)

    # -- per-task tracing ----------------------------------------------
    def trace_task(self, root: int, chunk: Optional[Tuple[int, int]]):
        """Run one task functionally; returns (events, stats, counts).

        :meth:`ProcessingElement.execute_task` minus the dispatch
        charge and task counter, which replay applies.
        """
        if self.cmap is not None:
            self.cmap.reset()
        self._covered.clear()
        self._events = []
        pe_before = [getattr(self.stats, f) for f in _PE_STAT_FIELDS]
        cm_before = (
            [getattr(self.cmap.stats, f) for f in _CMAP_STAT_FIELDS]
            if self.cmap is not None
            else None
        )
        counts_before = list(self._counts)
        self.run_task(root, chunk=chunk)
        deltas = [
            int(getattr(self.stats, f)) - int(b)
            for f, b in zip(_PE_STAT_FIELDS, pe_before)
        ]
        if cm_before is not None:
            deltas += [
                getattr(self.cmap.stats, f) - b
                for f, b in zip(_CMAP_STAT_FIELDS, cm_before)
            ]
        else:
            deltas += [0] * len(_CMAP_STAT_FIELDS)
        counts_delta = [
            c - b for c, b in zip(self._counts, counts_before)
        ]
        return self._events, deltas, counts_delta


class _ShardTrace:
    """Encoded trace of one worker's task shard (fast to pickle).

    Events live in three flat arrays segmented by ``bounds``; integer
    statistic deltas and per-pattern count deltas are one row per task.
    """

    def __init__(self, num_patterns: int) -> None:
        self._codes: List[int] = []
        self._arg_a: List[int] = []
        self._arg_b: List[int] = []
        self._bounds: List[int] = [0]
        self._stats: List[List[int]] = []
        self._counts: List[List[int]] = []
        self.num_patterns = num_patterns

    def add(self, events, deltas, counts_delta) -> None:
        for code, a, b in events:
            self._codes.append(code)
            self._arg_a.append(a)
            self._arg_b.append(b)
        self._bounds.append(len(self._codes))
        self._stats.append(deltas)
        self._counts.append(counts_delta)

    def seal(self) -> None:
        """Convert to numpy for compact transport."""
        self.codes = np.asarray(self._codes, dtype=np.int8)
        self.arg_a = np.asarray(self._arg_a, dtype=np.int64)
        self.arg_b = np.asarray(self._arg_b, dtype=np.int64)
        self.bounds = np.asarray(self._bounds, dtype=np.int64)
        n = len(self._stats)
        width = len(_PE_STAT_FIELDS) + len(_CMAP_STAT_FIELDS)
        self.stats = np.asarray(self._stats, dtype=np.int64).reshape(
            n, width
        )
        self.counts = np.asarray(self._counts, dtype=np.int64).reshape(
            n, self.num_patterns
        )
        del self._codes, self._arg_a, self._arg_b
        del self._bounds, self._stats, self._counts

    def task(self, i: int):
        """Decoded (events, stat deltas, count deltas) of shard task i."""
        lo, hi = int(self.bounds[i]), int(self.bounds[i + 1])
        events = list(
            zip(
                self.codes[lo:hi].tolist(),
                self.arg_a[lo:hi].tolist(),
                self.arg_b[lo:hi].tolist(),
            )
        )
        return events, self.stats[i].tolist(), self.counts[i].tolist()


def _trace_shard(
    tracer_pe: _TracePE,
    tasks: Sequence[Task],
    num_patterns: int,
    rec: Optional[LaneRecorder] = None,
):
    shard = _ShardTrace(num_patterns)
    for root, chunk in tasks:
        if rec is not None:
            with rec.span(task_label(root, chunk), cat="task"):
                shard.add(*tracer_pe.trace_task(root, chunk))
        else:
            shard.add(*tracer_pe.trace_task(root, chunk))
    shard.seal()
    return shard


def _trace_worker(
    worker_id: int,
    spec,
    plan,
    config: FlexMinerConfig,
    tasks: Sequence[Task],
    num_patterns: int,
    profile: bool,
    result_queue,
) -> None:
    """Worker main: attach the shared graph, trace the shard, report.

    With ``profile`` the shard is accompanied by the worker's recorded
    span stream (shm attach plus one span per traced task); the spans
    are side recordings and never influence the shard itself.
    """
    try:
        rec = LaneRecorder()
        with rec.span("attach-shm"):
            tracer_pe = _TracePE(attach_shared_csr(spec), plan, config)
        shard = _trace_shard(
            tracer_pe, tasks, num_patterns, rec if profile else None
        )
        result_queue.put(
            ("done", worker_id, (shard, rec.spans if profile else None))
        )
    except BaseException:  # pragma: no cover - exercised via error path
        result_queue.put(("error", worker_id, traceback.format_exc()))


class _ReplayPE(PETiming):
    """Applies recorded event streams with real per-PE and shared state.

    The timing surface — charge order, overlap credit, frontier
    allocation, fast/legacy kernel selection — is the inherited
    :class:`~repro.hw.pe.PETiming`, the very functions
    :class:`~repro.hw.pe.ProcessingElement` runs, so the resulting
    floats are bit-identical to the serial simulator's.
    """

    def __init__(
        self,
        pe_id: int,
        config: FlexMinerConfig,
        memsys: MemorySystem,
        num_patterns: int,
        traces: Dict[Task, Tuple],
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
        self.time = max(self.time, dispatch_time)
        self._charge_busy(self.config.dispatch_cycles)
        self.stats.tasks += 1
        events, deltas, counts_delta = self._traces[v0, chunk]
        for code, a, b in events:
            if code == _EV_BUSY:
                self._charge_busy(a)
            elif code == _EV_TOUCH:
                self._touch(a, b)
            elif code == _EV_FWRITE:
                self._write_frontier(a, b)
            else:  # _EV_FREAD
                entry = self._frontier_table.get(a)
                if entry is None:  # pragma: no cover - invariant guard
                    raise SimulationError(
                        "frontier read before any write at depth "
                        f"{a} during replay"
                    )
                self._touch(*entry)
        n_pe = len(_PE_STAT_FIELDS)
        for name, delta in zip(_PE_STAT_FIELDS, deltas[:n_pe]):
            setattr(self.stats, name, getattr(self.stats, name) + delta)
        if self.cmap is not None:
            for name, delta in zip(_CMAP_STAT_FIELDS, deltas[n_pe:]):
                setattr(
                    self.cmap.stats,
                    name,
                    getattr(self.cmap.stats, name) + delta,
                )
        for i, c in enumerate(counts_delta):
            self._counts[i] += c


def _trace_in_processes(
    spec,
    plan,
    config: FlexMinerConfig,
    tasks: Sequence[Task],
    num_patterns: int,
    workers: int,
    profiler=NULL_PROFILER,
) -> List[Tuple[_ShardTrace, Optional[list]]]:
    """Fan the task shards out to worker processes; shards by worker id.

    ``spec`` names the shared graph the workers attach.  Returns one
    ``(shard, spans)`` pair per worker; spans are ``None`` unless the
    profiler is enabled.
    """
    ctx = worker_context()
    shards: Dict[int, Tuple[_ShardTrace, Optional[list]]] = {}
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
                        list(tasks[worker_id::workers]),
                        num_patterns,
                        profiler.enabled,
                        result_queue,
                    ),
                    daemon=True,
                )
                proc.start()
                procs.append(proc)

        with profiler.lane_span("drain-results"):
            while len(shards) < len(procs):
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
                shards[worker_id] = payload
            for proc in procs:
                proc.join()
    finally:
        for proc in procs:
            if proc.is_alive():  # pragma: no cover - error cleanup
                proc.terminate()
                proc.join()
    return [shards[w] for w in range(workers)]


def simulate_parallel(
    graph: CSRGraph,
    plan,
    config: Optional[FlexMinerConfig] = None,
    *,
    workers: int = 1,
    roots: Optional[Sequence[int]] = None,
    metrics=None,
    profiler=None,
) -> SimReport:
    """Simulate with the trace phase spread over ``workers`` processes.

    The returned :class:`SimReport` is bit-identical to
    :func:`repro.hw.simulate` with the same arguments, for any worker
    count — counts, cycles, per-PE breakdowns, cache/NoC/DRAM counters
    and all derived rates.  ``workers=1`` traces in-process (no fork)
    but still exercises the full encode/replay pipeline.  An enabled
    ``profiler`` attributes the setup/trace/replay/merge phases and, if
    it carries a tracer, emits one wall-clock lane per trace worker;
    the report stays bit-identical either way.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    profiler = profiler if profiler is not None else NULL_PROFILER
    with profiler.phase("setup", workers=workers):
        config = config or FlexMinerConfig()
        metrics = metrics if metrics is not None else NULL_REGISTRY
        split = config.task_split_degree
        if split is not None and isinstance(plan, MultiPlan):
            raise SimulationError(
                "task splitting requires a single-pattern plan"
            )
        num_patterns = (
            plan.num_patterns if isinstance(plan, MultiPlan) else 1
        )
        oriented = not isinstance(plan, MultiPlan) and plan.oriented
        tasks = order_tasks(
            orient_by_degree(graph) if oriented else graph,
            filter_roots(graph, plan, roots),
            split_degree=split,
        )

    # Phase 1: trace.
    with profiler.phase("trace", tasks=len(tasks), workers=workers):
        if workers == 1 or len(tasks) < 2:
            rec = LaneRecorder()
            with rec.span("attach-shm"):
                tracer_pe = _TracePE(graph, plan, config)
            shards = [
                _trace_shard(
                    tracer_pe, tasks, num_patterns,
                    rec if profiler.enabled else None,
                )
            ]
            shard_tasks = [tasks]
            lanes = [(0, rec.spans if profiler.enabled else None)]
        else:
            # Segments outlive the workers and never the call: leaving
            # the block closes and unlinks every one of them (FM301).
            with SharedCSRBuffers(graph) as shared:
                if oriented:
                    shared.share_oriented()
                payloads = _trace_in_processes(
                    shared.spec, plan, config, tasks,
                    num_patterns, workers, profiler=profiler,
                )
            shards = [shard for shard, _spans in payloads]
            lanes = list(enumerate(spans for _shard, spans in payloads))
            shard_tasks = [tasks[w::workers] for w in range(workers)]
        if profiler.enabled:
            profiler.init_lanes(len(lanes))
            for worker_id, spans in lanes:
                profiler.add_lane(worker_id, spans)

    # Phase 2: replay (serial; identical order to the serial simulator).
    with profiler.phase("replay", tasks=len(tasks)):
        traces: Dict[Task, Tuple] = {}
        for shard, assigned in zip(shards, shard_tasks):
            for i, task in enumerate(assigned):
                traces[task] = shard.task(i)
        memsys = MemorySystem(config, graph)
        pes = [
            _ReplayPE(i, config, memsys, num_patterns, traces)
            for i in range(config.num_pes)
        ]
        makespan = Scheduler(pes).run(tasks)

    with profiler.phase("merge"):
        report = build_report(pes, memsys, config, num_patterns, makespan)
        metrics.absorb(report.as_dict(), prefix="sim.")
        metrics.gauge("sim.parallel.workers").set(workers)
        metrics.gauge("sim.parallel.tasks").set(len(tasks))
    return report
