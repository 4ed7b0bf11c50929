"""Persistent worker pool: fork once, mine an arbitrary request stream.

:class:`MinerPool` is the repository's one multi-process mining
backend.  Process spin-up — fork, shared-memory CSR export, queue
construction — costs more than most mines on the scaled benchmark
inputs, so the pool pays it once and amortizes it over a stream of
requests; a one-shot caller (``run_app(workers=N)``, ``flexminer mine
--workers N``) simply opens a transient ``with MinerPool(...)`` whose
stream has length one.

* **fork once** — N worker processes attach the graph a single time
  and stay resident.  One :class:`~repro.graph.SharedCSRBuffers` owns
  everything exported — CSR, labels and, from the first oriented
  request on, the degree-oriented DAG — and its whole lifecycle
  (atomic creation, complete teardown); the pool only holds it;
* **lightweight request protocol** — per request only the compiled plan
  and the (root, chunk) task ids of
  :func:`~repro.engine.parallel.order_tasks` cross the queues — the
  unchunked roots as a few contiguous slices per worker, cut by
  cumulative root degree, so each queue item is wide enough to fill
  the frontier walker's lanes — plus one result summary per worker on
  the way back; cooperative shutdown via per-worker control messages;
* **measured dispatch overhead** — the pool calibrates a per-task
  round-trip cost with ping messages (timed through
  :class:`repro.obs.prof.LaneRecorder` — engine code never reads the
  clock directly, fmlint FM206) and exposes it as
  :attr:`MinerPool.dispatch_overhead_s`;
* **cost-model chunking** — ``mine(..., split_degree="auto")`` asks
  :func:`cost_model_split_degree` to split hub roots into depth-1
  slices only when the :mod:`repro.compiler.estimate` work estimate
  says a chunk carries several multiples of the measured dispatch
  overhead; light workloads run unsplit (and therefore keep the merged
  :class:`~repro.engine.counters.OpCounters` bit-identical to a serial
  run).

``workers=1`` never forks: requests run in-process through the same
task order, which is the exact-parity debugging configuration.  The
pool is also the *only* place in ``repro.engine`` allowed to construct
worker processes (fmlint FM207 polices this); the context it forks them
from is :func:`repro.graph.worker_context`, the transport's.
"""

from __future__ import annotations

import math
import os
import queue as queue_module
import traceback
from typing import Dict, List, Optional, Sequence, Tuple

from ..compiler.estimate import GraphProfile, estimate_plan
from ..compiler.plan import MultiPlan
from ..graph import (
    LabeledGraph,
    SharedCSRBuffers,
    attach_shared_csr,
    orient_by_degree,
    worker_context,
)
from ..obs import NULL_PROFILER, NULL_REGISTRY, NULL_TRACER
from ..obs.prof import LaneRecorder
from .counters import OpCounters
from .explore import (
    _FRONTIER_BAND_ELEMS,
    MiningResult,
    PatternAwareEngine,
    _cut_bands,
)
from .parallel import (
    Task,
    _worker_summary,
    filter_roots,
    order_tasks,
    publish_worker_metrics,
    run_task_slice,
    run_tasks_in_process,
)

__all__ = [
    "CALIBRATION_PINGS",
    "MIN_SPLIT_DEGREE",
    "MinerPool",
    "PoolWorkerError",
    "SPLIT_WORK_FACTOR",
    "WORK_RATE_UNITS_PER_S",
    "cost_model_split_degree",
]

#: Ping round trips used to measure the per-task dispatch overhead (one
#: warm-up ping is sent first and discarded — it absorbs worker startup).
CALIBRATION_PINGS = 8

#: Result-queue poll period (seconds); worker death and request
#: timeouts are detected at this granularity.
_DRAIN_POLL_S = 1.0

#: How many multiples of the measured dispatch overhead one chunk's
#: *estimated* mining work must carry before auto-splitting engages.
#: Below this, queue traffic costs more than the parallelism recovers.
SPLIT_WORK_FACTOR = 4.0

#: Root slices queued per worker: enough that a slow slice cannot leave
#: the other workers idle for long, few enough that each stays a wide
#: frontier walk.
_SLICES_PER_WORKER = 4

#: Finest auto-split chunk: splitting below a few dozen depth-1
#: candidates re-runs candidate generation more often than it balances.
MIN_SPLIT_DEGREE = 8

#: Calibrated ballpark of merge-model work units (candidates scanned,
#: i.e. adjacency entries touched) the engine retires per second.  The
#: cost model only needs the order of magnitude: it converts the
#: measured dispatch overhead (seconds) into "units a chunk must carry
#: to be worth dispatching", and a 2-3x miss just shifts the split
#: threshold by the same factor.
WORK_RATE_UNITS_PER_S = 2.5e7


class PoolWorkerError(RuntimeError):
    """A pool worker raised, died or stalled; the pool is broken.

    ``reason`` is ``"failed"`` (the worker sent a traceback before
    exiting), ``"died"`` (hard crash detected via exit code) or
    ``"timeout"`` (no result arrived within the caller's request
    timeout — a hung or wedged worker); the traceback / exit codes /
    deadline are in ``detail``.  A broken pool refuses further
    requests; ``close()`` it.
    """

    def __init__(self, worker_id, reason: str, detail: str = "") -> None:
        self.worker_id = worker_id
        self.reason = reason
        self.detail = detail
        message = f"mining pool worker {worker_id} {reason}"
        if detail:
            message += f":\n{detail}"
        super().__init__(message)


def cost_model_split_degree(
    graph,
    plan,
    *,
    dispatch_overhead_s: float,
    profile: Optional[GraphProfile] = None,
    work_rate: float = WORK_RATE_UNITS_PER_S,
) -> Optional[int]:
    """Pick a straggler-split degree from estimated work vs dispatch cost.

    The :mod:`repro.compiler.estimate` model prices the whole search
    tree in scanned candidates; dividing by the total degree gives the
    average work hanging off one depth-1 candidate, so a chunk of ``s``
    candidates is worth roughly ``s * units_per_edge / work_rate``
    seconds.  The split degree is the smallest ``s`` whose chunk still
    carries :data:`SPLIT_WORK_FACTOR` times the measured dispatch
    overhead (never below :data:`MIN_SPLIT_DEGREE`).  Returns ``None``
    — no splitting — when no root is heavy enough to yield at least two
    chunks, which also keeps merged op counters bit-identical.
    """
    if isinstance(plan, MultiPlan):
        return None
    levels = estimate_plan(plan, graph, profile=profile)
    total_units = float(sum(level.candidates_scanned for level in levels))
    degrees = graph.degrees()
    if len(degrees) == 0 or total_units <= 0.0:
        return None
    max_degree = int(degrees.max())
    total_degree = float(degrees.sum())
    if total_degree <= 0.0:
        return None
    units_per_edge = total_units / total_degree
    min_chunk_units = (
        SPLIT_WORK_FACTOR * max(dispatch_overhead_s, 0.0) * work_rate
    )
    split = max(
        int(math.ceil(min_chunk_units / units_per_edge)), MIN_SPLIT_DEGREE
    )
    if max_degree < 2 * split:
        return None
    return split


class _PoolLease:
    """Context manager pairing :meth:`MinerPool.acquire`/``release``."""

    __slots__ = ("_pool",)

    def __init__(self, pool: "MinerPool") -> None:
        self._pool = pool

    def __enter__(self) -> "MinerPool":
        return self._pool.acquire()

    def __exit__(self, *exc) -> None:
        self._pool.release()


def _pool_worker(
    worker_id: int,
    graph_spec: Dict[str, object],
    ctrl_queue,
    task_queue,
    result_queue,
) -> None:
    """Worker main loop: attach once, then serve mine/ping requests.

    The topology (and labels) attach exactly once, before the first
    request, and the graph's one oriented DAG on the first request that
    names it, so a stream of same-shaped requests touches no
    graph-sized data after the first.  Queue items are slices of the
    task list (:func:`~repro.engine.parallel.run_task_slice`); one
    ``None`` sentinel per worker ends each request's drain; a
    ``("stop",)`` control message ends the worker.  Any exception is
    reported as a structured ``("error", ...)`` result and kills the
    worker — the parent turns it into :class:`PoolWorkerError`.
    """
    req_id = None
    try:
        graph = attach_shared_csr(graph_spec)
        dag = None
        while True:
            message = ctrl_queue.get()
            kind = message[0]
            if kind == "stop":
                break
            if kind == "ping":
                result_queue.put(("pong", message[1], worker_id, None))
                continue
            _, req_id, plan, work_spec, batch_frontier, profile = message
            rec = LaneRecorder()
            with rec.span("attach-shm"):
                if work_spec is not None and dag is None:
                    dag = attach_shared_csr(work_spec)
                engine = PatternAwareEngine(
                    graph, plan,
                    work_graph=None if work_spec is None else dag,
                    batch_frontier=batch_frontier,
                )
            tasks_done = 0
            chunks_done = 0
            while True:
                with rec.span("queue-wait", cat="queue-wait"):
                    tasks = task_queue.get()
                if tasks is None:
                    break
                roots, chunks = run_task_slice(engine, rec, tasks)
                tasks_done += roots
                chunks_done += chunks
            result_queue.put(
                (
                    "done",
                    req_id,
                    worker_id,
                    _worker_summary(
                        engine, rec, tasks_done, chunks_done, profile=profile
                    ),
                )
            )
            req_id = None
    except BaseException:  # pragma: no cover - exercised via error tests
        result_queue.put(("error", req_id, worker_id, traceback.format_exc()))


class MinerPool:
    """Resident worker processes serving a stream of mining requests.

    Parameters
    ----------
    graph:
        The data graph (:class:`CSRGraph` or :class:`LabeledGraph`),
        shared with workers through POSIX shared memory exactly once.
    workers:
        Worker process count (default ``os.cpu_count()``).  ``1`` runs
        every request in-process — no fork, exact serial parity.
    batch_frontier:
        Execution mode of every worker engine, for every request (see
        :class:`~repro.engine.explore.PatternAwareEngine`): the frontier
        walker by default, ``False`` for the recursive reference path.
    tracer / metrics / profiler:
        Parent-side observability; workers run untraced and their
        op-counter totals are merged into the parent registry
        (``engine.parallel.*`` per-worker gauges plus ``engine.pool.*``).
        With an enabled :class:`repro.obs.PhaseProfiler`, workers ship
        their span streams back and each mine emits one wall-clock lane
        per worker plus a coordinator lane, with setup/mine/merge phase
        attribution.  Never changes counts or counters (tested
        zero-drift).

    Requests are served strictly one at a time; the pool is not
    thread-safe.  Use as a context manager or call :meth:`close` —
    closing is idempotent and unlinks every shared segment.
    """

    def __init__(
        self,
        graph,
        *,
        workers: Optional[int] = None,
        batch_frontier: bool = True,
        tracer=None,
        metrics=None,
        profiler=None,
        calibration_clock=None,
    ) -> None:
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.graph = graph
        self.workers = int(workers)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.profiler = profiler if profiler is not None else NULL_PROFILER
        #: Injectable monotonic clock for dispatch calibration (tests
        #: pin the arithmetic with a fake stepped clock; None = the
        #: LaneRecorder default, ``time.perf_counter``).
        self._calibration_clock = calibration_clock
        self.batch_frontier = batch_frontier
        self._topology = (
            graph.graph if isinstance(graph, LabeledGraph) else graph
        )
        #: Owner of every segment the workers map (set by ``_start``).
        self._shared: Optional[SharedCSRBuffers] = None
        self._procs: List = []
        self._ctrl: List = []
        self._task_queue = None
        self._result_queue = None
        self._closed = False
        self._broken = False
        self._dispatch_overhead: Optional[float] = None
        self._requests = 0
        self._next_req = 0
        self._leases = 0
        self._close_pending = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def broken(self) -> bool:
        return self._broken

    @property
    def requests_served(self) -> int:
        return self._requests

    @property
    def leases(self) -> int:
        return self._leases

    def acquire(self) -> "MinerPool":
        """Take one lease on the pool (see :meth:`lease`).

        A leased pool defers :meth:`close` until the last
        :meth:`release`, so a long-lived owner (the serving layer) can
        hand the pool to concurrent requests without a teardown racing
        an in-flight mine.  Acquiring a closed, closing or broken pool
        raises.
        """
        self._check_open()
        if self._close_pending:
            raise RuntimeError(
                "MinerPool is closing; no new leases accepted"
            )
        self._leases += 1
        return self

    def release(self) -> None:
        """Drop one lease; runs any deferred close at the last one."""
        if self._leases <= 0:
            raise RuntimeError("release() without a matching acquire()")
        self._leases -= 1
        if self._leases == 0 and self._close_pending:
            self._close_pending = False
            self.close()

    def lease(self):
        """Context-managed :meth:`acquire`/:meth:`release` pair."""
        return _PoolLease(self)

    def health(self) -> Dict[str, object]:
        """Structured liveness snapshot (the serving layer's probe).

        ``alive_workers`` counts resident processes whose exit code is
        unset; a forked pool is healthy while it equals ``workers``.
        The in-process ``workers=1`` configuration reports 0 resident
        processes and stays healthy by construction.
        """
        alive = sum(
            1 for proc in self._procs if proc.exitcode is None
        )
        healthy = (
            not self._closed
            and not self._broken
            and (not self._procs or alive == len(self._procs))
        )
        return {
            "healthy": healthy,
            "closed": self._closed,
            "broken": self._broken,
            "workers": self.workers,
            "resident_workers": len(self._procs),
            "alive_workers": alive,
            "leases": self._leases,
            "requests_served": self._requests,
            "dispatch_overhead_s": self._dispatch_overhead,
        }

    def __enter__(self) -> "MinerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC-order dependent
        try:
            self.close()
        except Exception:
            pass

    def close(self) -> None:
        """Stop workers cooperatively and unlink every shared segment.

        Idempotent: the second and later calls are no-ops.  Workers
        still draining a request get a grace join, then a terminate.
        While leases are outstanding the close is *deferred*: the pool
        stops accepting new leases-by-close-intent and tears down when
        the last :meth:`release` lands.
        """
        if self._closed:
            return
        if self._leases > 0:
            self._close_pending = True
            return
        self._closed = True
        shared, self._shared = self._shared, None
        if shared is None:  # never forked: no worker, nothing exported
            return
        # Leaving the block closes and unlinks every segment, also when
        # stopping a worker raises (FM301).
        with shared:
            procs, self._procs = self._procs, []
            for ctrl in self._ctrl:
                try:
                    ctrl.put_nowait(("stop",))
                except Exception:  # pragma: no cover - queue torn down
                    pass
            for proc in procs:
                proc.join(timeout=5.0)
            for proc in procs:
                if proc.is_alive():  # pragma: no cover - stuck worker
                    proc.terminate()
                    proc.join()
            for q in (self._task_queue, self._result_queue, *self._ctrl):
                if q is not None:
                    q.cancel_join_thread()
                    q.close()
            self._ctrl = []
            self._task_queue = self._result_queue = None

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("MinerPool is closed")
        if self._broken:
            raise RuntimeError(
                "MinerPool is broken by a worker failure; close() it and "
                "create a new pool"
            )

    def _start(self) -> None:
        """Export the shared graph and fork the workers (first use only)."""
        if self._procs:
            return
        if self._shared is None:
            self._shared = SharedCSRBuffers(self.graph)
        ctx = worker_context()
        self._task_queue = ctx.Queue()
        self._result_queue = ctx.Queue()
        self._ctrl = [ctx.Queue() for _ in range(self.workers)]
        with self.profiler.lane_span("spawn-workers"):
            for worker_id in range(self.workers):
                proc = ctx.Process(
                    target=_pool_worker,
                    args=(
                        worker_id,
                        self._shared.spec,
                        self._ctrl[worker_id],
                        self._task_queue,
                        self._result_queue,
                    ),
                    daemon=True,
                )
                proc.start()
                self._procs.append(proc)

    # ------------------------------------------------------------------
    # Dispatch overhead calibration + cost-model chunking
    # ------------------------------------------------------------------
    @property
    def dispatch_overhead_s(self) -> float:
        """Measured per-task queue round-trip cost, seconds (cached).

        ``0.0`` for the in-process ``workers=1`` configuration.  The
        first read forks the pool (if it has not already) and times
        :data:`CALIBRATION_PINGS` control-queue round trips through a
        :class:`LaneRecorder` — the engine's sanctioned clock.
        """
        if self._dispatch_overhead is None:
            self._dispatch_overhead = self._calibrate()
        return self._dispatch_overhead

    def _calibrate(self, pings: int = CALIBRATION_PINGS) -> float:
        if self.workers == 1:
            return 0.0
        self._check_open()
        self._start()
        rec = LaneRecorder(clock=self._calibration_clock)
        # Warm-up round trip absorbs worker startup + graph attach.
        self._ping(rec, -1, cat="calibrate-warmup")
        for i in range(pings):
            self._ping(rec, i, cat="dispatch-ping")
        overhead = rec.total("dispatch-ping") / pings
        self.metrics.gauge("engine.pool.dispatch_overhead_us").set(
            overhead * 1e6
        )
        return overhead

    def _ping(self, rec: LaneRecorder, i: int, *, cat: str) -> None:
        worker_id = i % self.workers
        req_id = ("ping", i)
        with rec.span(f"ping w{worker_id}", cat=cat):
            self._ctrl[worker_id].put(("ping", req_id))
            self._drain(req_id, 1)

    def auto_split_degree(
        self, plan, *, profile: Optional[GraphProfile] = None
    ) -> Optional[int]:
        """Cost-model split degree for a plan on this pool's graph."""
        if self.workers <= 1 or isinstance(plan, MultiPlan):
            return None
        return cost_model_split_degree(
            self._work_graph(plan),
            plan,
            dispatch_overhead_s=self.dispatch_overhead_s,
            profile=profile,
        )

    # ------------------------------------------------------------------
    # Mining
    # ------------------------------------------------------------------
    def _work_graph(self, plan):
        """The graph ``plan``'s tasks walk: the DAG for oriented plans."""
        # getattr: a malformed plan must fail *in the worker* so the
        # caller sees the structured PoolWorkerError, not a parent-side
        # AttributeError.
        if not isinstance(plan, MultiPlan) and getattr(
            plan, "oriented", False
        ):
            return orient_by_degree(self._topology)
        return self._topology

    def _slice_tasks(
        self, work_graph, tasks: Sequence[Task]
    ) -> List[List[Task]]:
        """The queue items of one request: every chunk task on its own,
        then the unchunked roots as contiguous slices of the issue
        order, cut by cumulative root degree (the walker's own root
        estimate), about four per worker.  Under the walker none is
        smaller than one band, so a tiny graph degrades to a single
        slice rather than to per-root overhead; recursion has no lanes
        to fill and keeps its parallelism."""
        slices = [[task] for task in tasks if task[1] is not None]
        whole = [task for task in tasks if task[1] is None]
        degs = work_graph.degrees()[[root for root, _ in whole]]
        share = -(-int(degs.sum()) // (_SLICES_PER_WORKER * self.workers))
        floor = _FRONTIER_BAND_ELEMS if self.batch_frontier else 1
        slices.extend(
            whole[lo:hi] for lo, hi in _cut_bands(degs, max(floor, share))
        )
        return slices

    def mine(
        self,
        plan,
        *,
        roots: Optional[Sequence[int]] = None,
        split_degree=None,
        timeout_s: Optional[float] = None,
    ) -> MiningResult:
        """Serve one mining request against the resident workers.

        ``split_degree`` is ``None`` (whole-root tasks: merged counters
        bit-identical to serial), an integer (chunk roots above that
        degree into depth-1 slices; counts stay exact, counters
        inflate; single-pattern plans only), or ``"auto"`` — let
        :meth:`auto_split_degree` decide from the cost model and the
        measured dispatch overhead.

        ``timeout_s`` bounds the wait for worker results: a wedged
        worker (alive but unresponsive) surfaces as a structured
        :class:`PoolWorkerError` with ``reason="timeout"`` instead of a
        hang, and the pool is marked broken.  The deadline is enforced
        at result-queue poll granularity (~1 s), not as a precise
        wall-clock budget.
        """
        self._check_open()
        multi = isinstance(plan, MultiPlan)
        if split_degree == "auto":
            split_degree = self.auto_split_degree(plan)
        if split_degree is not None and multi:
            raise ValueError("task chunking requires a single-pattern plan")
        with self.profiler.phase("setup", workers=self.workers):
            tasks = order_tasks(
                self._work_graph(plan),
                filter_roots(self.graph, plan, roots),
                split_degree=split_degree,
            )
        chunk_units = sum(1 for _, chunk in tasks if chunk is not None)
        with self.tracer.span(
            "mine-parallel", cat="phase", workers=self.workers,
            tasks=len(tasks),
        ):
            with self.profiler.phase("mine", tasks=len(tasks)):
                summaries = self.run_tasks(
                    plan, tasks, timeout_s=timeout_s
                )
        with self.profiler.phase("merge"):
            summaries.sort(key=lambda item: item[0])
            counts = [0] * (plan.num_patterns if multi else 1)
            counters = OpCounters()
            with self.profiler.lane_span("counter-merge"):
                for _, summary in summaries:
                    for i, count in enumerate(summary["counts"]):
                        counts[i] += count
                    counters += summary["counters"]
            counters.matches = sum(counts)
            self._requests += 1
            publish_worker_metrics(
                self.metrics,
                self.profiler,
                summaries,
                workers=self.workers,
                num_tasks=len(tasks),
                chunk_units=chunk_units,
                counters=counters,
            )
            self._publish_pool_gauges()
        return MiningResult(counts=tuple(counts), counters=counters)

    def run_tasks(
        self,
        plan,
        tasks: Sequence[Task],
        *,
        timeout_s: Optional[float] = None,
    ) -> List[Tuple]:
        """Low-level entry: run explicit tasks, return worker summaries.

        :meth:`mine` minus task ordering and the merge; callers merge
        the ``(worker_id, summary)`` pairs themselves.  ``timeout_s``
        has :meth:`mine`'s semantics (and is ignored by the in-process
        ``workers=1`` path, which cannot wedge on a queue).
        """
        self._check_open()
        if self.workers == 1:
            return [
                run_tasks_in_process(
                    self.graph,
                    plan,
                    tasks,
                    batch_frontier=self.batch_frontier,
                    profile=self.profiler.enabled,
                )
            ]
        self._start()
        work_graph = self._work_graph(plan)
        work_spec = (
            None
            if work_graph is self._topology
            else self._shared.share_oriented()
        )
        req_id = self._next_req
        self._next_req += 1
        for ctrl in self._ctrl:
            ctrl.put(
                (
                    "mine",
                    req_id,
                    plan,
                    work_spec,
                    self.batch_frontier,
                    self.profiler.enabled,
                )
            )
        with self.profiler.lane_span("enqueue-tasks"):
            for tasks_slice in self._slice_tasks(work_graph, tasks):
                self._task_queue.put(tasks_slice)
            for _ in self._procs:
                self._task_queue.put(None)
        with self.profiler.lane_span("drain-results"):
            return self._drain(req_id, len(self._procs), timeout_s=timeout_s)

    def _drain(
        self,
        req_id,
        expected: int,
        *,
        timeout_s: Optional[float] = None,
    ) -> List[Tuple]:
        """Collect ``expected`` results for a request, watching for death.

        The deadline is tracked by counting 1-second poll rounds rather
        than reading a clock (fmlint FM206: engine code never touches
        the wall clock directly); accuracy is poll-granular, which is
        all a hang detector needs.
        """
        out: List[Tuple] = []
        waited_s = 0.0
        while len(out) < expected:
            try:
                message = self._result_queue.get(timeout=_DRAIN_POLL_S)
            except queue_module.Empty:
                dead = [
                    (i, proc)
                    for i, proc in enumerate(self._procs)
                    if proc.exitcode not in (0, None)
                ]
                if dead:
                    self._broken = True
                    ids = [i for i, _ in dead]
                    codes = [proc.exitcode for _, proc in dead]
                    raise PoolWorkerError(
                        ids[0] if len(ids) == 1 else ids,
                        "died",
                        f"exit codes {codes}",
                    )
                waited_s += _DRAIN_POLL_S
                if timeout_s is not None and waited_s >= timeout_s:
                    self._broken = True
                    stalled = [
                        i
                        for i, proc in enumerate(self._procs)
                        if proc.exitcode is None
                    ]
                    raise PoolWorkerError(
                        stalled if len(stalled) != 1 else stalled[0],
                        "timeout",
                        f"no result within ~{waited_s:.0f}s "
                        f"(timeout_s={timeout_s}); workers alive but "
                        "unresponsive",
                    )
                continue
            kind, rid, worker_id, payload = message
            if kind == "error":
                self._broken = True
                raise PoolWorkerError(worker_id, "failed", str(payload))
            if rid != req_id:
                # Stale residue from an interrupted earlier request.
                continue
            out.append((worker_id, payload))
        return out

    def _publish_pool_gauges(self) -> None:
        self.metrics.gauge("engine.pool.workers").set(self.workers)
        self.metrics.gauge("engine.pool.resident_workers").set(
            len(self._procs)
        )
        self.metrics.gauge("engine.pool.requests").set(self._requests)
        if self._dispatch_overhead is not None:
            self.metrics.gauge("engine.pool.dispatch_overhead_us").set(
                self._dispatch_overhead * 1e6
            )
