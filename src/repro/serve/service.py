"""Mining-as-a-service: a resident :class:`MiningService`.

Everything else in this repository is one-shot — a ``flexminer`` call or
a :class:`~repro.bench.harness.Harness` run pays graph load, plan
compilation and (for the multi-process paths) worker fork on every
mine.  A server answering a stream of requests should pay each of those
costs once:

* **graphs register once** — :meth:`MiningService.register_graph` loads
  a graph into a resident, leased :class:`~repro.engine.pool.MinerPool`
  whose workers keep the shared-memory CSR attached; re-registering a
  name bumps its *epoch* and invalidates every memoized result for it;
* **plans compile once ever** — the compiled-plan cache is keyed by the
  pattern's *canonical form* (isomorphic requests share one plan — the
  count is isomorphism-invariant), the vertex-induced flag and any
  explicit matching order; a single-flight guard means concurrent first
  requests still compile exactly once, which :meth:`compiles` exposes
  for tests to pin;
* **results memoize** — the result cache is keyed by (graph name,
  graph *epoch*, plan key, split degree), so a repeated request is
  answered from memory, bit-identical (counts *and*
  :class:`~repro.engine.counters.OpCounters`) to the first execution,
  and re-registration invalidates exactly the right entries;
* **one call per request** — :meth:`MiningService.request` runs on its
  caller's thread; the service starts no threads and keeps no queue;
* **admission control** — at most ``max_active`` requests (caller
  threads) are in flight; request ``max_active + 1`` is rejected
  immediately with :class:`~repro.errors.ServiceOverloaded`
  (backpressure the caller can act on, CMinerAPI-style active-task
  accounting).

Zero-drift guarantee: a served request (cached or executed, any arrival
order) returns counts and op counters bit-identical to a direct
:class:`~repro.engine.explore.PatternAwareEngine` run with chunking
off.  The ``serve-pool-2`` / ``serve-cached`` differential backends in
:mod:`repro.verify` enforce this continuously.  k-MC at k = 3 and 4
runs by decomposition (:mod:`repro.engine.motifs`): the ``("motifs",
k)`` plan key caches its :class:`~repro.engine.motifs.MotifCountPlan`,
a miss mines only the chain plans on the pool, and the counters are
theirs — the two serve backends are held to each other there.

Observability flows through :mod:`repro.obs`: per-request latency
histograms (``serve.request_ms`` with p50/p90/p99), live QPS, cache
hit/miss counters, active and active-peak gauges — surfaced by the
``stats`` op of ``flexminer serve`` and renderable with
``flexminer stats``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, replace
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..compiler.compiler import compile_motifs, compile_pattern
from ..engine.explore import MiningResult
from ..engine.motifs import MotifCountPlan, count_motifs, motif_count_plan
from ..engine.pool import MinerPool
from ..errors import (
    ConfigError,
    GraphNotRegistered,
    ServiceClosed,
    ServiceOverloaded,
)
from ..obs import MetricsRegistry, make_report
from ..patterns import Pattern, k_clique

__all__ = [
    "MineRequest",
    "MineResponse",
    "MiningService",
    "plan_cache_key",
]

PlanKey = Tuple[object, ...]


# ----------------------------------------------------------------------
# Requests and responses
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MineRequest:
    """One mining request against a registered graph.

    Either an ``app`` shorthand (``TC`` / ``k-CL`` / ``SL`` / ``k-MC``
    with ``k``/``pattern``, the :mod:`repro.apps` surface) or the
    explicit form — a ``pattern`` (with ``induced`` semantics and an
    optional ``matching_order`` override) or ``motif_k`` for the
    multi-pattern k-motif plan.
    """

    graph: str
    app: Optional[str] = None
    pattern: Optional[Pattern] = None
    k: int = 3
    motif_k: Optional[int] = None
    induced: bool = False
    matching_order: Optional[Tuple[int, ...]] = None
    #: None (bit-identical counters), an int, or "auto" (cost model).
    split_degree: Union[None, int, str] = None
    #: Per-request opt-out of the result/memo cache.
    use_cache: bool = True

    def resolve(self) -> "MineRequest":
        """Normalize the ``app`` shorthand into the explicit form."""
        if self.app is None:
            if (self.pattern is None) == (self.motif_k is None):
                raise ConfigError(
                    "request needs exactly one of app/pattern/motif_k"
                )
            return self
        if self.pattern is not None or self.motif_k is not None:
            if self.app != "SL":
                raise ConfigError(
                    f"app {self.app!r} does not take an explicit "
                    "pattern/motif_k"
                )
        if self.app == "TC":
            return replace(self, app=None, pattern=k_clique(3))
        if self.app == "k-CL":
            return replace(self, app=None, pattern=k_clique(self.k))
        if self.app == "SL":
            if self.pattern is None:
                raise ConfigError("SL needs a pattern")
            return replace(self, app=None)
        if self.app == "k-MC":
            return replace(
                self, app=None, pattern=None, motif_k=self.k, induced=True
            )
        raise ConfigError(
            f"unknown app {self.app!r}; expected TC/k-CL/SL/k-MC"
        )


@dataclass(frozen=True)
class MineResponse:
    """Outcome of one served request (counts + provenance)."""

    request_id: int
    graph: str
    epoch: int
    counts: Tuple[int, ...]
    counters: object  #: OpCounters (the caller's own; mutate freely)
    latency_s: float
    plan_cache_hit: bool
    result_cache_hit: bool

    @property
    def total(self) -> int:
        return sum(self.counts)

    def as_dict(self) -> Dict[str, object]:
        return {
            "request_id": self.request_id,
            "graph": self.graph,
            "epoch": self.epoch,
            "counts": list(self.counts),
            "total": self.total,
            "latency_ms": self.latency_s * 1e3,
            "plan_cache_hit": self.plan_cache_hit,
            "result_cache_hit": self.result_cache_hit,
        }


# ----------------------------------------------------------------------
# Plan cache key
# ----------------------------------------------------------------------
def plan_cache_key(
    pattern: Optional[Pattern] = None,
    motif_k: Optional[int] = None,
    *,
    induced: bool = False,
    matching_order: Optional[Sequence[int]] = None,
) -> PlanKey:
    """Canonical identity of a compiled plan.

    Unordered pattern requests key on the *canonical form*, so any two
    isomorphic patterns share one compiled plan (counting is
    isomorphism-invariant; the service never collects embeddings).  An
    explicit ``matching_order`` refers to the request's concrete vertex
    numbering, so those requests key on the literal adjacency instead —
    sharing across isomorphic-but-renumbered patterns would silently
    reinterpret the order.  Orientation needs no slot of its own: the
    compiler auto-detects it from the (canonical) clique structure.
    """
    if (pattern is None) == (motif_k is None):
        raise ConfigError("exactly one of pattern/motif_k required")
    if motif_k is not None:
        return ("motifs", int(motif_k))
    assert pattern is not None
    if matching_order is not None:
        labels = pattern.labels if pattern.is_labeled else None
        return (
            "pattern-ordered",
            pattern.num_vertices,
            pattern.adjacency_bits(),
            labels,
            bool(induced),
            tuple(int(v) for v in matching_order),
        )
    return (
        "pattern",
        pattern.num_vertices,
        pattern.canonical_form(),
        bool(induced),
    )


# ----------------------------------------------------------------------
# Single-flight cache
# ----------------------------------------------------------------------
class _SingleFlightCache:
    """Thread-safe memo cache where each key computes at most once.

    Concurrent requests for the same missing key elect one *leader*
    (counted as the miss, and the only ``compute_fn`` invocation);
    everyone else blocks on the leader's event and is counted as a hit.
    A failing leader propagates its exception to itself only — waiters
    re-elect and retry, so a transient failure never poisons the key.
    Bounded: beyond ``max_entries`` the oldest entry is evicted
    (insertion order).
    """

    def __init__(
        self, *, enabled: bool = True, max_entries: int = 1024
    ) -> None:
        self.enabled = enabled
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._lock = threading.Lock()
        self._done: Dict[object, object] = {}
        self._inflight: Dict[object, threading.Event] = {}

    def get_or_compute(
        self, key: object, compute_fn: Callable[[], object]
    ) -> Tuple[object, bool]:
        """Return ``(value, was_cache_hit)`` for ``key``."""
        if not self.enabled:
            with self._lock:
                self.misses += 1
            return compute_fn(), False
        while True:
            with self._lock:
                if key in self._done:
                    self.hits += 1
                    return self._done[key], True
                event = self._inflight.get(key)
                if event is None:
                    event = threading.Event()
                    self._inflight[key] = event
                    self.misses += 1
                    leader = True
                else:
                    leader = False
            if leader:
                try:
                    value = compute_fn()
                except BaseException:
                    with self._lock:
                        self._inflight.pop(key, None)
                    event.set()
                    raise
                with self._lock:
                    self._done[key] = value
                    self._inflight.pop(key, None)
                    while len(self._done) > self.max_entries:
                        oldest = next(iter(self._done))
                        del self._done[oldest]
                        self.evictions += 1
                event.set()
                return value, False
            event.wait()
            # Either the leader stored the value (hit on re-check) or
            # it failed (we may become the new leader).

    def invalidate(self, predicate: Callable[[object], bool]) -> int:
        """Drop every completed entry whose key satisfies ``predicate``."""
        with self._lock:
            doomed = [k for k in self._done if predicate(k)]
            for k in doomed:
                del self._done[k]
            return len(doomed)

    def __len__(self) -> int:
        with self._lock:
            return len(self._done)


# ----------------------------------------------------------------------
# Graph registry entry
# ----------------------------------------------------------------------
class _GraphEntry:
    """One registered graph: its epoch and its resident worker pool."""

    __slots__ = ("name", "graph", "epoch", "pool", "mine_lock")

    def __init__(
        self, name: str, graph: object, epoch: int, pool: MinerPool
    ) -> None:
        self.name = name
        self.graph = graph
        self.epoch = epoch
        self.pool = pool
        #: MinerPool serves one request at a time; concurrent service
        #: requests against the same graph serialize here (requests to
        #: *different* graphs run in parallel on their own pools).
        self.mine_lock = threading.Lock()


class MiningService:
    """Resident mining server over registered graphs and cached plans.

    Parameters
    ----------
    workers:
        Worker processes per registered graph's :class:`MinerPool`.
        ``1`` runs every mine in-process (exact serial parity, no
        fork) — the right default for correctness-first callers.
    max_active:
        Admission limit: requests in flight (one per caller thread)
        beyond this are rejected with :class:`ServiceOverloaded`.
    threads:
        Has no effect: every request runs on its caller's thread.
    result_cache / result_cache_entries:
        Toggle / bound the result memo cache.
    request_timeout_s:
        Per-request bound on waiting for pool workers; a wedged worker
        surfaces as :class:`~repro.engine.pool.PoolWorkerError`
        (``reason="timeout"``) instead of a hang.
    metrics:
        A :class:`~repro.obs.MetricsRegistry`; defaults to a private
        enabled registry so :meth:`stats` always has data.
    clock:
        Injectable monotonic clock (tests pin latency arithmetic).
    """

    def __init__(
        self,
        *,
        workers: int = 1,
        max_active: int = 8,
        threads: int = 2,
        result_cache: bool = True,
        result_cache_entries: int = 1024,
        request_timeout_s: Optional[float] = None,
        metrics: Optional[MetricsRegistry] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if workers < 1:
            raise ConfigError("workers must be >= 1")
        if max_active < 1:
            raise ConfigError("max_active must be >= 1")
        self.workers = int(workers)
        self.max_active = int(max_active)
        self.request_timeout_s = request_timeout_s
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        # The serve.* instruments, bound once: the registry memoises by
        # key, so each is the object a lookup by name would return.
        counter, gauge = self.metrics.counter, self.metrics.gauge
        self._n_requests = counter("serve.requests")
        self._n_failed = counter("serve.failed")
        self._n_rejected = counter("serve.rejected")
        self._n_registrations = counter("serve.graph_registrations")
        self._n_compiles = counter("serve.plan_cache.compiles")
        #: (miss, hit) counters of each cache, indexed by ``was_hit``.
        self._n_plan, self._n_result = (
            (counter(f"serve.{cache}.misses"), counter(f"serve.{cache}.hits"))
            for cache in ("plan_cache", "result_cache")
        )
        self._n_bypassed = counter("serve.result_cache.bypassed")
        self._n_invalidated = counter("serve.result_cache.invalidated")
        self._g_active = gauge("serve.active")
        self._g_active_peak = gauge("serve.active_peak")
        self._g_qps = gauge("serve.qps")
        self._g_result_size = gauge("serve.result_cache.size")
        self._g_graphs = gauge("serve.graphs")
        self._h_latency = self.metrics.histogram("serve.request_ms")
        self._clock = clock if clock is not None else time.perf_counter
        self._plans = _SingleFlightCache()
        self._results = _SingleFlightCache(
            enabled=result_cache, max_entries=result_cache_entries
        )
        self._graphs: Dict[str, _GraphEntry] = {}
        self._registry_lock = threading.Lock()
        #: Guards the admission counters; :meth:`close` waits on it for
        #: requests running on their callers' threads to retire.
        self._admit_lock = threading.Condition(threading.Lock())
        self._active = 0
        self._active_peak = 0
        self._completed = 0
        self._failed = 0
        self._rejected = 0
        self._next_request_id = 0
        self._anon_count = 0
        self._closed = False
        self._t0 = self._clock()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "MiningService":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Reject new work, wait for in-flight requests, close every pool."""
        with self._admit_lock:
            if self._closed:
                return
            self._closed = True
            self._admit_lock.wait_for(lambda: self._active == 0)
        # One failing pool must not strand the rest (FM301): capture the
        # first error, keep closing, re-raise.
        with self._registry_lock:
            entries, self._graphs = list(self._graphs.values()), {}
        failure: Optional[BaseException] = None
        for entry in entries:
            try:
                entry.pool.close()
            except BaseException as exc:
                if failure is None:
                    failure = exc
        if failure is not None:
            raise failure

    # ------------------------------------------------------------------
    # Graph registry
    # ------------------------------------------------------------------
    def register_graph(self, name: str, graph: object) -> int:
        """Register ``graph`` under ``name``; returns its epoch.

        Re-registering an existing name bumps the epoch, invalidates
        every memoized result for the name, and retires the old pool
        (deferred past in-flight leases — an overlapping request on the
        old epoch completes against the old graph, then the segments
        unlink).
        """
        if self._closed:
            raise ServiceClosed("cannot register on a closed service")
        pool = MinerPool(graph, workers=self.workers, metrics=self.metrics)
        try:
            with self._registry_lock:
                old = self._graphs.get(name)
                epoch = old.epoch + 1 if old is not None else 0
                self._graphs[name] = _GraphEntry(name, graph, epoch, pool)
        except BaseException:
            # the registry never took ownership: the fresh pool's
            # worker processes and shared segments are ours to reap
            pool.close()
            raise
        if old is not None:
            try:
                self.invalidate_graph(name)
            finally:
                old.pool.close()
        self._n_registrations.inc()
        self._publish_gauges()
        return epoch

    def unregister_graph(self, name: str) -> None:
        """Drop a graph: memoized results invalidate, its pool retires."""
        with self._registry_lock:
            entry = self._graphs.pop(name, None)
        if entry is None:
            raise GraphNotRegistered(f"graph {name!r} is not registered")
        self.invalidate_graph(name)
        entry.pool.close()  # deferred while in-flight leases exist
        self._publish_gauges()

    def invalidate_graph(self, name: str) -> int:
        """Explicitly drop every memoized result for ``name``."""
        dropped = self._results.invalidate(
            lambda key: isinstance(key, tuple) and key and key[0] == name
        )
        if dropped:
            self._n_invalidated.inc(dropped)
        return dropped

    def graphs(self) -> List[str]:
        with self._registry_lock:
            return sorted(self._graphs)

    def graph_epoch(self, name: str) -> int:
        return self._entry(name).epoch

    def ensure_graph(
        self, graph: object, *, name: Optional[str] = None
    ) -> str:
        """Name under which ``graph`` is registered, registering if new.

        The :mod:`repro.apps` passthrough hands the service a graph
        *object*; identity lookup keeps repeated app calls on the same
        object hitting the same pool and caches.
        """
        with self._registry_lock:
            for entry in self._graphs.values():
                if entry.graph is graph:
                    return entry.name
            if name is None:
                self._anon_count += 1
                name = f"anon-{self._anon_count}"
            taken = name in self._graphs
        if taken:
            raise ConfigError(
                f"graph name {name!r} is registered to a different graph"
            )
        self.register_graph(name, graph)
        return name

    def _entry(self, name: str) -> _GraphEntry:
        with self._registry_lock:
            entry = self._graphs.get(name)
            # snapshot under the lock: a concurrent (un)registration
            # must not resize the dict while the message iterates it
            known = ", ".join(sorted(self._graphs)) if entry is None else ""
        if entry is None:
            raise GraphNotRegistered(
                f"graph {name!r} is not registered (known: "
                f"{known or 'none'})"
            )
        return entry

    def _leased_entry(self, name: str) -> _GraphEntry:
        """Resolve and lease atomically, so unregister cannot race."""
        with self._registry_lock:
            entry = self._graphs.get(name)
            if entry is None:
                raise GraphNotRegistered(
                    f"graph {name!r} is not registered"
                )
            entry.pool.acquire()
        return entry

    # ------------------------------------------------------------------
    # Plan cache
    # ------------------------------------------------------------------
    @property
    def compiles(self) -> int:
        """Compiler invocations so far (== distinct plan keys served)."""
        return self._plans.misses

    def plan_for(
        self, request: MineRequest
    ) -> Tuple[object, Tuple[object, ...], bool]:
        """Compiled plan for a (resolved) request, through the cache.

        Returns ``(plan, plan_key, was_hit)``.
        """
        key = plan_cache_key(
            request.pattern,
            request.motif_k,
            induced=request.induced,
            matching_order=request.matching_order,
        )

        def compile_now() -> object:
            self._n_compiles.inc()
            if request.motif_k is not None:
                return motif_count_plan(request.motif_k) or compile_motifs(
                    request.motif_k
                )
            return compile_pattern(
                request.pattern,
                induced=request.induced,
                matching_order=request.matching_order,
            )

        plan, hit = self._plans.get_or_compute(key, compile_now)
        self._n_plan[hit].inc()
        return plan, key, hit

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def request(self, request: MineRequest) -> MineResponse:
        """Admit a request (or reject it with backpressure) and serve it
        on the caller's thread."""
        request = request.resolve()
        request_id = self._admit()
        try:
            response = self._execute(request, request_id)
        except BaseException:
            self._retire(failed=True)
            raise
        self._retire(failed=False)
        return response

    def mine(self, graph: str, **kwargs: Any) -> MineResponse:
        """Convenience: build a :class:`MineRequest` and serve it."""
        return self.request(MineRequest(graph=graph, **kwargs))

    def request_for(self, graph: object, **kwargs: Any) -> MineResponse:
        """Apps-API passthrough: serve against a graph *object*."""
        return self.mine(self.ensure_graph(graph), **kwargs)

    def _admit(self) -> int:
        """Take an admission slot (or raise); returns the request id."""
        with self._admit_lock:
            if self._closed:
                raise ServiceClosed("service is closed")
            if self._active >= self.max_active:
                self._rejected += 1
                self._n_rejected.inc()
                raise ServiceOverloaded(self._active, self.max_active)
            self._active += 1
            self._active_peak = max(self._active_peak, self._active)
            request_id = self._next_request_id
            self._next_request_id += 1
            self._g_active.set(self._active)
            self._g_active_peak.set(self._active_peak)
        return request_id

    def _retire(self, *, failed: bool) -> None:
        """Give an admission slot back, counting the request as completed
        or, if it raised, as failed (``qps`` counts completed only)."""
        with self._admit_lock:
            self._active -= 1
            self._g_active.set(self._active)
            if failed:
                self._failed += 1
                self._n_failed.inc()
            else:
                self._completed += 1
                self._n_requests.inc()
                elapsed = self._clock() - self._t0
                if elapsed > 0:
                    self._g_qps.set(self._completed / elapsed)
            if self._closed and self._active == 0:
                self._admit_lock.notify_all()  # close() is waiting

    def _execute(
        self, request: MineRequest, request_id: int
    ) -> MineResponse:
        started = self._clock()
        plan, plan_key, plan_hit = self.plan_for(request)
        entry = self._leased_entry(request.graph)
        try:
            result_key = (
                entry.name,
                entry.epoch,
                plan_key,
                request.split_degree,
            )

            def mine(run: object) -> MiningResult:
                return entry.pool.mine(
                    run,
                    split_degree=request.split_degree,
                    timeout_s=self.request_timeout_s,
                )

            def execute_now() -> MiningResult:
                with entry.mine_lock:
                    if isinstance(plan, MotifCountPlan):
                        return count_motifs(entry.graph, plan, mine)
                    return mine(plan)

            if request.use_cache:
                result, result_hit = self._results.get_or_compute(
                    result_key, execute_now
                )
                self._n_result[result_hit].inc()
            else:
                result, result_hit = execute_now(), False
                self._n_bypassed.inc()
        finally:
            entry.pool.release()
        latency_s = self._clock() - started
        self._h_latency.observe(latency_s * 1e3)
        self._g_result_size.set(len(self._results))
        counters = result.counters
        if request.use_cache and self._results.enabled:
            # A result the cache may hold: its counters must stay
            # immutable, so the caller gets a private copy.  A forced
            # result is fresh and never cached.
            counters = counters.copy()
        return MineResponse(
            request_id=request_id,
            graph=entry.name,
            epoch=entry.epoch,
            counts=tuple(result.counts),
            counters=counters,
            latency_s=latency_s,
            plan_cache_hit=plan_hit,
            result_cache_hit=result_hit,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def active_tasks(self) -> int:
        """Requests currently in flight."""
        with self._admit_lock:
            return self._active

    @property
    def active_peak(self) -> int:
        with self._admit_lock:
            return self._active_peak

    @property
    def requests_completed(self) -> int:
        with self._admit_lock:
            return self._completed

    @property
    def requests_rejected(self) -> int:
        with self._admit_lock:
            return self._rejected

    def cache_stats(self) -> Dict[str, Dict[str, int]]:
        """Python-level cache counters (exact, lock-protected)."""
        return {
            "plan": {
                "hits": self._plans.hits,
                "misses": self._plans.misses,
                "compiles": self._plans.misses,
                "size": len(self._plans),
            },
            "result": {
                "hits": self._results.hits,
                "misses": self._results.misses,
                "evictions": self._results.evictions,
                "size": len(self._results),
            },
        }

    def stats(self) -> Dict[str, object]:
        """Live service snapshot: admission, caches, graphs, latency."""
        with self._registry_lock:
            graphs = {
                name: {
                    "epoch": entry.epoch,
                    "pool": entry.pool.health(),
                }
                for name, entry in sorted(self._graphs.items())
            }
        latency = self._h_latency.get()
        elapsed = self._clock() - self._t0
        with self._admit_lock:
            completed = self._completed
            snapshot = {
                "closed": self._closed,
                "workers": self.workers,
                "max_active": self.max_active,
                "active": self._active,
                "active_peak": self._active_peak,
                "completed": completed,
                "failed": self._failed,
                "rejected": self._rejected,
            }
        snapshot.update(
            uptime_s=elapsed,
            qps=(completed / elapsed) if elapsed > 0 else 0.0,
            latency_ms=latency,
            caches=self.cache_stats(),
            graphs=graphs,
        )
        return snapshot

    def stats_report(self, **meta: object) -> Dict[str, object]:
        """``flexminer.run/1`` envelope of :meth:`stats` + metrics."""
        payload = dict(self.stats())
        if self.metrics.enabled:
            payload["metrics"] = self.metrics.snapshot()
        return make_report("serve", payload, meta=meta or None)

    def _publish_gauges(self) -> None:
        with self._registry_lock:
            count = len(self._graphs)
        self._g_graphs.set(count)
