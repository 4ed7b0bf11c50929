"""Top-level FlexMiner accelerator simulation (paper Fig. 8).

``FlexMinerAccelerator`` wires the pieces together: it loads the
execution plan (the software/hardware interface of §V), instantiates the
PEs with their private caches and c-maps, the shared L2, the NoC and the
DRAM model, and drives the dynamic scheduler through the one simulator
path, trace → replay (:mod:`repro.hw.parallel_sim`).  ``simulate`` is
the one-call convenience wrapper used by the apps and benches;
``simulate_parallel`` is the same run with the trace half spread over
the workers of a transient :class:`~repro.engine.MinerPool`.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..compiler.plan import ExecutionPlan, MultiPlan
from ..errors import SimulationError
from ..graph.csr import CSRGraph
from ..obs import NULL_PROFILER, NULL_REGISTRY
from ..obs.trace import SIM_PID
from .config import FlexMinerConfig
from .mem import MemorySystem
from .parallel_sim import TraceReplay
from .report import SimReport
from .scheduler import Scheduler

__all__ = [
    "FlexMinerAccelerator",
    "build_report",
    "simulate",
    "simulate_parallel",
]


def build_report(
    pes, memsys, config: FlexMinerConfig, num_patterns: int, makespan: float
) -> SimReport:
    """Aggregate per-PE and memory-system state into a :class:`SimReport`.

    ``pes`` only needs the PE result surface (``counts``, ``stats``,
    ``private``, ``cmap``, ``time``) the replay PEs carry.
    """
    counts = [0] * num_patterns
    busy = stall = 0.0
    # Unit breakdowns are integer-exact (see PEStats): keep them int so
    # per-task deltas re-group bit for bit at any worker count.
    pruner = setop = cmap_cycles = 0
    private_hits = private_misses = 0
    cmap_reads = cmap_writes = cmap_over = fallbacks = 0
    frontier_reads = 0
    tasks = 0
    per_pe = []
    for pe in pes:
        for i, c in enumerate(pe.counts):
            counts[i] += c
        busy += pe.stats.busy_cycles
        stall += pe.stats.stall_cycles
        pruner += pe.stats.pruner_cycles
        setop += pe.stats.setop_cycles
        cmap_cycles += pe.stats.cmap_cycles
        private_hits += pe.private.stats.hits
        private_misses += pe.private.stats.misses
        frontier_reads += pe.stats.frontier_reads
        fallbacks += pe.stats.cmap_fallbacks
        tasks += pe.stats.tasks
        per_pe.append(pe.time)
        if pe.cmap is not None:
            cmap_reads += pe.cmap.stats.reads
            cmap_writes += pe.cmap.stats.writes
            cmap_over += pe.cmap.stats.overflows

    seconds = makespan / (config.pe_freq_ghz * 1e9)
    return SimReport(
        counts=tuple(counts),
        cycles=makespan,
        seconds=seconds,
        num_pes=config.num_pes,
        busy_cycles=busy,
        stall_cycles=stall,
        pruner_cycles=pruner,
        setop_cycles=setop,
        cmap_cycles=cmap_cycles,
        noc_requests=memsys.noc.stats.requests,
        dram_accesses=memsys.dram.stats.accesses,
        l2_hits=memsys.l2.stats.hits,
        l2_misses=memsys.l2.stats.misses,
        private_hits=private_hits,
        private_misses=private_misses,
        cmap_reads=cmap_reads,
        cmap_writes=cmap_writes,
        cmap_overflows=cmap_over,
        cmap_fallbacks=fallbacks,
        frontier_reads=frontier_reads,
        tasks=tasks,
        per_pe_cycles=per_pe,
        extras={
            "noc_queue_cycles": memsys.noc.stats.queue_cycles,
            "dram_queue_cycles": memsys.dram.stats.queue_cycles,
            "dram_row_hit_rate": memsys.dram.stats.row_hit_rate,
        },
    )


class FlexMinerAccelerator:
    """A configured FlexMiner instance bound to one graph and plan.

    ``profiler`` (a :class:`repro.obs.PhaseProfiler`) is the one
    observability handle of a run.  Its tracer records the simulation in
    Chrome trace-event form: the host ``simulate`` phase (with setup /
    trace / replay / merge inside it) on pid 0, and on pid 1 one trace
    thread per PE with task/stall/set-op/c-map intervals in the cycle
    domain, plus sampled NoC/DRAM/L2 counter tracks.  Enabled, it also
    attributes each phase's wall-clock cost; ``PhaseProfiler(tracer=T,
    enabled=False)`` traces without attributing.  ``metrics`` (a
    :class:`repro.obs.MetricsRegistry`) receives the final report under
    ``sim.*`` gauges.  Both default to no-ops; enabling them never
    changes counts, cycles or counters.
    """

    def __init__(
        self,
        graph: CSRGraph,
        plan,
        config: Optional[FlexMinerConfig] = None,
        *,
        metrics=None,
        profiler=None,
    ) -> None:
        if not isinstance(plan, (ExecutionPlan, MultiPlan)):
            raise SimulationError("plan must be an ExecutionPlan or MultiPlan")
        self.graph = graph
        self.plan = plan
        self.config = config or FlexMinerConfig()
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.profiler = (
            profiler if profiler is not None else NULL_PROFILER
        )
        self.num_patterns = (
            plan.num_patterns if isinstance(plan, MultiPlan) else 1
        )
        with self.profiler.phase("setup", pes=self.config.num_pes):
            self.memsys = MemorySystem(self.config, graph)
            self._pipeline = TraceReplay(
                graph, plan, self.config, self.memsys, self.num_patterns
            )
            self.pes = self._pipeline.pes
            self.scheduler = self._pipeline.scheduler
        tracer = self.profiler.tracer  # also the cycle-domain tracer
        if tracer.enabled:
            for pe in self.pes:
                pe._trace = tracer
            self.memsys.attach_tracer(tracer)
            tracer.process_name(
                "FlexMiner accelerator (ts = PE cycles)", pid=SIM_PID
            )
            for pe in self.pes:
                tracer.thread_name(
                    f"PE {pe.pe_id}", pid=SIM_PID, tid=pe.pe_id
                )
            tracer.thread_name(
                "scheduler", pid=SIM_PID, tid=self.config.num_pes
            )

    def run(self, roots: Optional[Iterable[int]] = None) -> SimReport:
        """Simulate mining the whole graph (or the given roots)."""
        return self._simulate(roots, workers=1)

    def _simulate(self, roots, workers: int) -> SimReport:
        """:meth:`run` with the trace half on ``workers`` processes —
        what :func:`simulate` and :func:`simulate_parallel` both call."""
        # Local: the root filter has one owner in repro.engine, and this
        # module must not re-export it.
        from ..engine.parallel import filter_roots

        split = self.config.task_split_degree
        if split is not None and isinstance(self.plan, MultiPlan):
            raise SimulationError(
                "task splitting requires a single-pattern plan"
            )
        tasks = Scheduler.order_tasks(
            self._pipeline.work_graph,
            filter_roots(self.graph, self.plan, roots),
            split_degree=split,
        )
        with self.profiler.phase(
            "simulate", tasks=len(tasks), workers=workers
        ):
            makespan = self._pipeline.run(tasks, workers, self.profiler)
            with self.profiler.phase("merge"):
                self.profiler.tracer.complete(
                    "run", 0.0, makespan,
                    pid=SIM_PID, tid=self.config.num_pes, cat="phase",
                    args={"tasks": self.scheduler.tasks_dispatched},
                )
                report = build_report(
                    self.pes, self.memsys, self.config,
                    self.num_patterns, makespan,
                )
                self.metrics.absorb(report.as_dict(), prefix="sim.")
        return report


def simulate(
    graph: CSRGraph,
    plan,
    config: Optional[FlexMinerConfig] = None,
    *,
    roots: Optional[Iterable[int]] = None,
    metrics=None,
    profiler=None,
) -> SimReport:
    """Build an accelerator and run one simulation.

    ``metrics``/``profiler`` are optional observability sinks (see
    :class:`FlexMinerAccelerator`); they never affect simulated
    results.
    """
    accel = FlexMinerAccelerator(
        graph, plan, config, metrics=metrics, profiler=profiler
    )
    return accel.run(roots)


def simulate_parallel(
    graph: CSRGraph,
    plan,
    config: Optional[FlexMinerConfig] = None,
    *,
    workers: int = 1,
    roots: Optional[Iterable[int]] = None,
    metrics=None,
    profiler=None,
) -> SimReport:
    """:func:`simulate` with the trace half spread over the ``workers``
    processes of a transient :class:`~repro.engine.MinerPool`, as
    ``run_app(workers=N)`` mines on one: a worker that fails or exits
    without a result raises its :class:`~repro.engine.PoolWorkerError`.

    The returned :class:`SimReport` — and the cycle-domain trace the
    ``profiler``'s tracer records — is bit-identical to :func:`simulate`
    with the same arguments, for any worker count: replay always runs
    in task order in this process.  An enabled ``profiler`` attributes
    the setup / trace / replay / merge phases and, if it carries a
    tracer, emits one wall-clock lane per trace worker.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    metrics = metrics if metrics is not None else NULL_REGISTRY
    accel = FlexMinerAccelerator(
        graph, plan, config, metrics=metrics, profiler=profiler
    )
    report = accel._simulate(roots, workers)
    metrics.gauge("sim.parallel.workers").set(workers)
    metrics.gauge("sim.parallel.tasks").set(report.tasks)
    return report
