"""Top-level FlexMiner accelerator simulation (paper Fig. 8).

``FlexMinerAccelerator`` wires the pieces together: it loads the
execution plan (the software/hardware interface of §V), instantiates the
PEs with their private caches and c-maps, the shared L2, the NoC and the
DRAM model, and drives the dynamic scheduler.  ``simulate`` is the
one-call convenience wrapper used by the apps and benches.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .. import engine
from ..compiler.plan import ExecutionPlan, MultiPlan
from ..errors import SimulationError
from ..graph import CSRGraph, orient_by_degree
from ..obs import NULL_PROFILER, NULL_REGISTRY, NULL_TRACER
from ..obs.trace import SIM_PID
from .config import FlexMinerConfig
from .mem import MemorySystem
from .pe import ProcessingElement
from .report import SimReport
from .scheduler import Scheduler

__all__ = ["FlexMinerAccelerator", "build_report", "simulate"]


def build_report(
    pes, memsys, config: FlexMinerConfig, num_patterns: int, makespan: float
) -> SimReport:
    """Aggregate per-PE and memory-system state into a :class:`SimReport`.

    ``pes`` only needs the PE result surface (``counts``, ``stats``,
    ``private``, ``cmap``, ``time``), so the parallel runner's replay
    PEs aggregate through the same code path as the serial simulator.
    """
    counts = [0] * num_patterns
    busy = stall = 0.0
    # Unit breakdowns are integer-exact (see PEStats): keep them int so
    # serial and trace/replay aggregation agree bit for bit.
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

    ``tracer`` (a :class:`repro.obs.Tracer`) records the simulation in
    Chrome trace-event form: one trace thread per PE with task/stall/
    set-op/c-map intervals in the cycle domain, plus sampled NoC/DRAM/L2
    counter tracks.  ``metrics`` (a :class:`repro.obs.MetricsRegistry`)
    receives the final report under ``sim.*`` gauges.  ``profiler`` (a
    :class:`repro.obs.PhaseProfiler`) attributes the wall-clock cost of
    the setup and simulate phases.  All default to no-ops; enabling
    them never changes counts, cycles or counters.
    """

    def __init__(
        self,
        graph: CSRGraph,
        plan,
        config: Optional[FlexMinerConfig] = None,
        *,
        tracer=None,
        metrics=None,
        profiler=None,
    ) -> None:
        if not isinstance(plan, (ExecutionPlan, MultiPlan)):
            raise SimulationError("plan must be an ExecutionPlan or MultiPlan")
        self.graph = graph
        self.plan = plan
        self.config = config or FlexMinerConfig()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.profiler = (
            profiler if profiler is not None else NULL_PROFILER
        )
        with self.profiler.phase(
            "sim-setup", pes=self.config.num_pes
        ):
            oriented = isinstance(plan, ExecutionPlan) and plan.oriented
            self._work_graph = (
                orient_by_degree(graph) if oriented else graph
            )
            self.memsys = MemorySystem(self.config, graph)
            self.pes = [
                ProcessingElement(
                    i,
                    graph,
                    plan,
                    self.config,
                    self.memsys,
                    tracer=self.tracer,
                )
                for i in range(self.config.num_pes)
            ]
            self.scheduler = Scheduler(self.pes)
        if self.tracer.enabled:
            self.memsys.attach_tracer(self.tracer)
            self.tracer.process_name(
                "FlexMiner accelerator (ts = PE cycles)", pid=SIM_PID
            )
            for pe in self.pes:
                self.tracer.thread_name(
                    f"PE {pe.pe_id}", pid=SIM_PID, tid=pe.pe_id
                )
            self.tracer.thread_name(
                "scheduler", pid=SIM_PID, tid=self.config.num_pes
            )

    def run(self, roots: Optional[Iterable[int]] = None) -> SimReport:
        """Simulate mining the whole graph (or the given roots)."""
        split = self.config.task_split_degree
        if split is not None and isinstance(self.plan, MultiPlan):
            raise SimulationError(
                "task splitting requires a single-pattern plan"
            )
        tasks = Scheduler.order_tasks(
            self._work_graph,
            engine.filter_roots(self.graph, self.plan, roots),
            split_degree=split,
        )
        # One "simulate" span either way: the profiler's phase mirrors
        # into its own tracer when it is enabled.
        if self.profiler.enabled:
            span = self.profiler.phase("simulate", tasks=len(tasks))
        else:
            span = self.tracer.span("simulate", cat="phase")
        with span:
            makespan = self.scheduler.run(tasks)
        if self.tracer.enabled:
            self.tracer.complete(
                "run", 0.0, makespan,
                pid=SIM_PID, tid=self.config.num_pes, cat="phase",
                args={"tasks": self.scheduler.tasks_dispatched},
            )
        report = self._report(makespan)
        self.metrics.absorb(report.as_dict(), prefix="sim.")
        return report

    # ------------------------------------------------------------------
    def _report(self, makespan: float) -> SimReport:
        num_patterns = (
            self.plan.num_patterns
            if isinstance(self.plan, MultiPlan)
            else 1
        )
        return build_report(
            self.pes, self.memsys, self.config, num_patterns, makespan
        )


def simulate(
    graph: CSRGraph,
    plan,
    config: Optional[FlexMinerConfig] = None,
    *,
    roots: Optional[Iterable[int]] = None,
    tracer=None,
    metrics=None,
    profiler=None,
) -> SimReport:
    """Build an accelerator and run one simulation.

    ``tracer``/``metrics``/``profiler`` are optional observability
    sinks (see :class:`FlexMinerAccelerator`); they never affect
    simulated results.
    """
    accel = FlexMinerAccelerator(
        graph, plan, config, tracer=tracer, metrics=metrics,
        profiler=profiler,
    )
    return accel.run(roots)
