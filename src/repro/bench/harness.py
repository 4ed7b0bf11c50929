"""Experiment harness: the workload grid of the paper's evaluation.

One process-wide :class:`Harness` memoizes simulator and CPU-model runs
so figures that share cells (Fig. 14 and Fig. 16, for instance) pay for
each simulation once.  The per-figure dataset selections follow the
paper's x-axes exactly (e.g. 5-CL only on As and Pa).

Set the ``REPRO_BENCH_QUICK`` environment variable to restrict every
sweep to its cheapest cells — useful while iterating.  Set
``REPRO_BENCH_TELEMETRY`` to a directory (or pass ``telemetry_dir``) to
write one machine-readable report per simulated cell plus a
``BENCH_summary.json`` roll-up that ``flexminer stats`` can render or
diff against another run's.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Optional, Tuple

from ..compiler import compile_motifs, compile_pattern
from ..engine import MiningResult
from ..graph import CSRGraph, load_dataset
from ..hw import FlexMinerConfig, SimReport, simulate
from ..obs import (
    MetricsRegistry,
    NULL_PROFILER,
    get_logger,
    make_report,
    write_report,
)
from ..patterns import diamond, four_cycle, k_clique, triangle
from .cpumodel import CpuModelConfig, graphzero_time

log = get_logger("bench.harness")

__all__ = [
    "APP_PLANS",
    "FIG13_CELLS",
    "FIG14_CELLS",
    "FIG15_CELLS",
    "FIG16_CELLS",
    "Harness",
    "get_harness",
]


def _plan(app: str):
    builders = {
        "TC": lambda: compile_pattern(triangle()),
        "4-CL": lambda: compile_pattern(k_clique(4)),
        "5-CL": lambda: compile_pattern(k_clique(5)),
        "SL-4cycle": lambda: compile_pattern(four_cycle()),
        "SL-diamond": lambda: compile_pattern(diamond()),
        "3-MC": lambda: compile_motifs(3),
    }
    return builders[app]()


APP_PLANS = ("TC", "4-CL", "5-CL", "SL-4cycle", "SL-diamond", "3-MC")

#: Per-figure (app -> datasets) grids, matching the paper's x-axes.
FIG13_CELLS: Dict[str, List[str]] = {
    "TC": ["As", "Mi", "Pa", "Yo", "Lj"],
    "4-CL": ["As", "Mi", "Pa", "Yo"],
    "5-CL": ["As", "Pa"],
    "SL-4cycle": ["As", "Mi", "Pa"],
    "SL-diamond": ["As", "Mi", "Pa"],
    "3-MC": ["As", "Mi", "Pa", "Yo"],
}
FIG14_CELLS: Dict[str, List[str]] = {
    "TC": ["As", "Mi", "Pa", "Yo", "Lj"],
    "4-CL": ["As", "Mi", "Pa", "Yo"],
    "5-CL": ["As", "Pa"],
    "SL-4cycle": ["As", "Mi", "Pa"],
    "SL-diamond": ["As", "Mi", "Pa"],
    "3-MC": ["As", "Mi", "Pa"],
}
#: Fig. 15 scales PEs 1..64; we sweep a representative cell per app.
FIG15_CELLS: Dict[str, List[str]] = {
    "TC": ["As", "Mi", "Pa"],
    "4-CL": ["As", "Mi", "Pa"],
}
#: Fig. 16 reports NoC/DRAM traffic for the c-map-sensitive apps.
FIG16_CELLS: Dict[str, List[str]] = {
    "TC": ["As", "Mi", "Pa"],
    "4-CL": ["As", "Mi", "Pa"],
    "SL-4cycle": ["As", "Mi", "Pa"],
    "SL-diamond": ["As", "Mi", "Pa"],
}

_QUICK_ENV = "REPRO_BENCH_QUICK"
_TELEMETRY_ENV = "REPRO_BENCH_TELEMETRY"


def _sim_cell_config(app: str, num_pes: int, cmap_bytes: int) -> FlexMinerConfig:
    """The per-cell simulator configuration the harness always uses."""
    split = None if app == "3-MC" else Harness.TASK_SPLIT_DEGREE
    return FlexMinerConfig(
        num_pes=num_pes,
        cmap_bytes=cmap_bytes,
        task_split_degree=split,
    )


def _sim_cell_worker(key: Tuple) -> Tuple[Tuple, Dict[str, object]]:
    """Pool worker: run one harness cell with the serial simulator.

    Cells are mutually independent simulations, so running them in
    separate processes is bit-identical to running them one by one —
    the report crosses back as its ``as_dict`` payload.
    """
    app, dataset, num_pes, cmap_bytes = key
    config = _sim_cell_config(app, num_pes, cmap_bytes)
    report = simulate(load_dataset(dataset), _plan(app), config)
    return key, report.as_dict()


def quick_mode() -> bool:
    return bool(os.environ.get(_QUICK_ENV))


def restrict(cells: Dict[str, List[str]]) -> Dict[str, List[str]]:
    """Quick mode: only the cheapest dataset per app."""
    if not quick_mode():
        return cells
    return {app: datasets[:1] for app, datasets in cells.items()}


class Harness:
    """Memoizing runner over (app, dataset, hardware config) cells.

    ``metrics`` counts runs vs cache hits and tracks cell-cycle
    distributions; ``telemetry_dir`` (default: the
    ``REPRO_BENCH_TELEMETRY`` environment variable) makes every fresh
    simulation write a per-cell JSON report, with
    :meth:`write_summary` producing the ``BENCH_summary.json`` roll-up.
    ``profiler`` (a :class:`repro.obs.PhaseProfiler`) attributes plan
    compilation, graph loads and fresh cell runs to phases; it is
    forwarded into the simulator and never changes any report.
    """

    def __init__(
        self,
        cpu_config: Optional[CpuModelConfig] = None,
        *,
        metrics: Optional[MetricsRegistry] = None,
        telemetry_dir: Optional[str] = None,
        profiler=None,
    ) -> None:
        self.cpu_config = cpu_config or CpuModelConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.profiler = profiler if profiler is not None else NULL_PROFILER
        if telemetry_dir is None:
            telemetry_dir = os.environ.get(_TELEMETRY_ENV) or None
        self.telemetry_dir = telemetry_dir
        self._plans: Dict[str, object] = {}
        self._sim_wall_s = 0.0
        self._sim_cells = 0
        self._sim_cache: Dict[Tuple, SimReport] = {}
        self._cpu_cache: Dict[Tuple, Tuple[float, MiningResult]] = {}

    def plan(self, app: str):
        if app not in self._plans:
            with self.profiler.phase("compile", app=app):
                self._plans[app] = _plan(app)
        return self._plans[app]

    def graph(self, dataset: str) -> CSRGraph:
        with self.profiler.phase("load-graph", dataset=dataset):
            return load_dataset(dataset)

    #: Depth-1 slice size for straggler-task splitting.  The paper's
    #: full-size inputs provide millions of tasks per figure cell; the
    #: scaled stand-ins do not, so one power-law hub can serialize a
    #: schedule and mask PE scaling.  Splitting hub tasks restores the
    #: paper's task-abundance regime (DESIGN.md §2; the ablation bench
    #: quantifies the effect).  Multi-pattern plans run unsplit.
    TASK_SPLIT_DEGREE = 32

    def sim(
        self,
        app: str,
        dataset: str,
        *,
        num_pes: int = 64,
        cmap_bytes: int = 8 * 1024,
        parallel: Optional[int] = None,
    ) -> SimReport:
        """Simulate one cell (memoized).

        ``parallel`` spreads the trace phase of a fresh simulation over
        that many worker processes
        (:func:`repro.hw.simulate_parallel`); the report —
        and therefore the memo cache — is bit-identical either way, so
        the cache key ignores it.
        """
        key = (app, dataset, num_pes, cmap_bytes)
        if key not in self._sim_cache:
            config = _sim_cell_config(app, num_pes, cmap_bytes)
            log.debug(
                "sim cell %s/%s pes=%d cmap=%dB", app, dataset,
                num_pes, cmap_bytes,
            )
            self.metrics.counter("bench.sim_runs").inc()
            start = time.perf_counter()
            if parallel is not None and parallel > 1:
                from ..hw import simulate_parallel

                report = simulate_parallel(
                    self.graph(dataset), self.plan(app), config,
                    workers=parallel, profiler=self.profiler,
                )
            else:
                with self.profiler.phase(
                    "simulate", app=app, dataset=dataset
                ):
                    report = simulate(
                        self.graph(dataset), self.plan(app), config
                    )
            self._account_sim_wall(time.perf_counter() - start, cells=1)
            self.metrics.histogram("bench.sim_cycles").observe(report.cycles)
            self._sim_cache[key] = report
            if self.telemetry_dir:
                self._write_cell(key, report)
        else:
            self.metrics.counter("bench.sim_cache_hits").inc()
        return self._sim_cache[key]

    def sim_many(
        self,
        cells: List[Tuple[str, str, int, int]],
        *,
        workers: Optional[int] = None,
    ) -> Dict[Tuple, SimReport]:
        """Simulate many (app, dataset, num_pes, cmap_bytes) cells.

        Fresh cells run in a process pool (cells are independent
        simulations, so the per-cell reports are bit-identical to
        serial ``sim()`` calls) and land in the same memo cache.
        Returns the full key→report mapping for the requested cells.
        """
        fresh = [
            key for key in dict.fromkeys(tuple(c) for c in cells)
            if key not in self._sim_cache
        ]
        if workers is None:
            workers = os.cpu_count() or 1
        if fresh:
            start = time.perf_counter()
            if workers > 1 and len(fresh) > 1:
                import multiprocessing as mp

                try:
                    ctx = mp.get_context("fork")
                except ValueError:  # pragma: no cover - non-POSIX
                    ctx = mp.get_context("spawn")
                with ctx.Pool(min(workers, len(fresh))) as pool:
                    results = pool.map(_sim_cell_worker, fresh)
            else:
                results = [_sim_cell_worker(key) for key in fresh]
            self._account_sim_wall(
                time.perf_counter() - start, cells=len(fresh)
            )
            for key, payload in results:
                report = SimReport.from_dict(payload)
                self.metrics.counter("bench.sim_runs").inc()
                self.metrics.histogram(
                    "bench.sim_cycles"
                ).observe(report.cycles)
                self._sim_cache[key] = report
                if self.telemetry_dir:
                    self._write_cell(key, report)
        for key in cells:
            if tuple(key) in self._sim_cache:
                self.metrics.counter("bench.sim_cache_hits").inc()
        return {tuple(c): self._sim_cache[tuple(c)] for c in cells}

    def _account_sim_wall(self, seconds: float, *, cells: int) -> None:
        """Track simulator wall-clock in the ``sim.*`` gauges."""
        self._sim_wall_s += seconds
        self._sim_cells += cells
        self.metrics.gauge("sim.wall_s").set(self._sim_wall_s)
        if self._sim_wall_s > 0:
            self.metrics.gauge("sim.cells_per_s").set(
                self._sim_cells / self._sim_wall_s
            )

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    @staticmethod
    def _cell_id(key: Tuple) -> str:
        app, dataset, num_pes, cmap_bytes = key
        return f"{app}_{dataset}_pes{num_pes}_cmap{cmap_bytes}"

    def _write_cell(self, key: Tuple, report: SimReport) -> str:
        app, dataset, num_pes, cmap_bytes = key
        os.makedirs(self.telemetry_dir, exist_ok=True)
        path = os.path.join(
            self.telemetry_dir, f"sim_{self._cell_id(key)}.json"
        )
        write_report(path, make_report(
            "sim",
            report.as_dict(),
            meta={
                "app": app,
                "dataset": dataset,
                "num_pes": num_pes,
                "cmap_bytes": cmap_bytes,
            },
        ))
        log.debug("cell telemetry written to %s", path)
        return path

    def telemetry(self) -> Dict[str, object]:
        """Machine-readable roll-up of every cached cell so far."""
        sim_cells = {
            self._cell_id(key): {
                "cycles": report.cycles,
                "seconds": report.seconds,
                "counts": list(report.counts),
                "noc_requests": report.noc_requests,
                "dram_accesses": report.dram_accesses,
                "memory_bound_fraction": report.memory_bound_fraction,
                "load_imbalance": report.load_imbalance,
            }
            for key, report in self._sim_cache.items()
        }
        cpu_cells = {
            f"{app}_{dataset}_t{threads}": {
                "seconds": seconds,
                "counts": list(result.counts),
            }
            for (app, dataset, threads), (seconds, result)
            in self._cpu_cache.items()
        }
        return {
            "quick_mode": quick_mode(),
            "sim": sim_cells,
            "cpu": cpu_cells,
            "metrics": self.metrics.snapshot(),
        }

    def write_summary(self, path: Optional[str] = None) -> str:
        """Write the ``BENCH_summary.json`` roll-up of :meth:`telemetry`."""
        if path is None:
            base = self.telemetry_dir or "."
            os.makedirs(base, exist_ok=True)
            path = os.path.join(base, "BENCH_summary.json")
        write_report(path, make_report("bench-summary", self.telemetry()))
        log.info("bench summary written to %s", path)
        return path

    def cpu(
        self, app: str, dataset: str, *, threads: int = 20
    ) -> Tuple[float, MiningResult]:
        """GraphZero-model CPU run for one cell (memoized)."""
        key = (app, dataset, threads)
        if key not in self._cpu_cache:
            log.debug("cpu cell %s/%s threads=%d", app, dataset, threads)
            self.metrics.counter("bench.cpu_runs").inc()
            self._cpu_cache[key] = graphzero_time(
                self.graph(dataset),
                self.plan(app),
                self.cpu_config,
                threads=threads,
            )
        return self._cpu_cache[key]

    def speedup(
        self,
        app: str,
        dataset: str,
        *,
        num_pes: int,
        cmap_bytes: int = 8 * 1024,
        threads: int = 20,
    ) -> float:
        """FlexMiner speedup over the 20-thread CPU baseline."""
        cpu_seconds, cpu_result = self.cpu(app, dataset, threads=threads)
        report = self.sim(
            app, dataset, num_pes=num_pes, cmap_bytes=cmap_bytes
        )
        if report.counts != cpu_result.counts:
            raise AssertionError(
                f"count mismatch on {app}/{dataset}: "
                f"sim={report.counts} cpu={cpu_result.counts}"
            )
        return cpu_seconds / report.seconds


_GLOBAL: Optional[Harness] = None


def get_harness() -> Harness:
    """Process-wide shared harness (benches reuse each other's cells)."""
    global _GLOBAL
    if _GLOBAL is None:
        _GLOBAL = Harness()
    return _GLOBAL
