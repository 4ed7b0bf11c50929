"""The battery every workload runs, and its correctness gate.

Every number is taken from outside: the stages time calls into the
public functions of ``repro.graph``, ``repro.compiler``, ``repro.apps``,
``repro.hw``, ``repro.serve`` and the ``flexminer`` CLI.  The gate turns
any raising, refused or wrong-count operation into a failed operation.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.apps import run_app
from repro.compiler import compile_motifs, compile_pattern
from repro.graph import load_graph, orient_by_degree
from repro.hw import FlexMinerConfig
from repro.patterns import from_name
from repro.serve import MineRequest, MiningService

from spans import Spans
from workloads import (
    Cell, StreamItem, Workload, graph_path, pattern_size,
)

SRC_DIR = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..", "src")
)
SIM_CONFIG = FlexMinerConfig(num_pes=20)
#: SimReport fields that must repeat exactly across passes and runs.
HW_EXACT = (
    "cycles", "setop_cycles", "cmap_cycles", "cmap_reads",
    "cmap_overflows", "dram_accesses", "noc_requests", "tasks",
    "private_hits", "private_misses",
)


def motif_k(pattern: str) -> Optional[int]:
    return int(pattern[0]) if pattern.endswith("-motifs") else None


def app_args(pattern: str) -> Dict[str, object]:
    """``repro.apps.run_app`` arguments for a catalogue pattern name."""
    if motif_k(pattern):
        return {"app": "k-MC", "k": motif_k(pattern)}
    if pattern == "triangle":
        return {"app": "TC"}
    if pattern.endswith("-clique"):
        return {"app": "k-CL", "k": int(pattern[0])}
    return {"app": "SL", "pattern": from_name(pattern)}


def compile_named(pattern: str):
    if motif_k(pattern):
        return compile_motifs(motif_k(pattern))
    return compile_pattern(from_name(pattern))


class Op:
    """One attempted operation and what it returned (None if it raised)."""

    def __init__(self, what: str) -> None:
        self.what = what
        self.result = None
        self.failure: Optional[str] = None


class Gate:
    """Counts attempted/failed operations and pins repeatable values.

    The first value seen under a key is the reference; every later
    sighting -- another path, another pass -- must equal it.
    """

    def __init__(self) -> None:
        self.ops: List[Op] = []
        self._reference: Dict[tuple, object] = {}

    def attempt(self, what: str, fn, *args, **kwargs) -> Op:
        try:
            outcome = fn(*args, **kwargs)
        except Exception as exc:  # a failed operation, not a crash
            outcome = exc
        return self.record(what, outcome)

    def record(self, what: str, outcome: object) -> Op:
        """Book an operation that already ran (``outcome`` is what it
        returned, or the exception it raised)."""
        op = Op(what)
        self.ops.append(op)
        if isinstance(outcome, Exception):
            self.fail(op, f"raised {outcome!r}")
        else:
            op.result = outcome
        return op

    def fail(self, op: Op, detail: str) -> None:
        if op.failure is None:
            op.failure = f"{op.what}: {detail}"

    def same(self, op: Op, key: tuple, value: object) -> None:
        reference = self._reference.setdefault(key, value)
        if reference != value:
            self.fail(op, f"{key}: {value!r} != reference {reference!r}")

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failures(self) -> List[str]:
        return [op.failure for op in self.ops if op.failure is not None]


class Battery:
    """Resident state of one workload plus its timed stages."""

    def __init__(
        self,
        workload: Workload,
        input_dir: str,
        spans: Spans,
        gate: Gate,
    ) -> None:
        self.workload = workload
        self.input_dir = input_dir
        self.spans = spans
        self.gate = gate
        self.graphs: Dict[str, object] = {}
        self.plans: Dict[str, object] = {}
        self.service: Optional[MiningService] = None

    def path(self, graph: str) -> str:
        return graph_path(self.input_dir, self.workload, graph)

    @property
    def patterns(self) -> List[str]:
        w = self.workload
        cells = w.mine_cells + w.sim_cells + w.serve_cells
        return sorted({pattern for _, pattern in cells})

    @property
    def serve_graphs(self) -> List[str]:
        return sorted({graph for graph, _ in self.workload.serve_cells})

    # ------------------------------------------------------------------
    # setup_s: what a resident user pays once
    # ------------------------------------------------------------------
    def setup(self, keep: bool = True) -> float:
        """Load + orient every tier, compile every plan, register the
        serve tier; returns the seconds it took.  ``keep=False`` times
        the same work on a throwaway copy, leaving the resident state
        (and its warm service) alone."""
        started = time.perf_counter()
        op = self.gate.attempt(f"setup {self.workload.name}", self._setup)
        elapsed = time.perf_counter() - started
        if op.result is None:
            return elapsed
        graphs, plans, service = op.result
        for key, graph in graphs.items():
            self.gate.same(
                op, ("shape", key), (graph.num_vertices, graph.num_edges))
        if keep:
            self.close()
            self.graphs, self.plans, self.service = graphs, plans, service
        else:
            service.close()
        return elapsed

    def _setup(self):
        span = self.spans.span
        graphs, plans = {}, {}
        for key in self.workload.graphs:
            with span("load", graph=key):
                graphs[key] = load_graph(self.path(key))
        for key, graph in graphs.items():
            with span("orient", graph=key):
                orient_by_degree(graph)
        for pattern in self.patterns:
            with span("compile", pattern=pattern):
                plans[pattern] = compile_named(pattern)
        with span("register"):
            service = MiningService(workers=1, threads=2)
            try:
                for key in self.serve_graphs:
                    service.register_graph(key, graphs[key])
            except BaseException:
                service.close()
                raise
        return graphs, plans, service

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None

    # ------------------------------------------------------------------
    # Checks
    # ------------------------------------------------------------------
    def check_counts(self, op: Op, cell: Cell, counts: Sequence[int]) -> None:
        self.gate.same(op, ("counts",) + cell, tuple(counts))

    def check_mined(self, op: Op, cell: Cell) -> None:
        """Counts agree across paths; OpCounters are bit-identical."""
        if op.result is None:
            return
        self.check_counts(op, cell, op.result.counts)
        self.gate.same(
            op, ("counters",) + cell,
            tuple(sorted(op.result.counters.as_dict().items())),
        )

    def check_simulated(self, op: Op, cell: Cell) -> None:
        if op.result is None:
            return
        self.check_counts(op, cell, op.result.counts)
        self.gate.same(
            op, ("hw",) + cell,
            tuple(getattr(op.result, name) for name in HW_EXACT),
        )

    # ------------------------------------------------------------------
    # mine_s / mine_frontier_s / sim_s
    # ------------------------------------------------------------------
    def app_pass(
        self, cells: Sequence[Cell], what: str, check, sweeps: int = 1,
        **options,
    ) -> List[Dict[Cell, float]]:
        """``sweeps`` sweeps over ``cells`` through ``repro.apps``, each
        call timed on its own: one ``{cell: seconds}`` per sweep.  Every
        result goes through ``check`` after the sweeps."""
        ops = []
        out = []
        for _ in range(sweeps):
            seconds = {}
            for cell in cells:
                graph, pattern = cell
                started = time.perf_counter()
                op = self.gate.attempt(
                    f"{what} {graph}/{pattern}", run_app,
                    self.graphs[graph], **app_args(pattern), **options,
                )
                seconds[cell] = time.perf_counter() - started
                ops.append((op, cell))
            out.append(seconds)
        for op, cell in ops:
            check(op, cell)
        return out

    def mine_pass(self, frontier: bool = False) -> List[Dict[Cell, float]]:
        """Serial (mine tier x pattern) pass, backend ``engine``, default
        options -- or the same pass with ``batch_frontier=True``."""
        w = self.workload
        return self.app_pass(
            w.mine_cells, "mine-frontier" if frontier else "mine",
            self.check_mined,
            sweeps=w.frontier_sweeps if frontier else 1,
            batch_frontier=frontier,
        )

    def sim_pass(self) -> List[Dict[Cell, float]]:
        """``repro.hw.simulate`` over the sim tier (host seconds)."""
        return self.app_pass(
            self.workload.sim_cells, "sim", self.check_simulated,
            backend="sim", config=SIM_CONFIG,
        )

    def reference_pass(self) -> None:
        """Recursive-engine counts on the sim and serve tiers, the
        reference the simulator, the service and the CLI are held to."""
        w = self.workload
        self.app_pass(
            sorted(set(w.sim_cells + w.serve_cells)), "reference",
            self.check_mined,
        )

    # ------------------------------------------------------------------
    # serve_rps
    # ------------------------------------------------------------------
    def request_for(self, item: StreamItem) -> MineRequest:
        graph, pattern = item.cell
        if motif_k(pattern):
            return MineRequest(
                graph=graph, motif_k=motif_k(pattern),
                use_cache=not item.forced,
            )
        return MineRequest(
            graph=graph, pattern=from_name(pattern).relabel(item.perm),
            use_cache=not item.forced,
        )

    def serve_warm(self) -> None:
        """One untimed request per serve cell (compiles every plan and
        fills the result cache)."""
        self.serve_segment([
            StreamItem(cell, tuple(range(pattern_size(cell[1]))), False)
            for cell in self.workload.serve_cells
        ])

    def serve_segment(self, items: Sequence[StreamItem]) -> List[float]:
        """Closed loop, one client: latency of each request in seconds
        (``inf`` for a refused or failed one)."""
        requests = [self.request_for(item) for item in items]
        latencies = []
        ops = []
        for item, request in zip(items, requests):
            with self.spans.span(
                "request", cell="/".join(item.cell), forced=item.forced
            ):
                started = time.perf_counter()
                op = self.gate.attempt(
                    f"serve {item.cell[0]}/{item.cell[1]}",
                    self.service.request, request,
                )
                latencies.append(time.perf_counter() - started)
            ops.append(op)
        for i, (item, op) in enumerate(zip(items, ops)):
            self.check_mined(op, item.cell)
            if op.result is not None and item.forced and (
                op.result.result_cache_hit
            ):
                self.gate.fail(op, "forced request served from cache")
            if op.failure is not None:
                latencies[i] = float("inf")
        return latencies

    # ------------------------------------------------------------------
    # cli_cold_s
    # ------------------------------------------------------------------
    def cli_cold(self) -> Tuple[float, float]:
        """Fresh interpreter mining the first serve cell from its file:
        (wall seconds, child peak RSS in MB)."""
        cell = self.workload.serve_cells[0]
        graph, pattern = cell
        command = (
            ["motifs", str(motif_k(pattern))]
            if motif_k(pattern) else ["mine", pattern]
        )
        argv = [sys.executable, "-m", "repro.cli", *command,
                "--graph", self.path(graph)]
        with self.spans.span("cli", cell="/".join(cell)):
            started = time.perf_counter()
            op = self.gate.attempt(
                f"cli {' '.join(command)}", run_child, argv
            )
            elapsed = time.perf_counter() - started
        if op.result is None:
            return elapsed, 0.0
        code, out, rss_mb = op.result
        if code != 0:
            self.gate.fail(op, f"exit code {code}")
        else:
            lines = out.split("\n")
            if motif_k(pattern):
                rows = lines[-len(self.plans[pattern].patterns):]
                counts = [int(row.split()[-1]) for row in rows]
            else:
                counts = [
                    int(line.split()[1]) for line in lines
                    if line.startswith("matches:")
                ]
            self.check_counts(op, cell, counts)
        return elapsed, rss_mb


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC_DIR, env.get("PYTHONPATH")) if p
    )
    return env


def run_child(argv: Sequence[str]) -> Tuple[int, str, float]:
    """Run a child to completion: (exit code, stdout, peak RSS MB).

    ``os.wait4`` gives the child's own ``ru_maxrss``; the process-wide
    RUSAGE_CHILDREN maximum would also cover the input generator.
    """
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        env=child_env(), text=True,
    )
    try:
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.strip(), usage.ru_maxrss / 1024.0
