"""Calibrated CPU baseline timing models (paper §VII-A baselines).

The paper's CPU baseline is GraphZero with 20 threads on a 10-core Intel
i9-7900X (3.3 GHz base / 4.3 GHz turbo, 13.75 MB LLC) with four-channel
DDR4.  We model its runtime from the *measured algorithmic work* of the
pattern-aware engine — the same plans, so identical search trees — with
per-operation cycle costs:

* a merge-loop iteration costs ~6 CPU cycles: compare + increments plus
  the branch-misprediction waste the paper measured with VTune (37-49 %
  of pipeline slots);
* a candidate bound/injectivity check costs ~2 cycles;
* list/loop overheads per adjacency load and per task;
* thread scaling follows Fig. 7: linear to the core count, then
  hyper-threading adds ~30 % per extra thread, under a DRAM bandwidth
  roofline.

AutoMine is GraphZero without symmetry breaking: the engine runs the
same plan with the vid bounds stripped, which multiplies the explored
tree by the automorphism count (each match found |Aut| times).

Gramer (Table II) is the pattern-oblivious engine's work mapped onto the
paper's FPGA configuration (8 processing units).

Absolute constants are calibration parameters, not measurements; the
quantities that matter — ratios between systems — come from the counted
work.  See DESIGN.md §2.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from ..compiler.plan import ExecutionPlan
from ..engine.counters import OpCounters
from ..engine.explore import PatternAwareEngine
from ..graph.csr import CSRGraph

__all__ = [
    "CpuModelConfig",
    "cpu_time_seconds",
    "strip_symmetry",
    "graphzero_time",
    "automine_time",
    "GramerModelConfig",
    "gramer_time",
]


@dataclass(frozen=True)
class CpuModelConfig:
    """i9-7900X-class machine model."""

    freq_ghz: float = 4.0  # all-core turbo
    cores: int = 10
    threads: int = 20
    ht_extra_efficiency: float = 0.30  # Fig. 7: scaling slows past cores
    dram_bandwidth_gbs: float = 80.0
    #: Per-operation cycle costs (calibrated; see module docstring).
    cycles_per_setop_iteration: float = 6.0
    cycles_per_candidate_check: float = 2.0
    cycles_per_adjacency_load: float = 25.0
    cycles_per_task: float = 120.0

    def effective_threads(self, threads: Optional[int] = None) -> float:
        """Thread scaling with hyper-threading past the core count."""
        t = threads if threads is not None else self.threads
        if t <= self.cores:
            return float(t)
        return self.cores + (t - self.cores) * self.ht_extra_efficiency


def cpu_time_seconds(
    counters: OpCounters,
    config: Optional[CpuModelConfig] = None,
    *,
    threads: Optional[int] = None,
) -> float:
    """Runtime of the counted work on the modelled CPU.

    Roofline form: compute time on the effective threads, bounded below
    by streaming the touched bytes from memory.  (The scaled-down data
    graphs mostly fit in the LLC, so the bandwidth term rarely binds —
    unlike the paper's full-size runs; EXPERIMENTS.md discusses this.)
    """
    cfg = config or CpuModelConfig()
    cycles = (
        counters.setop_iterations * cfg.cycles_per_setop_iteration
        + counters.candidates_checked * cfg.cycles_per_candidate_check
        + counters.adjacency_loads * cfg.cycles_per_adjacency_load
        + counters.tasks * cfg.cycles_per_task
    )
    compute_s = cycles / (cfg.freq_ghz * 1e9) / cfg.effective_threads(threads)
    memory_s = counters.adjacency_bytes / (cfg.dram_bandwidth_gbs * 1e9)
    return max(compute_s, memory_s)


def strip_symmetry(plan: ExecutionPlan) -> ExecutionPlan:
    """AutoMine model: the same plan without symmetry breaking.

    Orientation is also removed (it is itself a symmetry-breaking
    technique), so every automorphic image of a match is explored.
    """
    bare_steps = tuple(
        replace(s, upper_bounds=()) for s in plan.steps
    )
    return replace(
        plan,
        steps=bare_steps,
        oriented=False,
        symmetry_conditions=(),
    )


def graphzero_time(
    graph: CSRGraph,
    plan,
    config: Optional[CpuModelConfig] = None,
    *,
    threads: Optional[int] = None,
) -> tuple:
    """(seconds, MiningResult) for the GraphZero 20-thread baseline."""
    result = PatternAwareEngine(graph, plan).run()
    return (
        cpu_time_seconds(result.counters, config, threads=threads),
        result,
    )


def automine_time(
    graph: CSRGraph,
    plan: ExecutionPlan,
    config: Optional[CpuModelConfig] = None,
    *,
    threads: Optional[int] = None,
) -> tuple:
    """(seconds, MiningResult) for the AutoMine (no-symmetry) baseline.

    The reported match count is normalized by |Aut(P)| so all systems
    agree on the answer; the *time* reflects the larger search tree.
    """
    bare = strip_symmetry(plan)
    result = PatternAwareEngine(graph, bare).run()
    automorphisms = len(plan.pattern.automorphisms())
    normalized = tuple(c // automorphisms for c in result.counts)
    result.counts = normalized  # type: ignore[misc]
    return (
        cpu_time_seconds(result.counters, config, threads=threads),
        result,
    )


@dataclass(frozen=True)
class GramerModelConfig:
    """Gramer's FPGA configuration (paper Table II: 4-thread 8-PU FPGA)."""

    processing_units: int = 8
    freq_ghz: float = 0.25
    cycles_per_subgraph: float = 25.0
    cycles_per_isomorphism_test_unit: float = 2.0  # x k! permutations


def gramer_time(
    counters: OpCounters,
    pattern_size: int,
    config: Optional[GramerModelConfig] = None,
) -> float:
    """Runtime of pattern-oblivious work on the Gramer-class FPGA."""
    import math

    cfg = config or GramerModelConfig()
    iso_cycles = cfg.cycles_per_isomorphism_test_unit * math.factorial(
        pattern_size
    )
    cycles = (
        counters.subgraphs_enumerated * cfg.cycles_per_subgraph
        + counters.isomorphism_tests * iso_cycles
    )
    return cycles / (cfg.freq_ghz * 1e9) / cfg.processing_units
