"""Table regeneration: Table I (datasets) and Table II (baselines)."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..compiler.compiler import compile_pattern
from ..engine.explore import PatternAwareEngine
from ..engine.oblivious import ObliviousEngine
from ..graph.csr import CSRGraph
from ..graph.datasets import load_dataset, suite_stats
from ..graph.sample import random_vertex_sample
from ..patterns import enumerate_motifs, k_clique, triangle
from .cpumodel import (
    CpuModelConfig,
    GramerModelConfig,
    automine_time,
    cpu_time_seconds,
    gramer_time,
)

__all__ = [
    "table1_rows",
    "render_table1",
    "TABLE2_CELLS",
    "table2_rows",
    "render_table2",
]


# ----------------------------------------------------------------------
# Table I
# ----------------------------------------------------------------------
def table1_rows() -> List[tuple]:
    """(name, |V|, |E|, max degree, avg degree) per dataset stand-in."""
    return [s.as_row() for s in suite_stats()]


def render_table1() -> str:
    header = f"{'graph':<6s}{'|V|':>8s}{'|E|':>9s}{'maxdeg':>8s}{'avgdeg':>8s}"
    lines = [header]
    for name, v, e, dmax, davg in table1_rows():
        lines.append(f"{name:<6s}{v:>8d}{e:>9d}{dmax:>8d}{davg:>8.1f}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Table II — Gramer (FPGA) vs AutoMine (CPU) vs GraphZero (CPU)
# ----------------------------------------------------------------------
#: (app, dataset) rows.  The oblivious engine enumerates every connected
#: k-subgraph, so the comparison runs on induced subsamples of the
#: stand-ins (the orders-of-magnitude ordering it demonstrates is
#: scale-free).  SL is excluded: Gramer does not support it (paper).
TABLE2_CELLS: List[Tuple[str, str]] = [
    ("TC", "As"),
    ("TC", "Mi"),
    ("TC", "Pa"),
    ("4-CL", "As"),
    ("4-CL", "Mi"),
    ("5-CL", "As"),
    ("3-MC", "As"),
    ("3-MC", "Mi"),
]

_SAMPLE_SIZES = {"As": 400, "Mi": 320, "Pa": 800}


def _table2_graph(dataset: str) -> CSRGraph:
    full = load_dataset(dataset)
    size = _SAMPLE_SIZES.get(dataset, 400)
    if full.num_vertices <= size:
        return full
    return random_vertex_sample(
        full, size, seed=7, name=f"{dataset}~{size}"
    )


def _app_patterns(app: str):
    if app == "TC":
        return [triangle()], False, 3
    if app == "4-CL":
        return [k_clique(4)], False, 4
    if app == "5-CL":
        return [k_clique(5)], False, 5
    if app == "3-MC":
        return enumerate_motifs(3), True, 3
    raise ValueError(f"Table II does not include {app!r}")


def table2_rows(
    cells: Optional[List[Tuple[str, str]]] = None,
    cpu_config: Optional[CpuModelConfig] = None,
    gramer_config: Optional[GramerModelConfig] = None,
) -> List[Dict[str, object]]:
    """One dict per (app, dataset): modelled seconds for each system.

    Every system's match counts are cross-checked; a mismatch raises.
    """
    cpu_config = cpu_config or CpuModelConfig()
    rows: List[Dict[str, object]] = []
    for app, dataset in cells or TABLE2_CELLS:
        graph = _table2_graph(dataset)
        patterns, induced, k = _app_patterns(app)

        oblivious = ObliviousEngine(graph, patterns, induced=induced).run()
        t_gramer = gramer_time(oblivious.counters, k, gramer_config)

        t_graphzero = 0.0
        t_automine = 0.0
        gz_counts: List[int] = []
        am_counts: List[int] = []
        for pattern in patterns:
            plan = compile_pattern(pattern, induced=induced)
            gz = PatternAwareEngine(graph, plan).run()
            t_graphzero += cpu_time_seconds(gz.counters, cpu_config)
            gz_counts.extend(gz.counts)
            seconds, am = automine_time(graph, plan, cpu_config)
            t_automine += seconds
            am_counts.extend(am.counts)

        if tuple(gz_counts) != oblivious.counts or tuple(am_counts) != (
            oblivious.counts
        ):
            raise AssertionError(
                f"count mismatch on {app}/{dataset}: gz={gz_counts} "
                f"am={am_counts} oblivious={oblivious.counts}"
            )
        rows.append(
            {
                "app": app,
                "dataset": dataset,
                "gramer_s": t_gramer,
                "automine_s": t_automine,
                "graphzero_s": t_graphzero,
                "counts": oblivious.counts,
            }
        )
    return rows


def render_table2(rows: List[Dict[str, object]]) -> str:
    header = (
        f"{'app':<7s}{'graph':<7s}{'Gramer(s)':>12s}{'AutoMine(s)':>13s}"
        f"{'GraphZero(s)':>14s}{'GZ/Gramer':>11s}"
    )
    lines = [header]
    for row in rows:
        ratio = row["gramer_s"] / row["graphzero_s"]
        lines.append(
            f"{row['app']:<7s}{row['dataset']:<7s}"
            f"{row['gramer_s']:>12.4f}{row['automine_s']:>13.4f}"
            f"{row['graphzero_s']:>14.4f}{ratio:>10.1f}x"
        )
    return "\n".join(lines)
