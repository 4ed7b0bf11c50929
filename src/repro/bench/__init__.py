"""Benchmark harness: CPU models, workload grid, table/figure generators.

The surface is lazy (:mod:`repro._lazy`): a name's submodule is
imported on first use, so the CPU model does not pull in the harness
and the simulator behind it.
"""

from .._lazy import lazy_surface

_EXPORTS = {
    "cpumodel": (
        "CpuModelConfig",
        "GramerModelConfig",
        "automine_time",
        "cpu_time_seconds",
        "gramer_time",
        "graphzero_time",
        "strip_symmetry",
    ),
    "harness": (
        "APP_PLANS",
        "FIG13_CELLS",
        "FIG14_CELLS",
        "FIG15_CELLS",
        "FIG16_CELLS",
        "Harness",
        "get_harness",
        "quick_mode",
        "restrict",
    ),
    "figures": (
        "CMAP_SIZES",
        "PE_SWEEP_FIG13",
        "PE_SWEEP_FIG15",
        "UNLIMITED_CMAP",
        "fig7_cpu_scaling",
        "fig13_nocmap_speedups",
        "fig14_cmap_sizes",
        "fig15_pe_scaling",
        "fig16_traffic",
        "geometric_mean",
        "render_series",
        "speedup_attribution",
    ),
    "tables": (
        "TABLE2_CELLS",
        "render_table1",
        "render_table2",
        "table1_rows",
        "table2_rows",
    ),
}

__all__, __getattr__ = lazy_surface(__name__, _EXPORTS)
