"""Software GPM engines: pattern-aware engine and its reference, c-map variant, oblivious baseline.

The surface is lazy (:mod:`repro._lazy`): a name's submodule is
imported on first use, so mining never loads the pool or the other
engines.  Code inside ``repro`` imports from the defining submodule.
"""

from .._lazy import lazy_surface

_EXPORTS = {
    "counters": ("OpCounters",),
    "explore": ("MiningResult", "PatternAwareEngine", "mine", "mine_multi"),
    "reference": ("ReferenceEngine",),
    "motifs": ("MotifCountPlan", "count_motifs", "motif_count_plan"),
    "cmap_sw": ("CMapSoftwareEngine", "VectorCMap"),
    "oblivious": ("ObliviousEngine", "BudgetExceeded", "mine_oblivious"),
    "kernels": ("GALLOP_RATIO",),
    "parallel": ("filter_roots", "order_tasks"),
    "pool": ("MinerPool", "PoolWorkerError", "cost_model_split_degree"),
    "verify": ("check_consistency", "count_all_ways"),
    "partitioned": (
        "PartitionedMiner",
        "PartitionStats",
        "halo_ball",
        "mine_partitioned",
        "partition_vertices",
    ),
}

__all__, __getattr__ = lazy_surface(__name__, _EXPORTS)
