"""Software GPM engines: pattern-aware, its reference, oblivious baseline.

The pattern-aware engine's default path is the frontier walker, which
answers every set operation after the first from
:meth:`~repro.graph.csr.CSRGraph.arc_map` — the software vector c-map
of the paper's §II-C.

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
    "oblivious": ("ObliviousEngine", "BudgetExceeded", "mine_oblivious"),
    "kernels": ("GALLOP_RATIO",),
    "parallel": ("filter_roots", "order_tasks"),
    "pool": ("MinerPool", "PoolWorkerError", "cost_model_split_degree"),
    "partitioned": ("mine_partitioned",),
}

__all__, __getattr__ = lazy_surface(__name__, _EXPORTS)
