"""Software GPM engines: pattern-aware engine and its reference, c-map variant, oblivious baseline."""

from .counters import OpCounters
from .explore import MiningResult, PatternAwareEngine, mine, mine_multi
from .cmap_sw import CMapSoftwareEngine, VectorCMap
from .kernels import GALLOP_RATIO
from .oblivious import BudgetExceeded, ObliviousEngine, mine_oblivious
from .parallel import filter_roots, order_tasks
from .pool import MinerPool, PoolWorkerError, cost_model_split_degree
from .partitioned import (
    PartitionedMiner,
    PartitionStats,
    halo_ball,
    mine_partitioned,
    partition_vertices,
)
from .reference import ReferenceEngine
from .verify import check_consistency, count_all_ways

__all__ = [
    "OpCounters",
    "MiningResult",
    "PatternAwareEngine",
    "ReferenceEngine",
    "mine",
    "mine_multi",
    "CMapSoftwareEngine",
    "VectorCMap",
    "ObliviousEngine",
    "BudgetExceeded",
    "mine_oblivious",
    "GALLOP_RATIO",
    "filter_roots",
    "order_tasks",
    "MinerPool",
    "PoolWorkerError",
    "cost_model_split_degree",
    "check_consistency",
    "count_all_ways",
    "PartitionedMiner",
    "PartitionStats",
    "halo_ball",
    "mine_partitioned",
    "partition_vertices",
]
