"""FlexMiner hardware model: cycle-level trace-driven simulator."""

from .config import DramConfig, FlexMinerConfig, NocConfig
from .cache import CacheStats, SetAssocCache
from .cmap import CMapStats, HardwareCMap, InsertOutcome
from .dram import DramModel, DramStats
from .noc import NocModel, NocStats
from .mem import GraphLayout, MemorySystem
from .pe import PEStats, ProcessingElement
from .scheduler import Scheduler
from .report import SimReport
from .accelerator import FlexMinerAccelerator, simulate, simulate_parallel
from .area import (
    PE_AREA_MM2,
    SKYLAKE_CORE_AREA_MM2,
    SKYLAKE_FREQ_GHZ,
    AreaModel,
)
from .energy import EnergyBreakdown, EnergyConfig, cpu_energy, estimate_energy

__all__ = [
    "DramConfig",
    "FlexMinerConfig",
    "NocConfig",
    "CacheStats",
    "SetAssocCache",
    "CMapStats",
    "HardwareCMap",
    "InsertOutcome",
    "DramModel",
    "DramStats",
    "NocModel",
    "NocStats",
    "GraphLayout",
    "MemorySystem",
    "PEStats",
    "ProcessingElement",
    "Scheduler",
    "SimReport",
    "FlexMinerAccelerator",
    "simulate",
    "simulate_parallel",
    "AreaModel",
    "PE_AREA_MM2",
    "SKYLAKE_CORE_AREA_MM2",
    "SKYLAKE_FREQ_GHZ",
    "EnergyBreakdown",
    "EnergyConfig",
    "cpu_energy",
    "estimate_energy",
]
