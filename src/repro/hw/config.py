"""FlexMiner hardware configuration (paper §IV, §VII-A).

Defaults follow the evaluated design point: 64 PEs at 1.3 GHz, 32 kB
private cache per PE, an 8 kB scratchpad c-map (4 banks, 5-byte entries,
75 % occupancy threshold), a 4 MB shared L2, and 64 GB of DDR4-2666 over
four channels — the same memory system as the CPU baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from ..errors import ConfigError

__all__ = ["DramConfig", "NocConfig", "FlexMinerConfig"]


@dataclass(frozen=True)
class DramConfig:
    """DDR4 channel/bank timing model parameters (DRAMsim3 stand-in)."""

    num_channels: int = 4
    banks_per_channel: int = 16
    row_bytes: int = 8192
    #: Timing in nanoseconds (DDR4-2666 grade).
    t_cas_ns: float = 14.0
    t_rcd_ns: float = 14.0
    t_rp_ns: float = 14.0
    t_burst_ns: float = 3.0  # 64B over a 64-bit bus at 1333 MHz DDR

    def __post_init__(self) -> None:
        if self.num_channels < 1 or self.banks_per_channel < 1:
            raise ConfigError("DRAM needs at least one channel and bank")
        if min(self.t_cas_ns, self.t_rcd_ns, self.t_rp_ns) <= 0:
            raise ConfigError("DRAM timings must be positive")

    @property
    def peak_bandwidth_gbs(self) -> float:
        """Aggregate peak bandwidth (64 B per burst per channel)."""
        return self.num_channels * 64.0 / self.t_burst_ns


@dataclass(frozen=True)
class NocConfig:
    """Network-on-chip model parameters (BookSim stand-in)."""

    hop_latency_cycles: int = 2
    link_bytes_per_flit: int = 16
    #: L2 bank slices accepting requests concurrently (ejection ports).
    l2_ejection_ports: int = 8

    def __post_init__(self) -> None:
        if self.hop_latency_cycles < 1:
            raise ConfigError("hop latency must be >= 1 cycle")
        if self.link_bytes_per_flit < 1:
            raise ConfigError("flit width must be positive")
        if self.l2_ejection_ports < 1:
            raise ConfigError("need at least one ejection port")


@dataclass(frozen=True)
class FlexMinerConfig:
    """Top-level accelerator configuration."""

    num_pes: int = 64
    pe_freq_ghz: float = 1.3
    #: Private (per-PE) cache.
    private_cache_bytes: int = 32 * 1024
    private_cache_assoc: int = 4
    line_bytes: int = 64
    #: Shared L2.
    l2_bytes: int = 4 * 1024 * 1024
    l2_assoc: int = 16
    l2_hit_cycles: int = 18
    #: c-map scratchpad; 0 disables the c-map entirely (no-cmap baseline).
    cmap_bytes: int = 8 * 1024
    cmap_banks: int = 4
    cmap_entry_bytes: int = 5
    cmap_occupancy_threshold: float = 0.75
    dram: DramConfig = field(default_factory=DramConfig)
    noc: NocConfig = field(default_factory=NocConfig)
    #: Scheduler task-dispatch latency (NoC message to an idle PE).
    dispatch_cycles: int = 8
    #: Split root tasks whose degree exceeds this into chunks of roughly
    #: this many depth-1 candidates (None = paper-faithful one task per
    #: root vertex).  Mitigates power-law straggler tasks on small
    #: graphs; single-pattern plans only.
    task_split_degree: Optional[int] = None

    def __post_init__(self) -> None:
        if self.num_pes < 1:
            raise ConfigError("need at least one PE")
        if self.pe_freq_ghz <= 0:
            raise ConfigError("PE frequency must be positive")
        if self.line_bytes & (self.line_bytes - 1):
            raise ConfigError("line size must be a power of two")
        for name in ("private_cache_bytes", "l2_bytes"):
            if getattr(self, name) < self.line_bytes:
                raise ConfigError(f"{name} smaller than one line")
        if self.private_cache_assoc < 1 or self.l2_assoc < 1:
            raise ConfigError("associativity must be >= 1")
        if self.cmap_bytes < 0:
            raise ConfigError("cmap_bytes must be >= 0")
        if self.cmap_bytes and self.cmap_bytes < self.cmap_entry_bytes:
            raise ConfigError("c-map smaller than one entry")
        if not 0.0 < self.cmap_occupancy_threshold <= 1.0:
            raise ConfigError("occupancy threshold must be in (0, 1]")
        if self.cmap_banks < 1:
            raise ConfigError("c-map needs at least one bank")
        if self.dispatch_cycles < 0:
            raise ConfigError("dispatch_cycles must be >= 0")
        if self.task_split_degree is not None and self.task_split_degree < 1:
            raise ConfigError("task_split_degree must be >= 1")

    # Convenience derived values -------------------------------------
    @property
    def cmap_entries(self) -> int:
        return self.cmap_bytes // self.cmap_entry_bytes

    def ns_to_cycles(self, ns: float) -> float:
        return ns * self.pe_freq_ghz

    @classmethod
    def small(cls, **overrides) -> "FlexMinerConfig":
        """A deliberately tiny design point for functional checks.

        Differential verification simulates hundreds of small graphs per
        run; 4 PEs with a 1 kB c-map keep each simulation cheap while
        still exercising scheduling, the c-map, and the memory system.
        Timing fidelity is irrelevant there — only counts are compared.
        """
        params = dict(num_pes=4, cmap_bytes=1024)
        params.update(overrides)
        return cls(**params)

    def with_pes(self, num_pes: int) -> "FlexMinerConfig":
        """Copy with a different PE count (Fig. 13/15 sweeps)."""
        return replace(self, num_pes=num_pes)

    def with_cmap_bytes(self, cmap_bytes: int) -> "FlexMinerConfig":
        """Copy with a different c-map size (Fig. 14 sweep)."""
        return replace(self, cmap_bytes=cmap_bytes)

    def without_cmap(self) -> "FlexMinerConfig":
        return self.with_cmap_bytes(0)
