"""Processing-element model (paper §IV, Fig. 8/10).

A PE walks the subgraph search tree for its assigned tasks in the DFS
preorder of the iterative extender FSM (Fig. 10), charging cycles for
each microarchitectural component:

* **pruner** — one cycle per candidate for the vid-bound/injectivity
  scan;
* **c-map** — banked hash probes for queries, bulk inserts on descend,
  stack deletions on backtrack, occupancy-threshold fall-back (§VI);
* **SIU/SDU** — one merge-loop iteration per cycle when the c-map cannot
  serve a connectivity check (paper Fig. 9);
* **frontier-list table** — memoized candidate lists written to a per-PE
  spill region and re-read through the private cache (§V-C);
* **memory** — edgelist and frontier reads go through the private cache;
  misses stall the PE for the NoC + L2 (+ DRAM) round trip.

The simulator is trace-driven (:mod:`repro.hw.parallel_sim`): a tracer
turns each task's walk into a stream of :mod:`repro.hw.events`, and
:class:`ProcessingElement` — the PE the scheduler dispatches to —
applies it to its clock, private cache, c-map statistics and frontier
allocator and to the shared memory system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..engine.parallel import Task
from ..errors import SimulationError
from ..obs.trace import SIM_PID
from .cache import SetAssocCache
from .cmap import HardwareCMap
from .config import FlexMinerConfig
from .events import (
    CMAP_STAT_FIELDS,
    EV_BUSY,
    EV_FREAD,
    EV_FWRITE,
    EV_INSERT,
    EV_OVERFLOW,
    EV_QUERY,
    EV_SIU,
    EV_TOUCH,
    PE_STAT_FIELDS,
    ShardTrace,
    unpack_insert,
    unpack_overflow,
)
from .mem import GraphLayout, MemorySystem

__all__ = ["PEStats", "ProcessingElement"]


@dataclass
class PEStats:
    """Per-PE cycle breakdown and event counts.

    ``busy_cycles``/``stall_cycles`` live in the float cycle domain
    (memory stalls include fractional issue gaps).  The unit breakdowns
    are declared ``int`` on purpose: every producer charges whole
    cycles, and the parallel simulator ships them as per-task integer
    deltas that must re-group exactly (fmlint FM202 guards the
    producers; test_sim_parallel pins the re-grouping).
    """

    tasks: int = 0
    busy_cycles: float = 0.0
    stall_cycles: float = 0.0
    pruner_cycles: int = 0
    setop_cycles: int = 0
    cmap_cycles: int = 0
    frontier_reads: int = 0
    cmap_fallbacks: int = 0
    cmap_resolved_checks: int = 0
    siu_resolved_checks: int = 0

    @property
    def total_cycles(self) -> float:
        return self.busy_cycles + self.stall_cycles

    def as_dict(self) -> Dict[str, float]:
        """Flat export for run reports and the metrics registry."""
        out = {
            name: getattr(self, name) for name in self.__dataclass_fields__
        }
        out["total_cycles"] = self.total_cycles
        return out


class ProcessingElement:
    """One PE: local clock, overlap credit, statistics, private cache,
    c-map statistics, the frontier bump allocator and the four hooks
    every cycle charge goes through, driven by the scheduler through
    :meth:`execute_task`.

    A task's charges come from its traced event stream: ``traces`` maps
    each task to its ``(shard, index)`` and the pipeline fills it a
    slice at a time.  The hooks are the simulator's hottest Python
    frames, so replay calls them directly.  With a cycle-domain tracer
    attached they also emit the per-PE spans: ``stall`` from
    :meth:`_touch`, the c-map and SIU/SDU intervals and
    ``cmap-overflow`` instants from :meth:`_charge`, the task span from
    :meth:`execute_task`.
    """

    def __init__(
        self,
        pe_id: int,
        config: FlexMinerConfig,
        memsys: MemorySystem,
        num_patterns: int,
        traces: Dict[Task, Tuple[ShardTrace, int]],
    ) -> None:
        self.pe_id = pe_id
        self.config = config
        self.memsys = memsys
        self.time = 0.0
        self._overlap_credit = 0.0
        self.stats = PEStats()
        #: Per-pattern match counts of the tasks this PE ran.
        self.counts = [0] * num_patterns
        self._traces = traces
        # Cycle-domain tracer: None when tracing is off, so hot paths pay
        # one identity check.  Timing/counters are never affected.
        self._trace = None
        self.private = SetAssocCache(
            config.private_cache_bytes,
            config.private_cache_assoc,
            config.line_bytes,
        )
        # The c-map's statistics (replay never probes it: costs are in
        # the trace) and its capacity for the overflow instants.
        self.cmap: Optional[HardwareCMap] = HardwareCMap.from_config(config)
        # Frontier-list table: depth -> (spill address, bytes).
        self._frontier_table: Dict[int, Tuple[int, int]] = {}
        base, stride = GraphLayout.frontier_region(pe_id)
        self._frontier_base = base
        self._frontier_limit = base + stride
        self._frontier_ptr = base

    # ------------------------------------------------------------------
    # Scheduler entry point
    # ------------------------------------------------------------------
    def execute_task(
        self,
        v0: int,
        dispatch_time: float,
        *,
        chunk: Optional[Tuple[int, int]] = None,
    ) -> None:
        """Replay one task; ``dispatch_time`` is when the scheduler sent
        it."""
        self.time = max(self.time, dispatch_time)
        start = self.time
        self._charge_busy(self.config.dispatch_cycles)
        self.stats.tasks += 1
        shard, index = self._traces[v0, chunk]
        codes, arg_a, arg_b, deltas, counts = shard.task(index)
        trace = self._trace
        for code, a, b in zip(codes, arg_a, arg_b):
            if code == EV_TOUCH:
                self._touch(a, b)
            elif code == EV_FWRITE:
                self._write_frontier(a, b)
            elif code == EV_FREAD:
                entry = self._frontier_table.get(a)
                if entry is None:  # pragma: no cover - invariant guard
                    raise SimulationError(
                        "frontier read before any write at depth "
                        f"{a} during replay"
                    )
                self._touch(*entry)
            elif code == EV_BUSY or trace is None:
                self._charge_busy(a)
            else:
                self._charge(code, a, b)
        n_pe = len(PE_STAT_FIELDS)
        for name, delta in zip(PE_STAT_FIELDS, deltas[:n_pe]):
            setattr(self.stats, name, getattr(self.stats, name) + delta)
        if self.cmap is not None:
            for name, delta in zip(CMAP_STAT_FIELDS, deltas[n_pe:]):
                setattr(
                    self.cmap.stats,
                    name,
                    getattr(self.cmap.stats, name) + delta,
                )
        for i, c in enumerate(counts):
            self.counts[i] += c
        if trace is not None:
            args = {"root": int(v0)}
            if chunk is not None:
                args["chunk"] = list(chunk)
            trace.complete(
                f"task v{int(v0)}", start, self.time - start,
                pid=SIM_PID, tid=self.pe_id, cat="task", args=args,
            )

    # ------------------------------------------------------------------
    # Cycle charging hooks
    # ------------------------------------------------------------------
    def _charge_busy(self, cycles: float) -> None:
        self.time += cycles
        self.stats.busy_cycles += cycles
        # Compute executed since the last fetch gives the decoupled
        # fetch pipeline that much run-ahead to hide the next miss.
        self._overlap_credit += cycles

    def _charge(self, code: int, cycles: int, arg: int) -> None:
        """Busy cycles a named unit spent (``EV_QUERY`` ... ``EV_OVERFLOW``
        and their argument): timed like :meth:`_charge_busy`, traced as
        that unit's interval — or, for a rejected insert, an instant at
        the moment of rejection."""
        trace = self._trace
        if code == EV_OVERFLOW and trace is not None:
            occupancy, incoming, depth = unpack_overflow(arg)
            trace.instant(
                "cmap-overflow", self.time,
                pid=SIM_PID, tid=self.pe_id, cat="cmap",
                args={
                    "depth": depth,
                    "incoming": incoming,
                    "occupancy": occupancy,
                    "capacity": self.cmap.capacity,
                },
            )
        self._charge_busy(cycles)
        if trace is None or cycles <= 0 or code == EV_OVERFLOW:
            return
        if code == EV_QUERY:
            name, cat, args = "cmap-query", "cmap", {"candidates": arg}
        elif code == EV_INSERT:
            entries, depth = unpack_insert(arg)
            name, cat = "cmap-insert", "cmap"
            args = {"depth": depth, "entries": entries}
        else:
            name = "siu" if code == EV_SIU else "sdu"
            cat, args = "setop", {"iterations": cycles}
        trace.complete(
            name, self.time - cycles, cycles,
            pid=SIM_PID, tid=self.pe_id, cat=cat, args=args,
        )

    def _touch(self, base: int, size: int) -> None:
        """Read a byte range through the private cache.

        Misses go to the L2/DRAM; the PE's decoupled access pipeline
        (the extender FSM issues edgelist requests ahead of the SIU and
        pruner consuming them) hides miss latency behind the compute
        cycles charged since the previous fetch.  Only the uncovered
        remainder stalls the PE.
        """
        _, missed = self.private.access_range(base, size)
        if missed:
            latency = self.memsys.fetch_lines_batch(
                self.pe_id, missed, self.time
            )
            stall = max(0.0, latency - self._overlap_credit)
            self._overlap_credit = 0.0
            self.time += stall
            self.stats.stall_cycles += stall
            if self._trace is not None and stall > 0:
                self._trace.complete(
                    "stall", self.time - stall, stall,
                    pid=SIM_PID, tid=self.pe_id, cat="mem",
                    args={"lines": len(missed)},
                )

    def _write_frontier(self, length: int, depth: int) -> None:
        """Store a memoized candidate list in the spill region."""
        size = max(4 * length, 4)
        if self._frontier_ptr + size > self._frontier_limit:
            self._frontier_ptr = self._frontier_base  # wrap (bump allocator)
        addr = self._frontier_ptr
        line = self.config.line_bytes
        self._frontier_ptr = (addr + size + line - 1) // line * line
        # Write-allocate without fetch: lines become resident; one store
        # cycle per line.
        self.private.access_range(addr, size)
        self._charge_busy((addr + size - 1) // line - addr // line + 1)
        self._frontier_table[depth] = (addr, size)
