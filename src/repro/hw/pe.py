"""Processing-element model (paper §IV, Fig. 8/10).

A PE walks the subgraph search tree for its assigned tasks with the
iterative extender FSM, charging cycles for each microarchitectural
component:

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

The simulator is trace-driven (:mod:`repro.hw.parallel_sim`): a task's
walk is a stream of :mod:`repro.hw.events`, and a replaying PE applies
it to its :class:`PETiming`.  :class:`ProcessingElement` is the
per-embedding walk that emits such a stream — functionally a
:class:`~repro.engine.explore.PatternAwareEngine` subclass, so its
match counts are the verified reference computation — and the base of
the recursive tracer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..compiler.plan import VertexStep
from ..engine.explore import PatternAwareEngine
from ..engine.setops import bound_below, difference, intersect, merge_iterations
from ..graph import CSRGraph
from ..obs.trace import SIM_PID
from .cache import SetAssocCache
from .cmap import HardwareCMap
from .config import FlexMinerConfig
from .events import (
    EV_INSERT,
    EV_OVERFLOW,
    EV_QUERY,
    EV_SDU,
    EV_SIU,
    insert_arg,
    overflow_arg,
    unpack_insert,
    unpack_overflow,
)
from .mem import GraphLayout, MemorySystem

__all__ = ["PEStats", "PETiming", "ProcessingElement"]


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


class PETiming:
    """The timing surface of one PE: local clock, overlap credit,
    statistics, private cache, c-map, the frontier bump allocator and
    the four hooks every cycle charge goes through.

    :class:`ProcessingElement` calls the hooks from the functional
    walk (the recursive tracer overrides them to record events), the
    replay PE from a recorded event stream — the hooks are the
    simulator's hottest Python frames, so they are inherited, never
    delegated to.  With a cycle-domain tracer attached, the hooks also
    emit the per-PE spans: ``stall`` from :meth:`_touch`, the c-map and
    SIU/SDU intervals and ``cmap-overflow`` instants from
    :meth:`_charge`.
    """

    def __init__(
        self, pe_id: int, config: FlexMinerConfig, memsys: MemorySystem
    ) -> None:
        self.pe_id = pe_id
        self.config = config
        self.memsys = memsys
        # Vectorized timing kernels (batch cache walks + batch fetch);
        # bit-identical to the legacy per-element loops.
        self._fast = config.timing_kernels
        self.time = 0.0
        self._overlap_credit = 0.0
        self.stats = PEStats()
        # Cycle-domain tracer: None when tracing is off, so hot paths pay
        # one identity check.  Timing/counters are never affected.
        self._trace = None
        self.private = SetAssocCache(
            config.private_cache_bytes,
            config.private_cache_assoc,
            config.line_bytes,
        )
        self.cmap: Optional[HardwareCMap] = HardwareCMap.from_config(config)
        # Frontier-list table: depth -> (spill address, bytes).
        self._frontier_table: Dict[int, Tuple[int, int]] = {}
        base, stride = GraphLayout.frontier_region(pe_id)
        self._frontier_base = base
        self._frontier_limit = base + stride
        self._frontier_ptr = base

    @property
    def counts(self) -> List[int]:
        """Per-pattern match counts (``_counts`` is the subclass's)."""
        return self._counts

    # ------------------------------------------------------------------
    # Cycle charging helpers
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
        if self._fast:
            _, missed = self.private.access_range_batch(base, size)
        else:
            _, missed = self.private.access_range(base, size)
        if missed:
            fetch = (
                self.memsys.fetch_lines_batch
                if self._fast
                else self.memsys.fetch_lines
            )
            latency = fetch(self.pe_id, missed, self.time)
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
        if self._fast:
            self.private.access_range_batch(addr, size)
            self._charge_busy(
                (addr + size - 1) // line - addr // line + 1
            )
        else:
            lines = self.private.lines_of_range(addr, size)
            for ln in lines:
                self.private.access_line(int(ln))
            self._charge_busy(len(lines))
        self._frontier_table[depth] = (addr, size)


class ProcessingElement(PETiming, PatternAwareEngine):
    """One FlexMiner PE walking its tasks one embedding at a time: the
    functional engine plus the cycle charges of every step."""

    # Every candidate list must flow through the timed c-map/SIU pipeline
    # below; the base engine's count-only leaf shortcut would skip it.
    supports_leaf_counting = False

    def __init__(
        self,
        pe_id: int,
        graph: CSRGraph,
        plan,
        config: FlexMinerConfig,
        memsys: MemorySystem,
    ) -> None:
        PatternAwareEngine.__init__(self, graph, plan, collect=False)
        PETiming.__init__(self, pe_id, config, memsys)
        self._insert_depths = set(plan.cmap_insert_depths)
        self._insert_filter = getattr(plan, "cmap_insert_filter", {})
        self._covered: Dict[int, bool] = {}

    def _load_adjacency_timed(self, v: int) -> np.ndarray:
        """Fetch a neighbor list through the memory hierarchy."""
        nbrs = self._load_adjacency(v)  # functional read + op counters
        layout = self.memsys.layout
        self._touch(*layout.indptr_range(v))
        start = int(self._work_graph.indptr[v])
        self._touch(*layout.indices_range(start, len(nbrs)))
        return nbrs

    # ------------------------------------------------------------------
    # Candidate generation with hardware timing
    # ------------------------------------------------------------------
    def _raw_candidates(
        self, step: VertexStep, emb: Sequence[int]
    ) -> np.ndarray:
        if step.base_step is not None:
            cands = self._raw_stack[step.base_step]
            self.counters.frontier_hits += 1
            self.stats.frontier_reads += 1
            # Only memoized lists are in the table (plancheck FM140).
            entry = self._frontier_table.get(step.base_step)
            if entry is not None:
                self._touch(*entry)
            conn, disc = step.extra_connected, step.extra_disconnected
        else:
            cands = self._load_adjacency_timed(emb[step.extender])
            conn, disc = step.connected, step.disconnected

        checks = conn + disc
        if checks:
            if self._cmap_ready(checks):
                cycles = self.cmap.query_batch(len(cands))
                self._charge(EV_QUERY, cycles, len(cands))
                self.stats.cmap_cycles += cycles
                self.stats.cmap_resolved_checks += len(checks)
                # Values come from the verified functional computation.
                for d in conn:
                    cands = intersect(
                        cands, self._work_graph.neighbors(emb[d]), None
                    )
                for d in disc:
                    cands = difference(
                        cands, self._work_graph.neighbors(emb[d]), None
                    )
            else:
                if self.cmap is not None:
                    self.stats.cmap_fallbacks += 1
                self.stats.siu_resolved_checks += len(checks)
                for d in conn:
                    other = self._load_adjacency_timed(emb[d])
                    cycles = merge_iterations(len(cands), len(other))
                    self._charge(EV_SIU, cycles, 0)
                    self.stats.setop_cycles += cycles
                    cands = intersect(cands, other, self.counters)
                for d in disc:
                    other = self._load_adjacency_timed(emb[d])
                    cycles = merge_iterations(len(cands), len(other))
                    self._charge(EV_SDU, cycles, 0)
                    self.stats.setop_cycles += cycles
                    cands = difference(cands, other, self.counters)

        # Pruner scan: one candidate per cycle for bound + injectivity.
        self._charge_busy(len(cands))
        self.stats.pruner_cycles += len(cands)

        self._raw_stack[step.depth] = cands
        if step.memoize_frontier:
            self._write_frontier(len(cands), step.depth)
        return cands

    def _cmap_ready(self, checks: Tuple[int, ...]) -> bool:
        """Can every check be answered from the c-map right now?"""
        if self.cmap is None:
            return False
        return all(self._covered.get(d, False) for d in checks)

    # ------------------------------------------------------------------
    # c-map maintenance on DFS moves (Fig. 12)
    # ------------------------------------------------------------------
    def _on_descend(self, depth: int, emb: List[int]) -> None:
        if self.cmap is None or depth not in self._insert_depths:
            return
        neighbors = self._work_graph.neighbors(emb[depth])
        flt = self._insert_filter.get(depth)
        if flt is not None:
            neighbors = bound_below(neighbors, emb[flt])
        # The degree is known from indptr before the list is brought in,
        # so the footprint estimate precedes the data fetch (§VI-B).
        occupancy = self.cmap.occupancy
        outcome = self.cmap.try_insert(neighbors, depth)
        self.stats.cmap_cycles += outcome.cycles
        if outcome.accepted:
            self._charge(
                EV_INSERT, outcome.cycles, insert_arg(len(neighbors), depth)
            )
            layout = self.memsys.layout
            start = int(self._work_graph.indptr[emb[depth]])
            self._touch(*layout.indices_range(start, len(neighbors)))
        else:
            self._charge(
                EV_OVERFLOW,
                outcome.cycles,
                overflow_arg(occupancy, len(neighbors), depth),
            )
        self._covered[depth] = outcome.accepted

    def _on_backtrack(self, depth: int, emb: List[int]) -> None:
        if self.cmap is None or depth not in self._insert_depths:
            return
        if self._covered.pop(depth, False):
            cycles = self.cmap.remove_level(depth)
            self._charge_busy(cycles)
            self.stats.cmap_cycles += cycles
