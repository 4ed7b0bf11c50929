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
from typing import Dict, List, Optional, Tuple

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
    ReplayColumns,
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
    c-map statistics and the frontier bump allocator, driven by the
    scheduler through :meth:`execute_task`.

    A task's charges come from its traced event stream: ``traces`` maps
    each task to its slice's :class:`~repro.hw.events.ReplayColumns`
    and its index there, and the pipeline fills it a slice at a time.
    :meth:`execute_task` replays a task in one pass over its memory
    events; the busy cycles between them reach the clock only where the
    clock is read.  With a cycle-domain tracer attached the same pass
    emits the per-PE spans: ``stall``, the c-map and SIU/SDU intervals,
    ``cmap-overflow`` instants and the task span.  The integer
    statistics of the tasks a PE ran land once per slice
    (:meth:`settle`).
    """

    def __init__(
        self,
        pe_id: int,
        config: FlexMinerConfig,
        memsys: MemorySystem,
        num_patterns: int,
        traces: Dict[Task, Tuple[ReplayColumns, int]],
    ) -> None:
        self.pe_id = pe_id
        self.config = config
        self.memsys = memsys
        self.time = 0.0
        self._overlap_credit = 0.0
        self.stats = PEStats()
        #: Per-pattern match counts of the tasks this PE ran.
        self.counts = [0] * num_patterns
        #: Reads that missed the private cache (one fetch batch each).
        self.missed_touches = 0
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
        # Frontier-list table: depth -> (first spill line, lines - 1).
        self._frontier_table: Dict[int, Tuple[int, int]] = {}
        base, stride = GraphLayout.frontier_region(pe_id)
        self._frontier_base = base
        self._frontier_limit = base + stride
        self._frontier_ptr = base
        #: Slice indices of the tasks run since the last :meth:`settle`.
        self.ran: List[int] = []
        # Their frontier store cycles.
        self._stored = 0

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
        it.

        One pass over the task's memory events, in stream order.  A read
        (``EV_TOUCH``, or ``EV_FREAD`` through the frontier table) walks
        its lines through the private cache with
        :meth:`SetAssocCache.access_line`'s LRU transitions.  A miss
        goes to the shared memory system; the PE's decoupled access
        pipeline (the extender FSM issues edgelist requests ahead of the
        SIU and pruner consuming them) hides the latency behind the busy
        cycles charged since the previous fetch, and only the remainder
        stalls.  A frontier write (``EV_FWRITE``) bump-allocates spill
        space, write-allocates its lines without a fetch and costs one
        store cycle per line.

        The clock is read only at a miss and at task end, so busy cycles
        are added to it there (and before a frontier write's store
        cycles), one float add per event, strictly left to right: the
        same IEEE-754 sums as charging each event as it comes.  Busy
        cycles and the overlap credit are whole numbers, summed exactly.
        """
        cols, index = self._traces[v0, chunk]
        line_bytes = self.config.line_bytes
        dispatch = self.config.dispatch_cycles
        t = max(self.time, dispatch_time)
        start = t
        t += dispatch
        credit = self._overlap_credit + dispatch
        stall_cycles = self.stats.stall_cycles
        trace = self._trace
        fetch = self.memsys.fetch_lines_batch
        busy = cols.busy
        pos = first_busy = cols.busy_lo[index]
        table = self._frontier_table
        ptr = self._frontier_ptr
        stored = 0
        private = self.private
        sets, num_sets, assoc = private._sets, private.num_sets, private.assoc
        tick = tick0 = private._tick
        misses = evictions = fetches = 0
        lo, hi = cols.mem_lo[index], cols.mem_lo[index + 1]
        for kind, first, span, before in zip(
            cols.kinds[lo:hi], cols.col_a[lo:hi], cols.col_b[lo:hi],
            cols.mem_busy[lo:hi],
        ):
            if kind == EV_TOUCH:
                pass  # its lines are decoded
            elif kind == EV_FREAD:
                entry = table.get(first)
                if entry is None:  # pragma: no cover - invariant guard
                    raise SimulationError(
                        "frontier read before any write at depth "
                        f"{first} during replay"
                    )
                first, span = entry
            else:
                length, depth = first, span
                size = max(4 * length, 4)
                if ptr + size > self._frontier_limit:
                    ptr = self._frontier_base  # wrap (bump allocator)
                addr = ptr
                ptr = (addr + size + line_bytes - 1) // line_bytes * line_bytes
                first = addr // line_bytes
                span = (addr + size - 1) // line_bytes - first
                table[depth] = (first, span)
            if not span:
                tick += 1
                ways = sets[first % num_sets]
                if first in ways:
                    del ways[first]
                    ways[first] = tick
                    if kind != EV_FWRITE:
                        continue
                    missed = None
                else:
                    if len(ways) >= assoc:
                        del ways[next(iter(ways))]
                        evictions += 1
                    ways[first] = tick
                    missed = [first]
            else:
                missed = []
                for line in range(first, first + span + 1):
                    tick += 1
                    ways = sets[line % num_sets]
                    if line in ways:
                        del ways[line]
                        ways[line] = tick
                    else:
                        if len(ways) >= assoc:
                            del ways[next(iter(ways))]
                            evictions += 1
                        ways[line] = tick
                        missed.append(line)
                if not missed and kind != EV_FWRITE:
                    continue
            # The clock is read next: bring the busy cycles since the
            # last read onto it, in stream order.
            stop = first_busy + before
            spent = busy[pos:stop]
            if trace is None:
                for cycles in spent:
                    t += cycles
            else:
                t = self._emit_busy(t, cols, pos, stop)
            credit += sum(spent)
            pos = stop
            if kind == EV_FWRITE:
                # Write-allocate without fetch: one store cycle per line.
                if missed:
                    misses += len(missed)
                lines = span + 1
                t += lines
                credit += lines
                stored += lines
                continue
            misses += len(missed)
            latency = fetch(self.pe_id, missed, t)
            stall = max(0.0, latency - credit)
            credit = 0.0
            t += stall
            stall_cycles += stall
            fetches += 1
            if trace is not None and stall > 0:
                trace.complete(
                    "stall", t - stall, stall,
                    pid=SIM_PID, tid=self.pe_id, cat="mem",
                    args={"lines": len(missed)},
                )
        stop = cols.busy_lo[index + 1]
        spent = busy[pos:stop]
        if trace is None:
            for cycles in spent:
                t += cycles
        else:
            t = self._emit_busy(t, cols, pos, stop)
        self._overlap_credit = credit + sum(spent)
        self.time = t
        self.stats.stall_cycles = stall_cycles
        self._frontier_ptr = ptr
        self._stored += stored
        private._tick = tick
        # One tick per line accessed: every line not missed was a hit.
        private.stats.hits += tick - tick0 - misses
        private.stats.misses += misses
        private.stats.evictions += evictions
        self.missed_touches += fetches
        self.ran.append(index)
        if trace is not None:
            args = {"root": int(v0)}
            if chunk is not None:
                args["chunk"] = list(chunk)
            trace.complete(
                f"task v{int(v0)}", start, t - start,
                pid=SIM_PID, tid=self.pe_id, cat="task", args=args,
            )

    def _emit_busy(self, t: float, cols: ReplayColumns, lo: int, hi: int):
        """``t`` plus busy events ``[lo, hi)`` as :meth:`execute_task`
        adds them, emitting each named unit's interval — and a rejected
        insert's instant, at the moment of rejection — on the way."""
        trace = self._trace
        busy = cols.busy
        codes, args = cols.busy_codes, cols.busy_args
        for j in range(lo, hi):
            code, cycles = codes[j], busy[j]
            if code == EV_OVERFLOW:
                occupancy, incoming, depth = unpack_overflow(args[j])
                trace.instant(
                    "cmap-overflow", t,
                    pid=SIM_PID, tid=self.pe_id, cat="cmap",
                    args={
                        "depth": depth,
                        "incoming": incoming,
                        "occupancy": occupancy,
                        "capacity": self.cmap.capacity,
                    },
                )
            t += cycles
            if code == EV_BUSY or code == EV_OVERFLOW or cycles <= 0:
                continue
            if code == EV_QUERY:
                name, cat, span_args = "cmap-query", "cmap", {
                    "candidates": args[j]
                }
            elif code == EV_INSERT:
                entries, depth = unpack_insert(args[j])
                name, cat = "cmap-insert", "cmap"
                span_args = {"depth": depth, "entries": entries}
            else:
                name = "siu" if code == EV_SIU else "sdu"
                cat, span_args = "setop", {"iterations": cycles}
            trace.complete(
                name, t - cycles, cycles,
                pid=SIM_PID, tid=self.pe_id, cat=cat, args=span_args,
            )
        return t

    def settle(self, row: List[int]) -> None:
        """Apply the tasks this PE ran since the last settle: ``row`` is
        their summed :class:`~repro.hw.events.ReplayColumns` totals
        (busy cycles, statistic deltas, match counts).  Exact integer
        sums, once per slice."""
        stats = self.stats
        tasks = len(self.ran)
        stats.tasks += tasks
        stats.busy_cycles += (
            tasks * self.config.dispatch_cycles + row[0] + self._stored
        )
        n_pe = len(PE_STAT_FIELDS)
        for name, delta in zip(PE_STAT_FIELDS, row[1:1 + n_pe]):
            setattr(stats, name, getattr(stats, name) + delta)
        n_stat = n_pe + len(CMAP_STAT_FIELDS)
        if self.cmap is not None:
            cmap_stats = self.cmap.stats
            for name, delta in zip(CMAP_STAT_FIELDS, row[1 + n_pe:1 + n_stat]):
                setattr(cmap_stats, name, getattr(cmap_stats, name) + delta)
        for i, c in enumerate(row[1 + n_stat:]):
            self.counts[i] += c
        self.ran = []
        self._stored = 0
