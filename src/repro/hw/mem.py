"""Shared memory system: address layout, L2, NoC and DRAM glue.

The simulator is trace-driven: PEs issue line-granular requests stamped
with their local cycle time.  Each private-cache miss becomes a NoC
request (the Fig. 16 traffic metric) and an L2 lookup; L2 misses go to
the DDR4 model.  Requests in a batch (one adjacency-list fetch) are
issued back-to-back and complete out of order; the PE blocks until the
last response.

Address map (synthetic, byte-addressed):

* ``indptr``   at 0x1000_0000 — 8 bytes per vertex offset entry;
* ``indices``  at 0x4000_0000 — 4 bytes per neighbor id;
* frontier spill space per PE above 0x1_0000_0000 — frontier lists live
  in the private cache and spill to L2, so these addresses never reach
  DRAM.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..graph.csr import CSRGraph
from .cache import SetAssocCache
from .config import FlexMinerConfig
from .dram import DramModel
from .noc import NocModel

__all__ = ["GraphLayout", "MemorySystem"]

INDPTR_BASE = 0x1000_0000
INDICES_BASE = 0x4000_0000
FRONTIER_BASE = 0x1_0000_0000
FRONTIER_STRIDE = 0x0100_0000  # 16 MB of spill address space per PE


@dataclass(frozen=True)
class GraphLayout:
    """Byte addresses of the CSR arrays in the simulated address space."""

    num_vertices: int

    def indptr_range(self, v: int) -> Tuple[int, int]:
        """Address/size of the two offsets bounding v's neighbor list."""
        return INDPTR_BASE + 8 * v, 16

    def indices_range(self, start: int, count: int) -> Tuple[int, int]:
        """Address/size of a slice of the indices array."""
        return INDICES_BASE + 4 * start, 4 * count

    @staticmethod
    def frontier_region(pe_id: int) -> Tuple[int, int]:
        base = FRONTIER_BASE + pe_id * FRONTIER_STRIDE
        return base, FRONTIER_STRIDE

    @staticmethod
    def is_frontier(addr: int) -> bool:
        return addr >= FRONTIER_BASE


class MemorySystem:
    """Shared L2 + NoC + DRAM serving all PEs."""

    #: Back-to-back request issue gap from one PE (cycles).
    ISSUE_GAP = 1.0

    def __init__(self, config: FlexMinerConfig, graph: CSRGraph) -> None:
        self.config = config
        self.layout = GraphLayout(graph.num_vertices)
        self.l2 = SetAssocCache(
            config.l2_bytes, config.l2_assoc, config.line_bytes
        )
        self.dram = DramModel(config)
        self.noc = NocModel(config)
        # fetch_lines_batch's constants: a line request's unqueued NoC
        # round trip, the ejection backlog one request adds, and the
        # first line of the frontier spill space.
        self._noc_base = self.noc.base_latency(config.line_bytes)
        self._noc_drain = 1.0 / self.noc.ejection_ports
        self._frontier_line = FRONTIER_BASE // config.line_bytes
        # Observability: sampled L2 counter track (attach_tracer).
        self._trace = None
        self._sample_every = 0

    def attach_tracer(self, tracer, *, every: int = 64) -> None:
        """Wire the shared memory system into a cycle-domain tracer.

        Forwards to the NoC and DRAM models and emits an ``l2`` counter
        sample every ``every``-th miss batch.
        """
        self._trace = tracer if tracer is not None and tracer.enabled else None
        self._sample_every = max(1, every)
        self.noc.attach_tracer(tracer, every=every)
        self.dram.attach_tracer(tracer, every=every)

    def fetch_lines(
        self, pe_id: int, lines: List[int], now: float
    ) -> float:
        """Service a batch of private-cache misses, one line at a time;
        returns stall cycles.

        Each line costs a NoC round trip plus the L2 hit latency; an L2
        miss adds the DRAM access (frontier spill addresses always hit in
        L2 by construction — they were written there, never to DRAM).
        This is the per-line reference :meth:`fetch_lines_batch` is held
        to.
        """
        if not lines:
            return 0.0
        finish = now
        for i, line in enumerate(lines):
            issue = now + i * self.ISSUE_GAP
            latency = self.noc.request_latency(
                pe_id, self.config.line_bytes, issue
            )
            latency += self.config.l2_hit_cycles
            addr = line * self.config.line_bytes
            hit = self.l2.access_line(line)
            if not hit and not GraphLayout.is_frontier(addr):
                latency += self.dram.access(line, issue + latency)
            finish = max(finish, issue + latency)
        if (
            self._trace is not None
            and self.l2.stats.accesses % self._sample_every == 0
        ):
            self._emit_l2_sample(now)
        return finish - now

    def fetch_lines_batch(
        self, pe_id: int, lines: List[int], now: float
    ) -> float:
        """What a PE's misses go through: :meth:`fetch_lines` in one
        loop, with the NoC's leaky bucket and the L2's LRU transitions
        inlined.

        The NoC bucket, the L2 LRU state and the DRAM model are mutually
        independent, and each sees its lines in batch order with the
        same float operations, so every latency and every counter is
        bit-identical to :meth:`fetch_lines`.  A batch of four or more
        lines makes its DRAM fills after all of its NoC requests: that
        only orders a traced run's ``noc`` and ``dram`` counter samples.
        """
        count = len(lines)
        if not count:
            return 0.0
        noc = self.noc
        noc_stats = noc.stats
        per_pe = noc_stats.requests_per_pe
        per_pe[pe_id] = per_pe.get(pe_id, 0) + count
        noc_stats.response_bytes += self.config.line_bytes * count
        base, drain = self._noc_base, self._noc_drain
        noc_trace = noc._trace
        backlog = noc._backlog
        last_seen = noc._last_seen
        queue_cycles = noc_stats.queue_cycles
        requests = noc_stats.requests
        l2 = self.l2
        sets, num_sets, assoc = l2._sets, l2.num_sets, l2.assoc
        tick = l2._tick
        hits = evictions = 0
        l2_hit_cycles = self.config.l2_hit_cycles
        frontier_line = self._frontier_line
        fills = [] if count >= 4 else None
        finish = now
        for i, line in enumerate(lines):
            issue = now + i * self.ISSUE_GAP
            requests += 1
            elapsed = issue - last_seen
            if elapsed > 0:
                backlog = max(0.0, backlog - elapsed)
                last_seen = issue
            queue_delay = backlog
            backlog += drain
            queue_cycles += queue_delay
            if noc_trace is not None and requests % noc._sample_every == 0:
                # The sample reads the state the per-request path has.
                noc._backlog = backlog
                noc_stats.requests = requests
                noc_stats.queue_cycles = queue_cycles
                noc._emit_sample(issue)
            latency = base + queue_delay + l2_hit_cycles
            tick += 1
            ways = sets[line % num_sets]
            if line in ways:
                del ways[line]
                ways[line] = tick
                hits += 1
            else:
                if len(ways) >= assoc:
                    del ways[next(iter(ways))]
                    evictions += 1
                ways[line] = tick
                if line < frontier_line:
                    if fills is not None:
                        fills.append((i, line, latency))
                        continue
                    latency += self.dram.access(line, issue + latency)
            if issue + latency > finish:
                finish = issue + latency
        noc._backlog = backlog
        noc._last_seen = last_seen
        noc_stats.requests = requests
        noc_stats.queue_cycles = queue_cycles
        l2._tick = tick
        l2.stats.hits += hits
        l2.stats.misses += count - hits
        l2.stats.evictions += evictions
        for i, line, latency in fills or ():
            issue = now + i * self.ISSUE_GAP
            latency += self.dram.access(line, issue + latency)
            if issue + latency > finish:
                finish = issue + latency
        if (
            self._trace is not None
            and l2.stats.accesses % self._sample_every == 0
        ):
            self._emit_l2_sample(now)
        return finish - now

    def _emit_l2_sample(self, now: float) -> None:
        from ..obs.trace import SIM_PID

        self._trace.counter(
            "l2",
            now,
            {
                "hits": self.l2.stats.hits,
                "misses": self.l2.stats.misses,
                "hit_rate": self.l2.stats.hit_rate,
            },
            pid=SIM_PID,
        )
