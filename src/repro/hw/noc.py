"""Network-on-chip model (BookSim stand-in, paper §VII-A).

PEs, the shared L2 and the scheduler sit on a 2-D mesh.  Each request
pays a hop-proportional base latency, serialization of the response line
into flits, and a *contention* term: the L2-side ejection ports (one per
L2 bank) accept a bounded number of requests per cycle, and excess
demand queues.  The queue is a leaky bucket per the same reasoning as
the DRAM model — PE-local timestamps are not globally ordered, so the
backlog drains with observed time instead of keeping absolute horizons.

Request *counts* per PE are the "NoC traffic" metric of Fig. 16 (the
number of memory requests sent from the PEs to the NoC, i.e. L2
accesses).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict

from .config import FlexMinerConfig

__all__ = ["NocStats", "NocModel"]


@dataclass
class NocStats:
    requests: int = 0
    response_bytes: int = 0
    queue_cycles: float = 0.0
    requests_per_pe: Dict[int, int] = field(default_factory=dict)

    @property
    def avg_queue_cycles(self) -> float:
        return self.queue_cycles / self.requests if self.requests else 0.0

    def as_dict(self) -> Dict[str, float]:
        """Flat export for run reports and counter-track samples."""
        return {
            "requests": self.requests,
            "response_bytes": self.response_bytes,
            "queue_cycles": self.queue_cycles,
            "avg_queue_cycles": self.avg_queue_cycles,
        }


class NocModel:
    """Mesh NoC latency/traffic/contention model."""

    def __init__(self, config: FlexMinerConfig) -> None:
        self.config = config
        side = max(1, int(math.ceil(math.sqrt(config.num_pes))))
        #: Average Manhattan distance to the L2/scheduler corner on a
        #: side x side mesh, used as the per-request hop count.
        self.avg_hops = max(1, side)
        self.stats = NocStats()
        self._backlog = 0.0
        self._last_seen = 0.0
        # Observability: sampled counter-track emission (attach_tracer).
        self._trace = None
        self._sample_every = 0

    @property
    def ejection_ports(self) -> int:
        """Requests the L2 side can accept per cycle (bank slices)."""
        return self.config.noc.l2_ejection_ports

    def attach_tracer(self, tracer, *, every: int = 64) -> None:
        """Emit a cycle-domain ``noc`` counter sample every ``every``-th
        request (full per-event tracing would swamp the file)."""
        self._trace = tracer if tracer is not None and tracer.enabled else None
        self._sample_every = max(1, every)

    def request_latency(
        self, pe_id: int, payload_bytes: int, now: float = 0.0
    ) -> float:
        """Round-trip cycles for one request issued at PE-time ``now``."""
        self.stats.requests += 1
        self.stats.response_bytes += payload_bytes
        per_pe = self.stats.requests_per_pe
        per_pe[pe_id] = per_pe.get(pe_id, 0) + 1

        # Ejection-port contention (leaky bucket over observed time).
        elapsed = now - self._last_seen
        if elapsed > 0:
            self._backlog = max(0.0, self._backlog - elapsed)
            self._last_seen = now
        queue_delay = self._backlog
        self._backlog += 1.0 / self.ejection_ports
        self.stats.queue_cycles += queue_delay

        if (
            self._trace is not None
            and self.stats.requests % self._sample_every == 0
        ):
            self._emit_sample(now)

        return self.base_latency(payload_bytes) + queue_delay

    def base_latency(self, payload_bytes: int):
        """Round-trip cycles of one request before queueing: the hops
        both ways plus the response's flits."""
        flits = max(
            1,
            math.ceil(payload_bytes / self.config.noc.link_bytes_per_flit),
        )
        one_way = self.avg_hops * self.config.noc.hop_latency_cycles
        return 2 * one_way + flits

    def _emit_sample(self, now: float) -> None:
        from ..obs.trace import SIM_PID

        self._trace.counter(
            "noc",
            now,
            {
                "requests": self.stats.requests,
                "backlog": self._backlog,
                "queue_cycles": self.stats.queue_cycles,
            },
            pid=SIM_PID,
        )
