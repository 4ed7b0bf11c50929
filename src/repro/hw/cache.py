"""Set-associative LRU cache model.

Used for both the per-PE private cache and the shared L2 (the paper's L2
is a "standard cycle-accurate non-inclusive cache model"; non-inclusive
means we simply model each level independently).  Only line presence and
LRU state are tracked — the simulator routes data values separately — so
one model serves reads, writes and frontier-list spills.

:meth:`SetAssocCache.access_line` is the per-line reference.  The two
hot walks — a PE's replay pass over its private cache and the memory
system's miss batches over the L2 — inline exactly its state
transitions, one line at a time (``tests/test_property_hw.py`` holds
both to it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..errors import ConfigError

__all__ = ["CacheStats", "SetAssocCache"]


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def as_dict(self) -> Dict[str, float]:
        """Flat export for run reports and counter-track samples."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


class SetAssocCache:
    """A set-associative cache with true-LRU replacement.

    Addresses are byte addresses; the cache operates on line granularity.
    """

    def __init__(
        self, capacity_bytes: int, assoc: int, line_bytes: int
    ) -> None:
        num_lines = capacity_bytes // line_bytes
        if num_lines < assoc:
            raise ConfigError("cache smaller than one set")
        self.line_bytes = line_bytes
        self.assoc = assoc
        self.num_sets = max(num_lines // assoc, 1)
        self.stats = CacheStats()
        # Per-set mapping line_tag -> last-use tick (true LRU).  Every
        # access (re-)inserts its line, so a set's first key is its
        # least recently used line: the inlined walks evict it, the
        # reference below finds it by tick.
        self._sets: List[Dict[int, int]] = [
            {} for _ in range(self.num_sets)
        ]
        self._tick = 0

    # ------------------------------------------------------------------
    def access_line(self, line: int) -> bool:
        """Touch one line; returns True on hit (allocates on miss)."""
        self._tick += 1
        index = line % self.num_sets
        ways = self._sets[index]
        if line in ways:
            del ways[line]
            ways[line] = self._tick
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        if len(ways) >= self.assoc:
            victim = min(ways, key=ways.get)
            del ways[victim]
            self.stats.evictions += 1
        ways[line] = self._tick
        return False

    def contains(self, line: int) -> bool:
        return line in self._sets[line % self.num_sets]

    def flush(self) -> None:
        for ways in self._sets:
            ways.clear()
