"""Set-associative LRU cache model.

Used for both the per-PE private cache and the shared L2 (the paper's L2
is a "standard cycle-accurate non-inclusive cache model"; non-inclusive
means we simply model each level independently).  Only line presence and
LRU state are tracked — the simulator routes data values separately — so
one model serves reads, writes and frontier-list spills.

:meth:`SetAssocCache.access_line` is the per-line reference; the range
and line-batch walks the PEs and the L2 use make exactly its state
transitions, one line at a time, with the per-line call overhead hoisted
out of the loop (``tests/test_property_hw.py`` checks them against it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

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
        # Per-set mapping line_tag -> last-use tick (true LRU).
        self._sets: List[Dict[int, int]] = [
            {} for _ in range(self.num_sets)
        ]
        self._tick = 0

    # ------------------------------------------------------------------
    def line_of(self, addr: int) -> int:
        return addr // self.line_bytes

    def access_line(self, line: int) -> bool:
        """Touch one line; returns True on hit (allocates on miss)."""
        self._tick += 1
        index = line % self.num_sets
        ways = self._sets[index]
        if line in ways:
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

    def access_range(self, base: int, size: int) -> Tuple[int, List[int]]:
        """Touch every line of a byte range, in address order.

        Returns ``(hits, missed_lines)`` so the caller can forward the
        misses to the next memory level.  The same hits, misses,
        evictions, LRU ticks and missed-line order as one
        :meth:`access_line` per line, with the per-line dispatch
        overhead hoisted out of the loop.
        """
        if size <= 0:
            return 0, []
        first = base // self.line_bytes
        last = (base + size - 1) // self.line_bytes
        if first == last:
            # Single-line ranges dominate the touch stream; skip the
            # loop setup entirely.
            tick = self._tick + 1
            self._tick = tick
            ways = self._sets[first % self.num_sets]
            if first in ways:
                ways[first] = tick
                self.stats.hits += 1
                return 1, []
            self.stats.misses += 1
            if len(ways) >= self.assoc:
                del ways[min(ways, key=ways.get)]
                self.stats.evictions += 1
            ways[first] = tick
            return 0, [first]
        tick = self._tick
        sets = self._sets
        num_sets = self.num_sets
        assoc = self.assoc
        hits = 0
        evictions = 0
        missed: List[int] = []
        append = missed.append
        for line in range(first, last + 1):
            tick += 1
            ways = sets[line % num_sets]
            if line in ways:
                ways[line] = tick
                hits += 1
            else:
                if len(ways) >= assoc:
                    del ways[min(ways, key=ways.get)]
                    evictions += 1
                ways[line] = tick
                append(line)
        self._tick = tick
        self.stats.hits += hits
        self.stats.misses += last - first + 1 - hits
        self.stats.evictions += evictions
        return hits, missed

    def access_lines_batch(self, lines: Iterable[int]) -> List[bool]:
        """Touch an explicit line sequence; per-line hit flags in order.

        Same state transitions as calling :meth:`access_line` per line.
        """
        tick = self._tick
        sets = self._sets
        num_sets = self.num_sets
        assoc = self.assoc
        hits = 0
        evictions = 0
        flags: List[bool] = []
        append = flags.append
        for line in lines:
            tick += 1
            ways = sets[line % num_sets]
            if line in ways:
                ways[line] = tick
                hits += 1
                append(True)
            else:
                if len(ways) >= assoc:
                    del ways[min(ways, key=ways.get)]
                    evictions += 1
                ways[line] = tick
                append(False)
        self._tick = tick
        self.stats.hits += hits
        self.stats.misses += len(flags) - hits
        self.stats.evictions += evictions
        return flags

    def contains(self, line: int) -> bool:
        return line in self._sets[line % self.num_sets]

    def flush(self) -> None:
        for ways in self._sets:
            ways.clear()
