"""Hardware connectivity-map model (paper §VI).

The hardware c-map is a small scratchpad hash table: 4-byte vertex-id
keys, 1-byte depth-bitset values, simplified linear probing partitioned
into m banks so m successive slots are probed per cycle.  Two GPM
properties make deletion trivial (find-and-invalidate): updates happen in
bulk per DFS level and only existing keys are ever deleted, so the map
self-cleans in stack order during backtracking.

The model tracks *exact* occupancy and per-depth insertion lists so the
compiler's dynamic footprint estimation and the overflow fall-back of
§VI-B behave like the hardware.  Probe timing has two modes:

* ``exact=True`` — slots are simulated individually (hash = id mod
  capacity, banked linear probing); probe cycle counts are exact.  Used
  by unit tests and small runs.
* ``exact=False`` (default) — keys live in a dict and probe cycles use
  the standard expected-probe formula for linear probing at the current
  load factor, divided by the bank width.  Orders of magnitude faster
  with the same first-order behaviour ("most accesses take only a single
  cycle" below 75 % occupancy).

The analytic mode itself has two implementations selected by
``kernels``:

* ``kernels=False`` — the legacy per-key Python loop (the reference
  path kept alive by ``FlexMinerConfig.timing_kernels=False``);
* ``kernels=True`` (default) — vectorized batch accounting: values live
  in a dense numpy array indexed by vertex id and a whole level's probe
  cycles come from one closed-form pass (exclusive-cumsum occupancy into
  the expected-probe formula).  Because the per-key formula is evaluated
  elementwise in the same IEEE-754 order, the cycle counts — and every
  statistic — are bit-identical to the legacy loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import SimulationError
from .config import FlexMinerConfig

__all__ = ["CMapStats", "InsertOutcome", "HardwareCMap"]


@dataclass
class CMapStats:
    """Access statistics for one PE's c-map."""

    inserts: int = 0
    updates: int = 0
    queries: int = 0
    deletes: int = 0
    insert_cycles: int = 0
    query_cycles: int = 0
    delete_cycles: int = 0
    overflows: int = 0

    @property
    def reads(self) -> int:
        return self.queries

    @property
    def writes(self) -> int:
        return self.inserts + self.updates + self.deletes

    @property
    def read_ratio(self) -> float:
        total = self.reads + self.writes
        return self.reads / total if total else 0.0

    @property
    def total_cycles(self) -> int:
        return self.insert_cycles + self.query_cycles + self.delete_cycles

    def as_dict(self) -> Dict[str, float]:
        """Flat export for run reports and the metrics registry."""
        return {
            "inserts": self.inserts,
            "updates": self.updates,
            "queries": self.queries,
            "deletes": self.deletes,
            "overflows": self.overflows,
            "total_cycles": self.total_cycles,
            "read_ratio": self.read_ratio,
        }


@dataclass(frozen=True)
class InsertOutcome:
    """Result of a bulk neighbor insertion at one DFS level."""

    accepted: bool
    cycles: int
    new_entries: int = 0


class HardwareCMap:
    """One PE's banked linear-probing connectivity map."""

    #: Cycles a rejected level insert costs: the footprint check alone.
    REJECT_CYCLES = 1

    def __init__(
        self,
        capacity_entries: int,
        *,
        banks: int = 4,
        occupancy_threshold: float = 0.75,
        exact: bool = False,
        value_bits: int = 8,
        kernels: bool = True,
    ) -> None:
        if capacity_entries < 1:
            raise SimulationError("c-map needs at least one entry")
        self.capacity = capacity_entries
        self.banks = banks
        self.threshold = occupancy_threshold
        self.exact = exact
        self.value_bits = value_bits
        # Exact slot simulation is inherently per-key; the batch kernels
        # only apply to the analytic probe model.
        self.kernels = bool(kernels) and not exact
        self.stats = CMapStats()
        # Functional state: key -> depth bitset.  The legacy path keeps
        # a dict; the kernel path keeps a dense value array indexed by
        # vertex id (grown on demand) plus an occupancy counter.
        self._table: Dict[int, int] = {}
        self._values = np.zeros(0, dtype=np.uint32)
        self._occupancy = 0
        # Per-depth stack of (depth, ids actually written) for cleanup.
        self._level_stack: List[Tuple[int, np.ndarray]] = []
        if exact:
            self._slots = np.full(capacity_entries, -1, dtype=np.int64)

    # ------------------------------------------------------------------
    # Occupancy / footprint estimation (§VI-B)
    # ------------------------------------------------------------------
    @property
    def occupancy(self) -> int:
        return self._occupancy if self.kernels else len(self._table)

    @property
    def load_factor(self) -> float:
        return self.occupancy / self.capacity

    def fits(self, incoming: int) -> bool:
        """Dynamic footprint check before fetching the neighbor list.

        The hardware knows the degree (from indptr) before the list
        arrives, so it can reject an insertion that would push occupancy
        past the threshold — the trigger for the SIU/SDU fall-back.
        """
        return (self.occupancy + incoming) <= self.threshold * self.capacity

    @classmethod
    def from_config(cls, config: FlexMinerConfig) -> Optional["HardwareCMap"]:
        """Build from an accelerator config; None when c-map is disabled."""
        if config.cmap_bytes == 0:
            return None
        return cls(
            config.cmap_entries,
            banks=config.cmap_banks,
            occupancy_threshold=config.cmap_occupancy_threshold,
            exact=config.cmap_exact,
            kernels=config.timing_kernels,
        )

    # ------------------------------------------------------------------
    # Bulk operations
    # ------------------------------------------------------------------
    def try_insert(self, ids: Sequence[int], depth: int) -> InsertOutcome:
        """Insert a (filtered) neighbor list for the given DFS depth.

        On success every id gets bit ``depth`` set (inserting a fresh
        entry when absent).  On projected overflow nothing is written and
        the caller must fall back to SIU/SDU for the consuming checks.
        """
        if depth >= self.value_bits:
            # Beyond the value width the c-map simply cannot represent
            # the level (paper §VII-D); treat like an overflow.
            self.stats.overflows += 1
            return InsertOutcome(accepted=False, cycles=self.REJECT_CYCLES)
        ids = np.asarray(ids, dtype=np.int64)
        if not self.fits(len(ids)):
            self.stats.overflows += 1
            return InsertOutcome(accepted=False, cycles=self.REJECT_CYCLES)

        bit = 1 << depth
        if self.kernels:
            cycles, new_entries = self._insert_kernel(ids, bit)
        else:
            cycles = 0
            new_entries = 0
            for key in ids.tolist():
                present = key in self._table
                cycles += self._probe_cycles(key, insert=not present)
                if present:
                    self._table[key] |= bit
                    self.stats.updates += 1
                else:
                    self._table[key] = bit
                    self.stats.inserts += 1
                    new_entries += 1
        self.stats.insert_cycles += cycles
        self._level_stack.append((depth, ids))
        return InsertOutcome(
            accepted=True, cycles=cycles, new_entries=new_entries
        )

    def remove_level(self, depth: int) -> int:
        """Backtrack cleanup: undo the most recent insertion level.

        Returns the cycle cost.  Raises if levels are popped out of
        stack order — the property the simplified deletion relies on.
        """
        if not self._level_stack:
            raise SimulationError("c-map remove with empty level stack")
        top_depth, ids = self._level_stack.pop()
        if top_depth != depth:
            raise SimulationError(
                f"c-map cleanup out of order: expected depth {top_depth}, "
                f"got {depth}"
            )
        bit = 1 << depth
        if self.kernels:
            cycles = self._remove_kernel(ids, bit)
        else:
            cycles = 0
            for key in ids.tolist():
                if key not in self._table:
                    raise SimulationError(
                        "deleting a key that was never inserted"
                    )
                cycles += self._probe_cycles(key, insert=False)
                value = self._table[key] & ~bit
                if value:
                    self._table[key] = value
                else:
                    del self._table[key]
                    if self.exact:
                        self._free_slot(key)
                self.stats.deletes += 1
        self.stats.delete_cycles += cycles
        return cycles

    def query(self, key: int) -> int:
        """Connectivity bitset for a vertex (0 when absent)."""
        self.stats.queries += 1
        self.stats.query_cycles += self._probe_cycles(key, insert=False)
        if self.kernels:
            return (
                int(self._values[key]) if key < self._values.size else 0
            )
        return self._table.get(key, 0)

    def query_batch(self, n: int) -> int:
        """Cycle cost of n pipelined queries (values come from the
        functional engine; only timing is needed)."""
        self.stats.queries += n
        cycles = math.ceil(n * self._expected_probe_groups())
        self.stats.query_cycles += cycles
        return cycles

    def reset(self) -> None:
        """Invalidate everything (end of task, paper §VI)."""
        if self.kernels:
            # Only keys named by outstanding levels can be live, so a
            # stack walk clears the dense array without a full zero.
            for _, ids in self._level_stack:
                if len(ids):
                    self._values[ids] = 0
            self._occupancy = 0
        else:
            self._table.clear()
        self._level_stack.clear()
        if self.exact:
            self._slots.fill(-1)

    # ------------------------------------------------------------------
    # Vectorized batch kernels (kernels=True)
    # ------------------------------------------------------------------
    def _ensure_capacity(self, max_key: int) -> None:
        if max_key < self._values.size:
            return
        grown = np.zeros(
            max(2 * self._values.size, max_key + 1), dtype=np.uint32
        )
        grown[: self._values.size] = self._values
        self._values = grown

    @staticmethod
    def probe_groups(
        occupancies: np.ndarray, capacity: int, banks: int
    ) -> np.ndarray:
        """Expected probe cycles per access at each given occupancy.

        Elementwise this is exactly :meth:`_expected_probe_groups`: same
        division, same clamp, same bank split — so callers that ceil
        and sum it (a level's inserts or deletes) or scale it (a query
        batch) are bit-identical to the per-key formula.  A static
        method because the walker-emitted trace prices whole frontiers
        of c-map operations without a live map.
        """
        rho = np.minimum(occupancies / capacity, 0.95)
        probes = 0.5 * (1.0 + 1.0 / (1.0 - rho))
        return np.maximum(1.0, probes / banks)

    def _batch_cycles(self, occupancies: np.ndarray) -> int:
        """Probe cycles for a batch, one closed-form pass.

        ``occupancies[i]`` is the occupancy the i-th access observes;
        each access costs the ceiling of its expected probe groups,
        exactly like ``_probe_cycles``.
        """
        groups = self.probe_groups(occupancies, self.capacity, self.banks)
        return int(np.ceil(groups).astype(np.int64).sum())

    #: Below this batch length the numpy fixed costs (fancy indexing,
    #: cumsum, temporaries) exceed the per-key loop they replace; short
    #: batches run a scalar pass over the same dense array with the same
    #: per-key formula, so the cycle counts are identical either way.
    VECTOR_MIN = 24

    def _insert_scalar(self, keys: List[int], bit: int) -> Tuple[int, int]:
        values = self._values
        size = values.size
        capacity = self.capacity
        banks = self.banks
        occupancy = self._occupancy
        cycles = 0
        new_entries = 0
        for key in keys:
            if key < 0:
                raise SimulationError("c-map keys must be non-negative ids")
            if key >= size:
                self._ensure_capacity(key)
                values = self._values
                size = values.size
            # Inline _probe_cycles at the occupancy this key observes.
            rho = occupancy / capacity
            if rho > 0.95:
                rho = 0.95
            groups = 0.5 * (1.0 + 1.0 / (1.0 - rho)) / banks
            if groups < 1.0:
                groups = 1.0
            cycles += math.ceil(groups)
            value = values.item(key)
            if value:
                values[key] = value | bit
            else:
                values[key] = bit
                occupancy += 1
                new_entries += 1
        self._occupancy = occupancy
        self.stats.inserts += new_entries
        self.stats.updates += len(keys) - new_entries
        return cycles, new_entries

    def _insert_kernel(self, ids: np.ndarray, bit: int) -> Tuple[int, int]:
        n = len(ids)
        if n == 0:
            return 0, 0
        if n < self.VECTOR_MIN or not bool(np.all(ids[1:] > ids[:-1])):
            # Short, duplicate-carrying, or unsorted batches: the scalar
            # pass replays the legacy per-key semantics over the dense
            # array (a key's observed occupancy depends on earlier keys
            # in the same batch).
            return self._insert_scalar(ids.tolist(), bit)
        if int(ids[0]) < 0:
            raise SimulationError("c-map keys must be non-negative ids")
        self._ensure_capacity(int(ids[-1]))
        values = self._values
        vals = values[ids]
        new = vals == 0
        new_entries = int(new.sum())
        # Occupancy observed by the i-th key: entries present before the
        # batch plus the new entries earlier keys created (exclusive
        # cumulative sum) — the "compute the statistics once per batch"
        # form of the legacy per-key re-derivation.
        steps = np.cumsum(new)
        cycles = self._batch_cycles(self._occupancy + steps - new)
        values[ids] = vals | np.uint32(bit)
        self._occupancy += new_entries
        self.stats.inserts += new_entries
        self.stats.updates += n - new_entries
        return cycles, new_entries

    def _remove_scalar(self, keys: List[int], bit: int) -> int:
        values = self._values
        capacity = self.capacity
        banks = self.banks
        occupancy = self._occupancy
        cycles = 0
        mask = ~bit
        for i, key in enumerate(keys):
            value = values.item(key)
            if value == 0:
                # Mirror the legacy mid-loop raise: earlier keys stay
                # deleted and counted, the failing key charges nothing.
                self._occupancy = occupancy
                self.stats.deletes += i
                raise SimulationError(
                    "deleting a key that was never inserted"
                )
            rho = occupancy / capacity
            if rho > 0.95:
                rho = 0.95
            groups = 0.5 * (1.0 + 1.0 / (1.0 - rho)) / banks
            if groups < 1.0:
                groups = 1.0
            cycles += math.ceil(groups)
            value &= mask
            values[key] = value
            if value == 0:
                occupancy -= 1
        self._occupancy = occupancy
        self.stats.deletes += len(keys)
        return cycles

    def _remove_kernel(self, ids: np.ndarray, bit: int) -> int:
        n = len(ids)
        if n == 0:
            return 0
        if n < self.VECTOR_MIN or not bool(np.all(ids[1:] > ids[:-1])):
            return self._remove_scalar(ids.tolist(), bit)
        values = self._values
        vals = values[ids]
        if bool(np.any(vals == 0)):
            raise SimulationError("deleting a key that was never inserted")
        remaining = vals & np.uint32(~bit & 0xFFFFFFFF)
        removed = remaining == 0
        steps = np.cumsum(removed)
        cycles = self._batch_cycles(self._occupancy - (steps - removed))
        values[ids] = remaining
        self._occupancy -= int(removed.sum())
        self.stats.deletes += n
        return cycles

    # ------------------------------------------------------------------
    # Probe timing
    # ------------------------------------------------------------------
    def _expected_probe_groups(self, extra: int = 0) -> float:
        """Expected probe cycles per access at the current load factor.

        Linear probing expected probes ~ (1 + 1/(1-rho)) / 2; the m-way
        banking probes m successive slots per cycle.
        """
        rho = min((self.occupancy + extra) / self.capacity, 0.95)
        probes = 0.5 * (1.0 + 1.0 / (1.0 - rho))
        return max(1.0, probes / self.banks)

    def _probe_cycles(self, key: int, *, insert: bool) -> int:
        if not self.exact:
            return math.ceil(self._expected_probe_groups())
        # Exact banked linear probing over simulated slots.
        start = key % self.capacity
        for distance in range(self.capacity):
            slot = (start + distance) % self.capacity
            occupant = self._slots[slot]
            if occupant == key or occupant == -1:
                if insert and occupant == -1:
                    self._slots[slot] = key
                return distance // self.banks + 1
        raise SimulationError("c-map slots exhausted despite threshold")

    def _free_slot(self, key: int) -> None:
        start = key % self.capacity
        for distance in range(self.capacity):
            slot = (start + distance) % self.capacity
            if self._slots[slot] == key:
                self._slots[slot] = -1
                return
        raise SimulationError(f"key {key} missing from exact slot array")
