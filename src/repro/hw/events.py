"""The simulator's trace format: per-task event streams and their shard.

Simulation is trace → replay (:mod:`repro.hw.parallel_sim`).  The trace
half turns each ``(root, chunk)`` task into the ordered stream of
``(code, a, b)`` events its search-tree walk charges; the replay half
applies every stream, in schedule order, to a
:class:`~repro.hw.pe.ProcessingElement`.  A stream depends only on the
task — the c-map resets per task, graph addresses are global, and
frontier lists are named by depth (the replaying PE's bump allocator
assigns their addresses) — so it can be produced anywhere, by either
tracer, and then shipped as a :class:`ShardTrace`.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

__all__ = [
    "CMAP_STAT_FIELDS",
    "EV_BUSY",
    "EV_FREAD",
    "EV_FWRITE",
    "EV_INSERT",
    "EV_OVERFLOW",
    "EV_QUERY",
    "EV_SDU",
    "EV_SIU",
    "EV_TOUCH",
    "PE_STAT_FIELDS",
    "ReplayColumns",
    "STAT_FIELDS",
    "ShardTrace",
    "insert_arg",
    "overflow_arg",
    "unpack_insert",
    "unpack_overflow",
]

# Event codes.  From EV_BUSY on, ``a`` is busy cycles; the typed codes
# also name the unit that spent them, which the cycle-domain trace shows.
EV_TOUCH = 0      # (base, size)           private-cache read of a byte range
EV_FWRITE = 1     # (length, depth)        frontier-list store
EV_FREAD = 2      # (depth, -)             frontier-list read-back
EV_BUSY = 3       # (cycles, -)            pruner scan, c-map level removal
EV_QUERY = 4      # (cycles, candidates)   pipelined c-map queries
EV_SIU = 5        # (cycles, -)            merge intersection
EV_SDU = 6        # (cycles, -)            merge difference
EV_INSERT = 7     # (cycles, insert_arg)   accepted c-map level insert
EV_OVERFLOW = 8   # (cycles, overflow_arg) rejected c-map level insert

# A packed c-map argument keeps the DFS depth in its low 8 bits and the
# list length above them (24 bits for an overflow, whose occupancy sits
# on top).
_DEPTH_BITS = 8
_INCOMING_BITS = 24


def insert_arg(entries, depth):
    """Pack an accepted insert's list length and depth (scalars or
    elementwise over arrays)."""
    return (entries << _DEPTH_BITS) | depth


def overflow_arg(occupancy, incoming, depth):
    """Pack a rejected insert's occupancy, list length and depth."""
    return (
        ((occupancy << _INCOMING_BITS) | incoming) << _DEPTH_BITS
    ) | depth


def unpack_insert(arg: int):
    """``(entries, depth)`` of an :func:`insert_arg`."""
    return arg >> _DEPTH_BITS, arg & ((1 << _DEPTH_BITS) - 1)


def unpack_overflow(arg: int):
    """``(occupancy, incoming, depth)`` of an :func:`overflow_arg`."""
    rest, depth = unpack_insert(arg)
    return (
        rest >> _INCOMING_BITS,
        rest & ((1 << _INCOMING_BITS) - 1),
        depth,
    )


#: Integer statistic deltas a traced task carries (exact under
#: re-grouping): PEStats fields, then CMapStats fields.
PE_STAT_FIELDS = (
    "pruner_cycles",
    "setop_cycles",
    "cmap_cycles",
    "frontier_reads",
    "cmap_fallbacks",
    "cmap_resolved_checks",
    "siu_resolved_checks",
)
CMAP_STAT_FIELDS = (
    "inserts",
    "updates",
    "queries",
    "deletes",
    "insert_cycles",
    "query_cycles",
    "delete_cycles",
    "overflows",
)
STAT_FIELDS = PE_STAT_FIELDS + CMAP_STAT_FIELDS


class ShardTrace:
    """Encoded trace of a task list (fast to pickle).

    Events live in three flat arrays segmented by ``bounds`` (task i's
    stream is ``[bounds[i], bounds[i + 1])``); ``stats`` holds one row
    of :data:`STAT_FIELDS` deltas per task, ``counts`` one row of
    per-pattern match counts.
    """

    __slots__ = ("codes", "arg_a", "arg_b", "bounds", "stats", "counts")

    def __init__(self, codes, arg_a, arg_b, bounds, stats, counts) -> None:
        self.codes = np.asarray(codes, dtype=np.int8)
        self.arg_a = np.asarray(arg_a, dtype=np.int64)
        self.arg_b = np.asarray(arg_b, dtype=np.int64)
        self.bounds = np.asarray(bounds, dtype=np.int64)
        n = len(self.bounds) - 1
        self.stats = np.asarray(stats, dtype=np.int64).reshape(
            n, len(STAT_FIELDS)
        )
        self.counts = np.asarray(counts, dtype=np.int64)

    @classmethod
    def from_streams(
        cls, streams: Sequence, num_patterns: int
    ) -> "ShardTrace":
        """Encode ``(events, stat deltas, count deltas)`` per task."""
        codes: List[int] = []
        arg_a: List[int] = []
        arg_b: List[int] = []
        bounds = [0]
        for events, _deltas, _counts in streams:
            for code, a, b in events:
                codes.append(code)
                arg_a.append(a)
                arg_b.append(b)
            bounds.append(len(codes))
        return cls(
            codes, arg_a, arg_b, bounds,
            [deltas for _e, deltas, _c in streams],
            np.asarray(
                [counts for _e, _d, counts in streams], dtype=np.int64
            ).reshape(len(streams), num_patterns),
        )

    def __len__(self) -> int:
        return len(self.bounds) - 1

class ReplayColumns:
    """One :class:`ShardTrace` decoded for replay, once per slice.

    A stream splits into *memory events* (``EV_TOUCH`` / ``EV_FWRITE``
    / ``EV_FREAD``, the only ones whose outcome depends on the replaying
    PE's state) and *busy events* (every code from ``EV_BUSY`` on).
    Per memory event ``k``: ``kinds[k]``; ``col_a[k]`` / ``col_b[k]``,
    a touch's first cache line and its line count less one (``-1`` for
    an empty touch), an event's raw ``(a, b)`` otherwise; and
    ``mem_busy[k]``, the number of busy events before it in its task.
    ``busy`` holds the busy cycles in stream order.  Task ``i`` owns
    memory events ``[mem_lo[i], mem_lo[i + 1])`` and busy events
    ``[busy_lo[i], busy_lo[i + 1])``; row ``i`` of ``totals`` is its
    busy-cycle sum, :data:`STAT_FIELDS` deltas and match counts, the
    integers a PE settles once per slice.  ``busy_codes`` /
    ``busy_args`` are decoded only for ``spans`` (a cycle-domain tracer
    is attached).
    """

    __slots__ = (
        "kinds", "col_a", "col_b", "mem_busy", "mem_lo", "busy",
        "busy_lo", "totals", "busy_codes", "busy_args",
    )

    def __init__(self, shard: ShardTrace, line_bytes: int, spans: bool):
        codes = shard.codes
        is_busy = codes >= EV_BUSY
        mem_pos = np.flatnonzero(~is_busy)
        kinds = codes[mem_pos]
        col_a = shard.arg_a[mem_pos]
        col_b = shard.arg_b[mem_pos]
        touch = kinds == EV_TOUCH
        first = col_a // line_bytes
        span = np.where(
            col_b > 0, (col_a + col_b - 1) // line_bytes - first, -1
        )
        mem_lo = np.searchsorted(mem_pos, shard.bounds)
        busy_lo = shard.bounds - mem_lo
        busy = shard.arg_a[is_busy]
        cum = np.concatenate(([0], np.cumsum(busy)))
        self.kinds = kinds.tolist()
        self.col_a = np.where(touch, first, col_a).tolist()
        self.col_b = np.where(touch, span, col_b).tolist()
        self.mem_busy = (
            mem_pos - np.arange(len(mem_pos))
            - np.repeat(busy_lo[:-1], np.diff(mem_lo))
        ).tolist()
        self.mem_lo = mem_lo.tolist()
        self.busy = busy.tolist()
        self.busy_lo = busy_lo.tolist()
        self.totals = np.column_stack((
            cum[busy_lo[1:]] - cum[busy_lo[:-1]], shard.stats, shard.counts,
        ))
        self.busy_codes = codes[is_busy].tolist() if spans else None
        self.busy_args = shard.arg_b[is_busy].tolist() if spans else None
