"""Walker-emitted simulator traces: the trace half of every simulation.

A task's event stream (:mod:`repro.hw.events`) is a deterministic
function of its search tree, and every quantity in it — operand
lengths, merge-loop iterations, c-map occupancies, frontier-list
lengths — is a per-row column the banded frontier walker
(:class:`~repro.engine.explore.PatternAwareEngine`, G2Miner's
level-synchronous formulation) already computes for a whole band of
partial embeddings at once.  :class:`WalkTracer` is that walker, run
over a list of ``(root, chunk)`` tasks, emitting per frontier row the
exact events the recursive reference tracer
(:class:`repro.hw.parallel_sim._TracePE`, one recursion per embedding)
does:

* the c-map insert of the row's newest vertex (or the overflow that
  rejects it) and, on backtrack, the removal of that level;
* per plan step, the frontier read-back or the extender's
  ``indptr``/``indices`` touches; one c-map query, or per check the
  SIU/SDU touches and merge cycles; the pruner charge; the memo write.

The c-map state rides along as row columns: occupancy, and per insert
depth whether the level was accepted on the row's path.  A key of a new
level is *new* (and leaves again on backtrack) unless a covered
ancestor level holds it — arc-map membership in that ancestor's
(filtered) insert list — so every probe cost falls out of exclusive
cumulative sums priced by :meth:`HardwareCMap.probe_groups`.

Events are laid out in DFS preorder without a sort: each level returns
its rows' streams as segmented arrays, and a parent interleaves, row by
row, its own events with its children's (scatters over exclusive
cumulative sums of per-row event counts).  The result is
element-for-element the reference tracer's :class:`ShardTrace`
(``tests/test_sim_trace_walk.py``, and the ``sim`` differential
backend on every verify case).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..engine.counters import merge_iterations
from ..engine.explore import (
    _FRONTIER_BAND_ELEMS,
    PatternAwareEngine,
    _cut_bands,
)
from ..engine.kernels import (
    compress_segments,
    members_mask,
    segment_ids,
    segment_sums,
)
from ..engine.parallel import Task
from .cmap import HardwareCMap
from .config import FlexMinerConfig
from .events import (
    EV_BUSY,
    EV_FREAD,
    EV_FWRITE,
    EV_INSERT,
    EV_OVERFLOW,
    EV_QUERY,
    EV_SDU,
    EV_SIU,
    EV_TOUCH,
    STAT_FIELDS,
    ShardTrace,
    insert_arg,
    overflow_arg,
)
from .mem import GraphLayout

__all__ = ["WalkTracer"]

_STAT = {name: i for i, name in enumerate(STAT_FIELDS)}


class _Events:
    """Event streams of a frontier, one segment per row: ``codes`` and
    the ``(a, b)`` arguments stacked as two int64 rows of ``args``."""

    __slots__ = ("codes", "args", "offsets")

    def __init__(self, codes, args, offsets) -> None:
        self.codes = codes
        self.args = args
        self.offsets = offsets

    @classmethod
    def empty(cls, n: int) -> "_Events":
        return cls(
            np.zeros(0, dtype=np.int8),
            np.zeros((2, 0), dtype=np.int64),
            np.zeros(n + 1, dtype=np.int64),
        )

    @classmethod
    def columns(cls, n: int, cols) -> "_Events":
        """Per-row streams from ``(code, a, b, valid)`` columns (scalars
        or length-``n`` arrays, ``valid=None`` for every row): a row's
        events are its valid columns, left to right."""
        counts = np.zeros(n, dtype=np.int64)
        for *_, valid in cols:
            counts += 1 if valid is None else valid
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        codes = np.empty(int(offsets[-1]), dtype=np.int8)
        args = np.empty((2, len(codes)), dtype=np.int64)
        at = offsets[:-1].copy()
        for code, a, b, valid in cols:
            if valid is None:
                codes[at], args[0, at], args[1, at] = code, a, b
                at += 1
                continue
            rows = at[valid]
            codes[rows] = code
            args[0, rows] = a if np.ndim(a) == 0 else a[valid]
            args[1, rows] = b if np.ndim(b) == 0 else b[valid]
            at += valid
        return cls(codes, args, offsets)

    def rows(self, lo: int, hi: int) -> "_Events":
        """The streams of rows ``lo:hi`` (views)."""
        first, last = self.offsets[lo], self.offsets[hi]
        return _Events(
            self.codes[first:last],
            self.args[:, first:last],
            self.offsets[lo:hi + 1] - first,
        )

    def grouped(self, offsets: np.ndarray) -> "_Events":
        """The same events with rows merged into groups of consecutive
        rows (``offsets`` over rows): children under their parents."""
        return _Events(self.codes, self.args, self.offsets[offsets])

    @classmethod
    def interleave(cls, parts: Sequence["_Events"]) -> "_Events":
        """Row ``i`` of the result is row ``i`` of every part, in order."""
        full = [p for p in parts if len(p.codes)]
        if len(full) <= 1:
            return full[0] if full else parts[0]
        lengths = [np.diff(p.offsets) for p in full]
        offsets = np.zeros(len(lengths[0]) + 1, dtype=np.int64)
        np.cumsum(np.sum(lengths, axis=0), out=offsets[1:])
        codes = np.empty(int(offsets[-1]), dtype=np.int8)
        args = np.empty((2, len(codes)), dtype=np.int64)
        start = offsets[:-1].copy()
        for part, length in zip(full, lengths):
            at = np.repeat(start - part.offsets[:-1], length)
            at += np.arange(len(part.codes))
            codes[at] = part.codes
            args[:, at] = part.args
            start += length
        return cls(codes, args, offsets)

    @classmethod
    def concat(cls, parts: Sequence["_Events"]) -> "_Events":
        """The rows of every part, back to back (bands of one level)."""
        if len(parts) == 1:
            return parts[0]
        shifts = np.cumsum([0] + [len(p.codes) for p in parts[:-1]])
        return cls(
            np.concatenate([p.codes for p in parts]),
            np.concatenate([p.args for p in parts], axis=1),
            np.concatenate(
                [parts[0].offsets[:1]]
                + [p.offsets[1:] + s for p, s in zip(parts, shifts)]
            ),
        )


class _Rows:
    """Per-row walk state: the task a row belongs to, the c-map entries
    live on its path, and per insert depth whether that level was
    accepted on its path."""

    __slots__ = ("task", "occupancy", "covered")

    def __init__(self, task, occupancy, covered) -> None:
        self.task = task
        self.occupancy = occupancy
        self.covered: Dict[int, np.ndarray] = covered

    def take(self, index) -> "_Rows":
        return _Rows(
            self.task[index],
            self.occupancy[index],
            {d: c[index] for d, c in self.covered.items()},
        )


class WalkTracer(PatternAwareEngine):
    """Traces task lists with the banded frontier walker (module doc).

    :meth:`trace` is the whole interface, shared with the reference
    tracer; one instance traces any number of lists.
    """

    def __init__(self, graph, plan, config: FlexMinerConfig) -> None:
        super().__init__(graph, plan)
        # Parameters only: capacity, banks, threshold, value width.
        self._cmap = HardwareCMap.from_config(config)
        self._inserts = (
            sorted(plan.cmap_insert_depths) if self._cmap is not None else []
        )
        self._insert_filter = getattr(plan, "cmap_insert_filter", {})
        self._layout = GraphLayout(graph.num_vertices)
        #: The interior step at each depth of the path being walked.
        self._path: List = [None] * self._slots

    def trace(self, tasks: Sequence[Task]) -> ShardTrace:
        """The event streams, stat deltas and counts of ``tasks``."""
        n = len(tasks)
        self._stats = np.zeros((len(STAT_FIELDS), n), dtype=np.int64)
        self._task_counts = np.zeros((self._num_patterns, n), dtype=np.int64)
        self._chunks = np.array(
            [chunk or (0, 1) for _root, chunk in tasks], dtype=np.int64
        ).reshape(n, 2)
        events = _Events.empty(n)
        if n:
            self._arcs = self._work_graph.arc_map()
            roots = np.array([root for root, _ in tasks], dtype=np.int64)
            rows = _Rows(np.arange(n), np.zeros(n, dtype=np.int64), {})
            slots = self._slots
            events = self._subtree(
                self._tree, roots[:, None], [None] * slots, [None] * slots,
                rows,
            )
        return ShardTrace(
            events.codes, events.args[0], events.args[1], events.offsets,
            self._stats.T, self._task_counts.T,
        )

    # ------------------------------------------------------------------
    # The walk
    # ------------------------------------------------------------------
    def _subtree(self, node, emb, stores, origins, rows) -> _Events:
        """Whole streams of rows whose newest vertex sits at
        ``node.depth``: its c-map insert, the subtree, its removal."""
        head, tail, rows = self._descend(node.depth, emb, rows)
        if not node.children:
            return _Events.interleave([head, tail])
        estimates = self._frontier_estimates(node, emb, stores, origins)
        bands = []
        for lo, hi in _cut_bands(estimates, _FRONTIER_BAND_ELEMS):
            band = [o if o is None else o[lo:hi] for o in origins]
            sub = rows.take(slice(lo, hi))
            bands.append(_Events.interleave(
                [head.rows(lo, hi)]
                + [
                    self._child(child, emb[lo:hi], stores, band, sub)
                    for child in node.children
                ]
                + [tail.rows(lo, hi)]
            ))
        return _Events.concat(bands)

    def _child(self, child, emb, stores, origins, rows) -> _Events:
        """One plan step over one band: per row, the step's own events
        followed by the whole streams of the rows it spawns."""
        step, index = child.step, child.pattern_index
        n = len(emb)
        cands, offsets, ops = self._frontier_operands(
            step, emb, stores, origins
        )
        width = np.diff(offsets)
        cols: List = []
        if step.base_step is not None:
            if self._path[step.base_step].memoize_frontier:
                cols.append((EV_FREAD, step.base_step, 0, None))
            self._tally(rows, None, frontier_reads=1)
        else:
            cols += self._fetch(emb[:, step.extender], width, None)
        if ops:
            ready = self._ready([d for _, d in ops], rows)
            siu = ~ready
            if self._cmap is not None:
                groups = HardwareCMap.probe_groups(
                    rows.occupancy, self._cmap.capacity, self._cmap.banks
                )
                cycles = np.ceil(width * groups).astype(np.int64)
                cols.append((EV_QUERY, cycles, width, ready))
                self._tally(
                    rows, ready, queries=width, query_cycles=cycles,
                    cmap_cycles=cycles, cmap_resolved_checks=len(ops),
                )
                self._tally(rows, siu, cmap_fallbacks=1)
            self._tally(rows, siu, siu_resolved_checks=len(ops))
            degrees = self._work_graph.degrees()
            for is_intersect, d in ops:
                other = emb[:, d]
                cycles = merge_iterations(
                    np.diff(offsets), degrees[other]
                )
                cols += self._fetch(other, degrees[other], siu)
                cols.append(
                    (EV_SIU if is_intersect else EV_SDU, cycles, 0, siu)
                )
                self._tally(rows, siu, setop_cycles=cycles)
                cands, offsets = self._frontier_fold(
                    emb, cands, offsets, is_intersect, d
                )
        raw = np.diff(offsets)
        cols.append((EV_BUSY, raw, 0, None))
        self._tally(rows, None, pruner_cycles=raw)
        if step.memoize_frontier:
            cols.append((EV_FWRITE, raw, step.depth, None))
        events = _Events.columns(n, cols)

        f_concat, f_offsets = self._frontier_filter(
            step, emb, cands, offsets
        )
        if step.depth == 1:
            f_concat, f_offsets = self._chunked(f_concat, f_offsets, rows)
        if index is not None:
            np.add.at(self._task_counts[index], rows.task, np.diff(f_offsets))
            return events
        if len(f_concat) == 0:
            return events
        parent = np.repeat(np.arange(n, dtype=np.int64), np.diff(f_offsets))
        below = [o if o is None else o[parent] for o in origins]
        below[step.depth] = parent
        stores[step.depth] = (cands, offsets)
        self._path[step.depth] = step
        spawned = self._subtree(
            child,
            np.concatenate([emb[parent], f_concat[:, None]], axis=1),
            stores, below, rows.take(parent),
        )
        return _Events.interleave([events, spawned.grouped(f_offsets)])

    # ------------------------------------------------------------------
    # c-map levels
    # ------------------------------------------------------------------
    def _descend(self, depth: int, emb, rows):
        """Head (insert or overflow, list touch) and tail (removal)
        events of every row's newest vertex, plus the rows' c-map
        state below it."""
        n = len(emb)
        cmap = self._cmap
        if cmap is None or depth not in self._inserts:
            return _Events.empty(n), _Events.empty(n), rows
        vertex = emb[:, depth]
        ids, offsets = self._work_graph.gather_neighbors(vertex)
        ids, offsets = self._insert_filtered(emb, depth, ids, offsets)
        size = np.diff(offsets)
        if depth >= cmap.value_bits:
            accepted = np.zeros(n, dtype=bool)
        else:
            accepted = rows.occupancy + size <= cmap.threshold * cmap.capacity
        rejected = ~accepted
        # A key is new unless a covered ancestor level already holds it;
        # the same keys leave the map again when the level is removed.
        new = np.ones(len(ids), dtype=bool)
        for a in self._inserts:
            covered = rows.covered.get(a)
            if a >= depth or covered is None or not covered.any():
                continue
            held = self._adjacent(emb[:, a], ids, offsets)
            _, held = self._insert_filtered(emb, a, ids, offsets, held)
            new &= ~(held & np.repeat(covered, size))
        fresh = segment_sums(new, offsets)
        csum = np.concatenate(([0], np.cumsum(new, dtype=np.int64)))
        earlier = csum[:-1] - np.repeat(csum[offsets[:-1]], size)
        observed = np.repeat(rows.occupancy, size) + earlier
        insert_cycles = self._probe_cycles(observed, offsets)
        delete_cycles = self._probe_cycles(
            observed + np.repeat(fresh, size) - 2 * earlier, offsets
        )
        start = self._work_graph.indptr[vertex]
        head = _Events.columns(n, [
            (EV_INSERT, insert_cycles, insert_arg(size, depth), accepted),
            (
                EV_OVERFLOW, cmap.REJECT_CYCLES,
                overflow_arg(rows.occupancy, size, depth), rejected,
            ),
            (EV_TOUCH, *self._layout.indices_range(start, size), accepted),
        ])
        tail = _Events.columns(n, [(EV_BUSY, delete_cycles, 0, accepted)])
        self._tally(
            rows, accepted, inserts=fresh, updates=size - fresh,
            insert_cycles=insert_cycles, deletes=size,
            delete_cycles=delete_cycles,
            cmap_cycles=insert_cycles + delete_cycles,
        )
        self._tally(
            rows, rejected, overflows=1, cmap_cycles=cmap.REJECT_CYCLES
        )
        covered = dict(rows.covered)
        covered[depth] = accepted
        return head, tail, _Rows(
            rows.task, rows.occupancy + fresh * accepted, covered
        )

    def _insert_filtered(self, emb, depth, ids, offsets, mask=None):
        """``depth``'s insert list: the neighbor segments ``ids`` cut at
        the level's insert filter.  With ``mask``, the masks ANDed
        instead (membership of ``ids`` in that level's list)."""
        flt = self._insert_filter.get(depth)
        if flt is None:
            return (ids, offsets) if mask is None else (None, mask)
        below = ids < np.repeat(emb[:, flt], np.diff(offsets))
        if mask is not None:
            return None, mask & below
        return compress_segments(ids, offsets, below)

    def _probe_cycles(self, observed, offsets) -> np.ndarray:
        """Per-row sums of one probe each at the observed occupancies."""
        groups = HardwareCMap.probe_groups(
            observed, self._cmap.capacity, self._cmap.banks
        )
        return segment_sums(
            np.ceil(groups).astype(np.int64), offsets
        )

    def _adjacent(self, column, values, offsets) -> np.ndarray:
        """Per element: ``values`` (row segments) ∈ N(column[row])."""
        lengths = np.diff(offsets)
        if self._arcs is not None:
            keys = np.repeat(column * self._frontier_keyspace, lengths)
            return self._arcs[keys + values]
        other, other_offsets = self._work_graph.gather_neighbors(column)
        space = np.int64(self._frontier_keyspace)
        return members_mask(
            segment_ids(offsets) * space + values,
            segment_ids(other_offsets) * space + other,
        )

    def _ready(self, checks, rows) -> np.ndarray:
        """Rows whose every check the c-map can answer."""
        ready = np.full(len(rows.task), self._cmap is not None)
        for d in checks:
            covered = rows.covered.get(d)
            if covered is None:
                return np.zeros_like(ready)
            ready &= covered
        return ready

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _fetch(self, vertex, degree, valid: Optional[np.ndarray]):
        """Touch columns of loading each row's adjacency list."""
        start = self._work_graph.indptr[vertex]
        return [
            (EV_TOUCH, *self._layout.indptr_range(vertex), valid),
            (EV_TOUCH, *self._layout.indices_range(start, degree), valid),
        ]

    def _chunked(self, values, offsets, rows):
        """Depth-1 candidates cut to each task's chunk: ``(i, n)`` keeps
        ``np.array_split(row, n)[i]``."""
        part, pieces = self._chunks[rows.task].T
        if (pieces == 1).all():
            return values, offsets
        size = np.diff(offsets)
        quotient, remainder = np.divmod(size, pieces)
        lo = part * quotient + np.minimum(part, remainder)
        hi = lo + quotient + (part < remainder)
        pos = np.arange(len(values)) - np.repeat(offsets[:-1], size)
        keep = (pos >= np.repeat(lo, size)) & (pos < np.repeat(hi, size))
        return compress_segments(values, offsets, keep)

    def _tally(self, rows, mask, **fields) -> None:
        """Add per-row stat contributions (where ``mask``) to the
        rows' tasks."""
        task = rows.task if mask is None else rows.task[mask]
        for name, values in fields.items():
            if mask is not None and np.ndim(values):
                values = values[mask]
            np.add.at(self._stats[_STAT[name]], task, values)
