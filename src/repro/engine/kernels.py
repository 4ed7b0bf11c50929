"""Size-adaptive set-operation kernels for sorted unique id lists.

The mining engines spend nearly all of their time intersecting and
differencing sorted adjacency lists.  The generic numpy primitives
(``np.intersect1d``/``np.setdiff1d``) concatenate and re-sort their
operands on every call — fine for comparable lengths, wasteful when one
operand is a short frontier probed against a long hub adjacency, which
is the common case on power-law graphs (GraphMini makes the same
observation for CPU engines).

This module provides the raw *value* kernels; the *accounting* (merge
iteration counts, ``OpCounters``) lives in :mod:`repro.engine.setops`
and is unchanged by kernel selection, so the simulator's "same
algorithmic efficiency" invariant holds whichever kernel runs.

Kernels
-------
* **merge** — delegate to numpy's merge-style primitives.  O(n + m).
* **gallop** — binary-search probe of the smaller operand into the
  larger (`searchsorted` over the whole small side at once).
  O(n log m), wins when ``len(small) << len(big)``.

:func:`intersect_values` / :func:`difference_values` pick per call from
the operand lengths alone: gallop when the larger side is at least
:data:`GALLOP_RATIO` times the smaller, merge otherwise.

Count-only variants (:func:`intersect_count_below`, the
``segmented_*_count`` kernels) never materialize the output.

The row-wise ``segmented_pair_*`` kernels (both operands vary per row,
keyed ``row * keyspace + value``) are the frontier walker's *large
graph* path: up to 4096 vertices the walker answers every set operation
after a step's first operand from :meth:`CSRGraph.arc_map` and never
calls them; past that cap — the software analogue of the paper's c-map
overflow -> SIU/SDU fallback — they run exactly as before.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..graph.csr import expand_segments

__all__ = [
    "GALLOP_RATIO",
    "compress_segments",
    "difference_values",
    "gather_segments",
    "intersect_count_below",
    "intersect_values",
    "members_mask",
    "packed_rows_win",
    "segment_ids",
    "segment_sums",
    "segmented_intersect_count",
    "segmented_pair_count_below",
    "segmented_pair_difference",
    "segmented_pair_intersect",
]

#: Length ratio beyond which the adaptive kernel switches from the
#: linear merge to the galloping probe.  log2 of a realistic adjacency
#: length is ~8-16, so below 8x the merge's sequential scan is at least
#: competitive; above it the probe does strictly less work.
GALLOP_RATIO = 8


def _probe_mask(needles: np.ndarray, haystack: np.ndarray) -> np.ndarray:
    """Boolean membership mask of ``needles`` in ``haystack`` (both sorted).

    Out-of-range probe positions are clamped to slot 0 instead of being
    masked out: a needle larger than ``haystack[-1]`` can never equal
    ``haystack[0]``, so the equality compare rejects it without the
    extra validity pass.  The ``.searchsorted`` method is deliberate —
    the ``np.searchsorted`` wrapper adds measurable dispatch overhead at
    adjacency-list sizes.
    """
    n = len(haystack)
    if n == 0:
        return np.zeros(len(needles), dtype=bool)
    idx = haystack.searchsorted(needles)
    idx[idx == n] = 0
    return haystack[idx] == needles


def members_mask(needles, haystack) -> np.ndarray:
    """Vectorized membership of ``needles`` in the sorted ``haystack``."""
    return _probe_mask(np.asarray(needles), np.asarray(haystack))


def _gallop_wins(small: int, big: int) -> bool:
    return big >= GALLOP_RATIO * small


def _merge_values(a: np.ndarray, b: np.ndarray, keep: bool) -> np.ndarray:
    """Merge branch: ``a ∩ b`` (``keep``) or ``a \\ b`` via numpy's
    sort-based primitives."""
    if keep:
        return np.intersect1d(a, b, assume_unique=True)
    return np.setdiff1d(a, b, assume_unique=True)


def _gallop_values(a: np.ndarray, b: np.ndarray, keep: bool) -> np.ndarray:
    """Gallop branch: the elements of ``a`` found (``keep``) or not
    found in ``b`` by one vectorized binary-search probe."""
    hit = _probe_mask(a, b)
    return a[hit] if keep else a[~hit]


def intersect_values(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sorted intersection of two sorted unique arrays."""
    small, big = (a, b) if len(a) <= len(b) else (b, a)
    if len(small) == 0:
        return small[:0]
    if _gallop_wins(len(small), len(big)):
        return _gallop_values(small, big, True)
    return _merge_values(a, b, True)


def difference_values(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sorted difference ``a \\ b`` of two sorted unique arrays."""
    if len(a) == 0 or len(b) == 0:
        return a
    if _gallop_wins(min(len(a), len(b)), max(len(a), len(b))):
        return _gallop_values(a, b, False)
    return _merge_values(a, b, False)


# ----------------------------------------------------------------------
# Count-only fast paths (leaf level: results are counted, never used)
# ----------------------------------------------------------------------

def _excluded_hits(
    base: np.ndarray, member: np.ndarray, exclude: np.ndarray
) -> int:
    """How many ``exclude`` values sit in ``base`` with ``member`` set.

    ``member`` is a boolean mask over ``base`` (the result-membership
    mask the count kernels already built), so one extra probe settles
    membership in the *result* for every excluded id at once.
    """
    n = len(base)
    if n == 0:
        return 0
    pos = base.searchsorted(exclude)
    pos[pos == n] = 0
    return int(np.count_nonzero((base[pos] == exclude) & member[pos]))


def intersect_count_below(
    a: np.ndarray,
    b: np.ndarray,
    bound: Optional[int] = None,
    exclude: Optional[np.ndarray] = None,
) -> Tuple[int, int]:
    """``(|a ∩ b|, |{v ∈ a ∩ b : v < bound, v ∉ exclude}|)``.

    Count-only intersection: nothing is materialized.  ``bound=None``
    means unbounded; ``exclude`` (a sorted-or-not id array, every id
    already below the bound) is subtracted from the bounded count.  One
    probe of the smaller operand yields both counts — the bounded one is
    a prefix sum of the membership mask, because the operands are sorted
    — and one more probe settles the exclusions.
    """
    small, big = (a, b) if len(a) <= len(b) else (b, a)
    if len(small) == 0:
        return 0, 0
    hit = _probe_mask(small, big)
    raw = int(np.count_nonzero(hit))
    if bound is None:
        below = raw
    else:
        below = int(np.count_nonzero(hit[: int(small.searchsorted(bound))]))
    if exclude is not None and below:
        below -= _excluded_hits(small, hit, exclude)
    return raw, below


#: Ids a gather-and-probe moves in the time one packed adjacency word is
#: read, ANDed and popcounted (measured; docs/performance.md, "Packed
#: rows for intersection-only counts").
PACKED_WORD_ELEMS = 0.3


def packed_rows_win(words: int, elements: int) -> bool:
    """Whether an intersection-only count should AND packed adjacency
    rows (:meth:`~repro.graph.CSRGraph.arc_rows`): reading ``words``
    packed words costs less than moving ``elements`` ids through the
    gather path (a gather and an arc-map probe, or a segment re-gather,
    per element).  The one rule of the walker's packed leaves and the
    k-MC codegree pass."""
    return words * PACKED_WORD_ELEMS < elements


def segment_sums(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-segment sums of a flat (typically boolean) element array.

    One cumulative sum serves every segment at once — the reduction
    primitive all segmented kernels share.
    """
    csum = np.concatenate(([0], np.cumsum(values, dtype=np.int64)))
    return csum[offsets[1:]] - csum[offsets[:-1]]


def segment_ids(offsets: np.ndarray) -> np.ndarray:
    """Segment index of every element of a segmented array."""
    lengths = offsets[1:] - offsets[:-1]
    return np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)


def compress_segments(
    concat: np.ndarray, offsets: np.ndarray, keep: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Keep the ``keep``-masked elements of a segmented array: the
    surviving values and their new offsets (segments may empty out).
    ``compress`` measured as fast as a boolean index or faster on every
    caller's masks (docs/performance.md)."""
    csum = np.empty(len(keep) + 1, dtype=np.int64)
    csum[0] = 0
    np.cumsum(keep, out=csum[1:])
    return concat.compress(keep), csum[offsets]


def gather_segments(
    concat: np.ndarray, offsets: np.ndarray, take: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Re-gather segments ``take[i]`` of a segmented array, in order.

    The segmented analogue of fancy indexing: builds a new segmented
    array whose ``i``-th segment is segment ``take[i]`` of the input
    (segments may repeat — the frontier engine uses this to fan a
    memoized ancestor frontier out over all of its descendants).
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    take = np.asarray(take, dtype=np.int64)
    starts = offsets.take(take)
    positions, out_offsets = expand_segments(
        starts, offsets[1:].take(take) - starts
    )
    return concat.take(positions), out_offsets


def _per_element_bounds(bounds, offsets: np.ndarray):
    """Expand per-segment bounds to one comparand per element.

    A scalar bound broadcasts as-is; an array of one bound per segment
    is repeated across each segment's elements, so the scalar and
    vector cases of :func:`segmented_intersect_count` share one compare.
    """
    if np.ndim(bounds) == 0:
        return bounds
    return np.repeat(np.asarray(bounds), offsets[1:] - offsets[:-1])


def segmented_intersect_count(
    base: np.ndarray,
    concat: np.ndarray,
    offsets: np.ndarray,
    bounds=None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-segment ``(|seg ∩ base|, |{v ∈ seg ∩ base : v < bound}|)``.

    ``concat`` holds many sorted segments back to back (segment ``i``
    is ``concat[offsets[i]:offsets[i+1]]``) and every segment is
    intersected with the same sorted ``base`` by a single membership
    probe; per-segment totals fall out of one cumulative sum.  No
    engine path calls it (the walker probes the arc map, or past its
    cap runs the ``segmented_pair_*`` kernels): its callers are the
    benchmark's kernel layer probe and the kernel tests.

    ``bounds`` is ``None`` (no vid bound), a scalar (one bound for every
    segment) or an array with one bound per segment.  Returns int64
    arrays of length ``len(offsets) - 1``.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    nseg = len(offsets) - 1
    if len(concat) == 0 or len(base) == 0:
        zeros = np.zeros(nseg, dtype=np.int64)
        return zeros, zeros.copy()
    hit = _probe_mask(concat, base)
    raw = segment_sums(hit, offsets)
    if bounds is None:
        return raw, raw.copy()
    below_mask = hit & (concat < _per_element_bounds(bounds, offsets))
    return raw, segment_sums(below_mask, offsets)


def _pair_hit(
    a_concat: np.ndarray,
    a_offsets: np.ndarray,
    b_concat: np.ndarray,
    b_offsets: np.ndarray,
    keyspace: int,
) -> np.ndarray:
    """Membership of each ``a`` element in its row's ``b`` segment.

    Both operands are segmented arrays with the same segment count; the
    rows are made disjoint by keying every element with
    ``row * keyspace + value`` (``keyspace`` strictly exceeds every
    value, e.g. ``num_vertices``), which keeps the concatenation
    globally sorted, so one probe answers every row at once.
    """
    a_keys = segment_ids(a_offsets) * np.int64(keyspace) + a_concat
    b_keys = segment_ids(b_offsets) * np.int64(keyspace) + b_concat
    return _probe_mask(a_keys, b_keys)


def segmented_pair_intersect(
    a_concat: np.ndarray,
    a_offsets: np.ndarray,
    b_concat: np.ndarray,
    b_offsets: np.ndarray,
    keyspace: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Row-wise ``a_i ∩ b_i`` of two segmented arrays (both varying).

    The level-expansion kernel: both operands differ per row.  Returns
    ``(values, out_offsets)``.
    """
    a_offsets = np.asarray(a_offsets, dtype=np.int64)
    if len(a_concat) == 0 or len(b_concat) == 0:
        return a_concat[:0], np.zeros(len(a_offsets), dtype=np.int64)
    hit = _pair_hit(a_concat, a_offsets, b_concat, b_offsets, keyspace)
    return compress_segments(a_concat, a_offsets, hit)


def segmented_pair_difference(
    a_concat: np.ndarray,
    a_offsets: np.ndarray,
    b_concat: np.ndarray,
    b_offsets: np.ndarray,
    keyspace: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Row-wise ``a_i \\ b_i`` of two segmented arrays."""
    a_offsets = np.asarray(a_offsets, dtype=np.int64)
    if len(a_concat) == 0:
        return a_concat[:0], np.zeros(len(a_offsets), dtype=np.int64)
    if len(b_concat) == 0:
        return a_concat.copy(), a_offsets.copy()
    keep = ~_pair_hit(a_concat, a_offsets, b_concat, b_offsets, keyspace)
    return compress_segments(a_concat, a_offsets, keep)


def segmented_pair_count_below(
    a_concat: np.ndarray,
    a_offsets: np.ndarray,
    b_concat: np.ndarray,
    b_offsets: np.ndarray,
    *,
    keyspace: int,
    intersect: bool = True,
    exclude_mask: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Row-wise multi-way count: set op + exclusion in one pass.

    Per row ``i`` this computes ``(|r_i|, |{v ∈ r_i : not excluded}|)``
    where ``r_i`` is ``a_i ∩ b_i`` (``intersect=True``) or ``a_i \\
    b_i`` — the keyed count-only leaf of the frontier engine, with the
    symmetry bound and the injectivity exclusions folded into the same
    masked reduction instead of a second pass.  ``exclude_mask`` is a
    per-element boolean over ``a_concat`` marking values that must not
    count toward the second total (the walker marks candidates at or
    above the row's bound and equal to its ancestors).
    """
    a_offsets = np.asarray(a_offsets, dtype=np.int64)
    nseg = len(a_offsets) - 1
    if len(a_concat) == 0:
        zeros = np.zeros(nseg, dtype=np.int64)
        return zeros, zeros.copy()
    if len(b_concat) == 0:
        hit = np.zeros(len(a_concat), dtype=bool)
    else:
        hit = _pair_hit(a_concat, a_offsets, b_concat, b_offsets, keyspace)
    result = hit if intersect else ~hit
    raw = segment_sums(result, a_offsets)
    if exclude_mask is None:
        return raw, raw.copy()
    return raw, segment_sums(result & ~exclude_mask, a_offsets)
