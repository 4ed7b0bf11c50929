"""Counted set operations on sorted vertex lists.

These mirror the merge-based SIU/SDU algorithm (paper Fig. 9): both
inputs are sorted id lists and the hardware executes one merge-loop
iteration per cycle.  The charge is the merge model that
:mod:`repro.engine.counters` owns (``merge_iterations``: ``len(a) +
len(b)``), the same for the CPU baseline and the accelerator, so
speedup ratios are not skewed by the bound.

The actual set computation is delegated to the size-adaptive kernels in
:mod:`repro.engine.kernels` (merge vs. galloping probe, picked per
call); only the *accounting* follows the merge model, and it is
independent of which kernel executed — counters are charged from the
operand lengths alone, so every kernel strategy is bit-identical on the
counter side.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from . import kernels
from .counters import OpCounters

__all__ = [
    "intersect",
    "difference",
    "intersect_count",
    "difference_count",
    "intersect_many",
    "bound_below",
    "remove_values",
]


def intersect(
    a: np.ndarray, b: np.ndarray, counters: OpCounters | None = None
) -> np.ndarray:
    """Sorted intersection of two sorted unique id lists."""
    if counters is not None:
        counters.charge_setops(True, len(a), len(b))
    return kernels.intersect_values(a, b)


def difference(
    a: np.ndarray, b: np.ndarray, counters: OpCounters | None = None
) -> np.ndarray:
    """Sorted difference a \\ b of two sorted unique id lists."""
    if counters is not None:
        counters.charge_setops(False, len(a), len(b))
    return kernels.difference_values(a, b)


def intersect_count(
    a: np.ndarray,
    b: np.ndarray,
    counters: OpCounters | None = None,
    *,
    bound: Optional[int] = None,
    exclude: Optional[np.ndarray] = None,
) -> Tuple[int, int]:
    """Count-only intersection: ``(|a ∩ b|, filtered count below bound)``.

    Charged to the counters exactly like :func:`intersect` — the merge
    model bills operand lengths, not output size — so the engine's leaf
    fast path leaves every counter bit-identical.  ``exclude`` ids
    (already below the bound) are subtracted from the bounded count.
    """
    if counters is not None:
        counters.charge_setops(True, len(a), len(b))
    return kernels.intersect_count_below(a, b, bound, exclude)


def difference_count(
    a: np.ndarray,
    b: np.ndarray,
    counters: OpCounters | None = None,
    *,
    bound: Optional[int] = None,
    exclude: Optional[np.ndarray] = None,
) -> Tuple[int, int]:
    """Count-only difference: ``(|a \\ b|, filtered count below bound)``."""
    if counters is not None:
        counters.charge_setops(False, len(a), len(b))
    return kernels.difference_count_below(a, b, bound, exclude)


def intersect_many(
    arrays: Sequence[np.ndarray], counters: OpCounters | None = None
) -> np.ndarray:
    """Multi-way sorted intersection.

    Without counters the kernel reorders operands smallest-first (the
    cheapest evaluation order).  With counters the fold runs in the
    given order so the charged iteration counts match a sequential
    left-to-right execution — operand order changes intermediate
    lengths, and the accounting must not depend on kernel choices.
    """
    if not len(arrays):
        raise ValueError("intersect_many needs at least one array")
    if counters is None:
        return kernels.intersect_multi(arrays)
    out = arrays[0]
    for other in arrays[1:]:
        out = intersect(out, other, counters)
    return out


def bound_below(values: np.ndarray, bound: int) -> np.ndarray:
    """Prefix of a sorted list with ids strictly below ``bound``.

    This is the symmetry-order filter: because lists are sorted, the
    hardware applies the vid upper bound with a single cut rather than a
    per-element pass.
    """
    return values[: int(values.searchsorted(bound))]


def remove_values(values: np.ndarray, forbidden) -> np.ndarray:
    """Drop specific ids (the current embedding) from a sorted list.

    One vectorized ``searchsorted`` over all forbidden ids at once —
    this runs once per candidate step, on the hottest path.
    """
    if not len(values):
        return values
    forbidden = np.asarray(forbidden)
    if not len(forbidden):
        return values
    pos = values.searchsorted(forbidden)
    valid = pos < len(values)
    hits = pos[valid]
    hits = hits[values[hits] == forbidden[valid]]
    if not len(hits):
        return values
    mask = np.ones(len(values), dtype=bool)
    mask[hits] = False
    return values[mask]
