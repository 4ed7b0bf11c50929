"""The reference engine every faster path is checked against.

:class:`ReferenceEngine` walks the same DFS as
:class:`~repro.engine.explore.PatternAwareEngine` but generates
candidates the slow, obvious way: generic ``np.intersect1d`` /
``np.setdiff1d``, a per-element injectivity loop, and every leaf list
materialized and measured with ``len``.  It shares the recursion and the
adjacency-read charge with the production engine and nothing from
:mod:`repro.engine.kernels` — no size-adaptive kernels, no count-only
leaves, no frontier walker — so counts *and*
:class:`~repro.engine.counters.OpCounters` that agree with it were not
produced by a bug the fast paths share.  For the same reason it keeps
its own op chain (read off the step's constraint fields, not
``VertexStep.ops``) and its own copy of the merge-model set-op charge
(``len(a) + len(b)``, not ``OpCounters.charge_setops``): a change to
either owner made the same way on every fast path still disagrees with
it.  The differential matrix's ``reference`` backend
(:mod:`repro.verify`) runs it.
"""

from __future__ import annotations

import numpy as np

from .counters import OpCounters
from .explore import PatternAwareEngine

__all__ = ["ReferenceEngine"]


def _intersect(a, b, counters: OpCounters):
    counters.set_intersections += 1
    counters.setop_iterations += len(a) + len(b)
    return np.intersect1d(a, b, assume_unique=True)


def _difference(a, b, counters: OpCounters):
    counters.set_differences += 1
    counters.setop_iterations += len(a) + len(b)
    return np.setdiff1d(a, b, assume_unique=True)


def _remove_values(values, forbidden):
    if not len(values):
        return values
    mask = None
    for v in forbidden:
        pos = int(np.searchsorted(values, v))
        if pos < len(values) and values[pos] == v:
            if mask is None:
                mask = np.ones(len(values), dtype=bool)
            mask[pos] = False
    return values if mask is None else values[mask]


class ReferenceEngine(PatternAwareEngine):
    """Materialize-everything engine on generic numpy set operations.

    Counts and counters must match the production engine bit for bit;
    ``batch_frontier`` is accepted and ignored (``supports_leaf_counting
    = False`` routes every plan to the recursive walk).  The op chain and
    the set-op charge below are deliberate second copies of
    ``VertexStep.ops`` / ``memo_ops`` and the merge model in
    :mod:`repro.engine.counters` (module docstring).
    """

    supports_leaf_counting = False

    def _raw_candidates(self, step, emb):
        if self.use_frontier_memo and step.base_step is not None:
            self.counters.frontier_hits += 1
            cands = self._raw_stack[step.base_step]
            for d in step.extra_connected:
                cands = _intersect(
                    cands, self._load_adjacency(emb[d]), self.counters
                )
            for d in step.extra_disconnected:
                cands = _difference(
                    cands, self._load_adjacency(emb[d]), self.counters
                )
        else:
            if step.base_step is not None:
                self.counters.frontier_misses += 1
            cands = self._load_adjacency(emb[step.extender])
            for d in step.connected:
                cands = _intersect(
                    cands, self._load_adjacency(emb[d]), self.counters
                )
            for d in step.disconnected:
                cands = _difference(
                    cands, self._load_adjacency(emb[d]), self.counters
                )
        self._raw_stack[step.depth] = cands
        return cands

    def _filtered_candidates(self, step, emb):
        cands = self._raw_candidates(step, emb)
        self.counters.candidates_checked += len(cands)
        if step.upper_bounds:
            bound = min(emb[b] for b in step.upper_bounds)
            cands = cands[: int(np.searchsorted(cands, bound))]
        if step.label is not None:
            cands = cands[self._labels[cands] == step.label]
        return _remove_values(cands, emb)
