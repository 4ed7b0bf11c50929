"""The per-embedding recursion, and the reference engine built on it.

:class:`RecursiveEngine` walks the search tree one embedding at a time:
DFS with matching-order candidate generation, symmetry-order vid
bounds and a frontier-list table, every leaf list materialized.  It is
the only recursion in the package and the base of the two engines that
must observe each candidate list: :class:`ReferenceEngine` and the
simulator's reference tracer (:class:`repro.hw.parallel_sim._TracePE`).
The estimator (:func:`repro.compiler.estimate.measure_levels`) reads
the walker's own per-depth tally instead.  The production engine,
:class:`~repro.engine.explore.PatternAwareEngine`, is the frontier
walker; counts and :class:`~repro.engine.counters.OpCounters` agree
bit for bit.

:class:`ReferenceEngine` generates candidates the slow, obvious way:
generic ``np.intersect1d`` / ``np.setdiff1d``, a per-element injectivity
loop, and every leaf list measured with ``len``.  It shares the
recursion and the adjacency-read charge and nothing from
:mod:`repro.engine.kernels` — no size-adaptive kernels, no count-only
leaves, no frontier walker — so counts *and* counters that agree with
it were not produced by a bug the fast paths share.  For the same
reason it keeps its own op chain (read off the step's constraint
fields, not ``VertexStep.ops``) and its own copy of the merge-model
set-op charge (``len(a) + len(b)``, not ``OpCounters.charge_setops``):
a change to either owner made the same way on every fast path still
disagrees with it.  The differential matrix's ``reference`` backend
(:mod:`repro.verify`) runs it.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..compiler.plan import PlanNode, VertexStep
from .counters import OpCounters
from .explore import PatternAwareEngine, _root_array
from .setops import bound_below, difference, intersect, remove_values

__all__ = ["RecursiveEngine", "ReferenceEngine"]


class RecursiveEngine(PatternAwareEngine):
    """One recursion per embedding over a plan chain or tree.

    Takes the walker's constructor and :meth:`run`;
    ``frontier_row_limit`` is accepted and ignored.  Subclasses
    override candidate generation (:meth:`_raw_candidates`,
    :meth:`_filtered_candidates`) and the :meth:`_on_descend` /
    :meth:`_on_backtrack` hooks.
    """

    def __init__(self, graph, plan, **options) -> None:
        super().__init__(graph, plan, **options)
        # Frontier-list table: raw candidate list per depth on the
        # current DFS path (the operand of base-step composition, §V-C).
        self._raw_stack: List[Optional[np.ndarray]] = [None] * self._slots
        # DFS hot-loop caches (single-pattern plans only).
        self._leaf_depth = None if self._multi else plan.num_levels - 1
        self._steps = None if self._multi else plan.steps

    def run_roots(self, roots: Optional[Iterable[int]] = None) -> None:
        """Run :meth:`run_task` on each root in turn."""
        for v0 in _root_array(self._work_graph, roots).tolist():
            self.run_task(v0)

    def run_task(
        self, v0: int, *, chunk: Optional[Tuple[int, int]] = None
    ) -> None:
        """The search subtree rooted at ``v0``; ``chunk`` as in
        :meth:`PatternAwareEngine.run_task`."""
        if chunk is not None and self._multi:
            raise ValueError("task chunking requires a single-pattern plan")
        self.counters.tasks += 1
        self._chunk = chunk
        emb = [v0]
        self._on_descend(0, emb)
        if self._multi:
            self._extend_node(self.plan.root, emb)
        else:
            self._extend(1, emb)
        self._on_backtrack(0, emb)
        self._chunk = None

    # Hooks for subclasses (the simulator's trace PE records its
    # events here; the base engine does nothing).
    def _on_descend(self, depth: int, emb: List[int]) -> None:
        pass

    def _on_backtrack(self, depth: int, emb: List[int]) -> None:
        pass

    def _extend(self, depth: int, emb: List[int]) -> None:
        """Single-pattern chain walk."""
        step = self._steps[depth - 1]
        cands = self._filtered_candidates(step, emb)
        if depth == 1 and self._chunk is not None:
            index, total = self._chunk
            cands = np.array_split(cands, total)[index]
        if depth == self._leaf_depth:
            self._counts[0] += len(cands)
            if self.collect:
                self._embeddings.extend(
                    tuple(emb) + (int(v),) for v in cands
                )
            return
        for v in cands:
            emb.append(int(v))
            self._on_descend(depth, emb)
            self._extend(depth + 1, emb)
            self._on_backtrack(depth, emb)
            emb.pop()

    def _extend_node(self, node: PlanNode, emb: List[int]) -> None:
        """Multi-pattern tree walk."""
        for child in node.children:
            cands = self._filtered_candidates(child.step, emb)
            if child.pattern_index is not None:
                self._counts[child.pattern_index] += len(cands)
                if self.collect:
                    self._embeddings.extend(
                        tuple(emb) + (int(v),) for v in cands
                    )
                continue
            depth = child.step.depth
            for v in cands:
                emb.append(int(v))
                self._on_descend(depth, emb)
                self._extend_node(child, emb)
                self._on_backtrack(depth, emb)
                emb.pop()

    # ------------------------------------------------------------------
    # Candidate generation
    # ------------------------------------------------------------------
    def _filtered_candidates(
        self, step: VertexStep, emb: Sequence[int]
    ) -> np.ndarray:
        cands = self._raw_candidates(step, emb)
        self.counters.candidates_checked += len(cands)
        if step.upper_bounds:
            bound = min(emb[b] for b in step.upper_bounds)
            cands = bound_below(cands, bound)
        if step.label is not None:
            cands = cands[self._labels[cands] == step.label]
        if step.covers_all_ancestors:
            # Every candidate neighbors every embedding vertex; since no
            # vertex neighbors itself, the injectivity filter is a no-op
            # (clique steps hit this on every level).
            return cands
        return remove_values(cands, emb)

    def _operands(self, step: VertexStep, emb: Sequence[int]):
        """Shared head of the op chain: the memo hit (the base list) or
        the extender's adjacency list (a miss when a base was hinted),
        and the step's ops left to run on it."""
        if self.use_frontier_memo and step.base_step is not None:
            self.counters.frontier_hits += 1
            return self._raw_stack[step.base_step], step.memo_ops
        if step.base_step is not None:
            self.counters.frontier_misses += 1
        return self._load_adjacency(emb[step.extender]), step.ops

    def _raw_candidates(
        self, step: VertexStep, emb: Sequence[int]
    ) -> np.ndarray:
        """Unbounded candidate set: adj(extender) ∩ adj(connected...)
        minus adj(disconnected...), via frontier composition when hinted."""
        cands, ops = self._operands(step, emb)
        for is_intersect, d in ops:
            op = intersect if is_intersect else difference
            cands = op(cands, self._load_adjacency(emb[d]), self.counters)
        self._raw_stack[step.depth] = cands
        return cands

    def _load_adjacency(self, v: int) -> np.ndarray:
        nbrs = self._work_graph.neighbors(v)
        self.counters.charge_adjacency(1, len(nbrs))
        return nbrs


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


class ReferenceEngine(RecursiveEngine):
    """Materialize-everything engine on generic numpy set operations.

    Counts and counters must match the production engine bit for bit.
    The op chain and the set-op charge below are deliberate second
    copies of ``VertexStep.ops`` / ``memo_ops`` and the merge model in
    :mod:`repro.engine.counters` (module docstring).
    """

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
