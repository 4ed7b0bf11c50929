"""Pattern-aware DFS mining engine (the GraphZero/AutoMine model).

It executes a compiled :class:`~repro.compiler.plan.ExecutionPlan` (or
multi-pattern :class:`~repro.compiler.plan.MultiPlan`) over a data graph
the way the paper's software baseline does — DFS with matching-order
candidate generation via merge-based set operations, symmetry-order vid
bounds, and frontier-list memoization — while counting every unit of
algorithmic work in an :class:`~repro.engine.counters.OpCounters`.  The
default path is the frontier walker, whose arc-map lookups are the
software vector c-map (§II-C); ``batch_frontier=False`` recurses.  The
functional reference every path is checked against is
:class:`~repro.engine.reference.ReferenceEngine`.

The FlexMiner hardware simulator walks the same search tree (it must: the
paper stresses the accelerator has "the same algorithmic efficiency as
software"); tests assert both produce identical match counts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..compiler.plan import ExecutionPlan, MultiPlan, PlanNode, VertexStep
from ..graph.csr import CSRGraph
from ..graph.orientation import orient_by_degree
from ..obs import NULL_PROFILER, NULL_REGISTRY, NULL_TRACER
from . import kernels
from .counters import OpCounters
from .setops import (
    bound_below,
    difference,
    difference_count,
    intersect,
    intersect_count,
    remove_values,
)

__all__ = [
    "MiningResult",
    "PatternAwareEngine",
    "filter_roots",
    "mine",
    "mine_multi",
]


def _root_array(graph, roots: Optional[Iterable[int]]) -> np.ndarray:
    """``roots`` (``None`` = every vertex) as an int64 vector."""
    if roots is None:
        return np.arange(graph.num_vertices, dtype=np.int64)
    if not isinstance(roots, (np.ndarray, range)):
        roots = list(roots)  # generators have no length for asarray
    return np.asarray(roots, dtype=np.int64)


def filter_roots(graph, plan, roots: Optional[Iterable[int]] = None):
    """Task roots after the plan's root-label constraint.

    The one root filter of the engine, the pool and the simulator, so
    all three schedule identical task sets.  ``roots`` comes back
    unchanged (``None`` = every vertex) unless the plan labels its
    root; then the surviving roots come back as a vector, in input
    order.
    """
    root_label = getattr(plan, "root_label", None)  # MultiPlans have none
    if root_label is None:
        return roots
    labels = getattr(graph, "labels", None)
    if labels is None:
        raise ValueError(
            "plan carries label constraints but the graph is "
            "unlabeled; wrap it in a LabeledGraph"
        )
    root_arr = _root_array(graph, roots)
    return root_arr[labels[root_arr] == root_label]


def _multi_plan_labeled(plan: MultiPlan) -> bool:
    def walk(node: PlanNode) -> bool:
        if node.step is not None and node.step.label is not None:
            return True
        return any(walk(c) for c in node.children)

    return walk(plan.root) or getattr(plan, "root_label", None) is not None


def _chain_tree(plan: ExecutionPlan) -> PlanNode:
    """A single-pattern plan as a one-child-per-level :class:`PlanNode`
    tree, so the frontier walker runs chains and MultiPlans alike."""
    node = PlanNode(plan.steps[-1], pattern_index=0)
    for step in reversed(plan.steps[:-1]):
        node = PlanNode(step, [node])
    return PlanNode(None, [node])


#: Frontier band size, in estimated materialized elements.  Large enough
#: that numpy call overhead is amortized over thousands of rows; small
#: enough that a band's int64 arrays (8 B x 2**14 = 128 KB) stay under
#: glibc's mmap threshold, so the allocator reuses them instead of
#: mapping, faulting in and unmapping fresh pages on every band.
_FRONTIER_BAND_ELEMS = 1 << 14


def _cut_bands(estimates: np.ndarray, target: int) -> List[Tuple[int, int]]:
    """Cut rows into contiguous ``(lo, hi)`` bands covering every row
    once, each summing to at most ``target`` unless it is a single row."""
    n = len(estimates)
    if n == 0:
        return []
    csum = np.cumsum(estimates, dtype=np.int64)
    if csum[-1] <= target:
        return [(0, n)]
    bands, lo, base = [], 0, 0
    while lo < n:
        hi = int(np.searchsorted(csum, base + target, side="right"))
        hi = max(hi, lo + 1)
        bands.append((lo, hi))
        lo, base = hi, int(csum[hi - 1])
    return bands


@dataclass
class MiningResult:
    """Outcome of a mining run."""

    #: One count per pattern (single-pattern plans have one entry).
    counts: Tuple[int, ...]
    counters: OpCounters
    #: Matched embeddings as vertex tuples, only when collect=True.
    embeddings: Optional[List[Tuple[int, ...]]] = None

    @property
    def total(self) -> int:
        return sum(self.counts)

    def as_dict(self) -> Dict[str, object]:
        """JSON-able payload (embeddings omitted; they can be huge)."""
        return {
            "counts": list(self.counts),
            "total": self.total,
            "counters": self.counters.as_dict(),
        }

    def to_json(self, *, indent: Optional[int] = None) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)


class PatternAwareEngine:
    """Execute an execution plan over a data graph.

    Parameters
    ----------
    graph:
        The undirected data graph.
    plan:
        A single-pattern :class:`ExecutionPlan` or a multi-pattern
        :class:`MultiPlan`.
    collect:
        Record matched embeddings (tests / small inputs only).
    use_frontier_memo:
        Honor the plan's frontier-memoization hints.  Disabled for the
        ablation bench; the paper keeps it always on "for a fair
        comparison with GraphZero".
    batch_frontier:
        The execution-mode switch.  On (the default) walks the plan
        tree (a chain for one pattern, the merged
        dependency tree for a ``MultiPlan``) level-synchronously over
        ``(n_emb, d)`` embedding matrices plus segmented candidate
        arrays, one segmented kernel per plan operation (the
        data-parallel G2Miner formulation).  The frontier is cut into
        contiguous row bands of bounded estimated size and each band's
        subtree runs to completion before the next — breadth-first
        inside a band, depth-first across bands — so memory stays
        bounded however wide a level is.  Only a step's first operand
        is gathered: on graphs of up to 4096 vertices every further
        set operation is a lookup in the work graph's
        :meth:`~repro.graph.CSRGraph.arc_map` (the software c-map),
        on larger ones a second gather and a keyed binary search (the
        overflow -> SIU/SDU fallback) — chosen by graph size alone,
        with identical charges.  Off runs one DFS
        recursion per partial embedding — the reference path (and the
        one subclasses with ``supports_leaf_counting = False`` always
        take); leaves are counted without being materialized whenever
        no caller needs the values (:meth:`_leaf_countable`), a whole
        parent frontier per kernel call when
        :meth:`ExecutionPlan.batch_leaf_shape` allows.  Counts and
        counters are bit-identical in both modes: every batched charge
        is a closed-form sum over rows.
    frontier_row_limit:
        Per-band memory ceiling for ``batch_frontier``: bands never
        exceed this many estimated elements (nor the engine's smaller
        built-in band size).  Only a *single* frontier row whose own
        expansion estimate (extender degree / memoized segment length)
        exceeds it is finished by plain recursion; that fallback is
        charge-identical, so it only trades speed for memory.
    tracer:
        Optional :class:`repro.obs.Tracer`; ``run()`` wraps the mining
        phase in a wall-clock span.  Defaults to the no-op tracer.
    metrics:
        Optional :class:`repro.obs.MetricsRegistry`; ``run()`` publishes
        the final op-counter state under ``engine.*`` gauges.  Defaults
        to the no-op registry.
    profiler:
        Optional :class:`repro.obs.PhaseProfiler`; when enabled it takes
        over the mine-phase span (attributing wall/CPU/RSS) instead of
        the plain tracer span.  Never changes counts or counters.
    """

    def __init__(
        self,
        graph: CSRGraph,
        plan,
        *,
        collect: bool = False,
        use_frontier_memo: bool = True,
        batch_frontier: bool = True,
        frontier_row_limit: int = 1 << 22,
        work_graph: Optional[CSRGraph] = None,
        tracer=None,
        metrics=None,
        profiler=None,
    ) -> None:
        self.graph = graph
        self.plan = plan
        self.collect = collect
        self.use_frontier_memo = use_frontier_memo
        self.batch_frontier = batch_frontier
        self.frontier_row_limit = frontier_row_limit
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.profiler = profiler if profiler is not None else NULL_PROFILER
        self.counters = OpCounters()
        self._multi = isinstance(plan, MultiPlan)
        oriented = (not self._multi) and plan.oriented
        if work_graph is not None:
            # A work graph the caller already holds: the DAG a pool
            # worker attached from shared memory, a halo subgraph cut
            # out of an already oriented graph.
            self._work_graph = work_graph
        else:
            self._work_graph = orient_by_degree(graph) if oriented else graph
        # Labeled mining: label constraints come from the plan; data
        # labels (if any) from the graph.  Orientation preserves vertex
        # ids, so one label array serves both graphs.
        self._labels = getattr(graph, "labels", None)
        plan_labeled = (
            any(s.label is not None for s in plan.steps)
            or plan.root_label is not None
            if not self._multi
            else _multi_plan_labeled(plan)
        )
        if plan_labeled and self._labels is None:
            raise ValueError(
                "plan carries label constraints but the graph is "
                "unlabeled; wrap it in a LabeledGraph"
            )
        self._num_patterns = plan.num_patterns if self._multi else 1
        self._counts = [0] * self._num_patterns
        self._embeddings: List[Tuple[int, ...]] = []
        # Frontier-list table: raw candidate list per depth on the
        # current DFS path (the operand of base-step composition, §V-C).
        depth_limit = (
            plan.max_depth() if self._multi else plan.num_levels - 1
        )
        self._raw_stack: List[Optional[np.ndarray]] = [None] * (
            depth_limit + 1
        )
        self._chunk: Optional[Tuple[int, int]] = None
        # DFS hot-loop caches (single-pattern plans only).
        self._leaf_depth = None if self._multi else plan.num_levels - 1
        self._steps = None if self._multi else plan.steps
        self._batch_leaf = (
            None if self._multi else plan.batch_leaf_shape(use_frontier_memo)
        )
        # Level-synchronous frontier mode needs at least one interior
        # level; engines that override candidate generation (reference,
        # the simulator's trace PE) must keep their per-embedding hooks,
        # so they are routed to recursion.
        self._frontier_ok = (
            batch_frontier
            and self.supports_leaf_counting
            and depth_limit >= 2
        )
        self._tree = plan.root if self._multi else _chain_tree(plan)
        self._frontier_keyspace = max(1, self._work_graph.num_vertices)
        self._frontier_rows = 0
        self._frontier_peak = 0
        self._frontier_fallbacks = 0
        self._frontier_bands = 0
        self._elems_gathered = 0
        self._arc_probes = 0
        #: The work graph's arc map, fetched by the first frontier walk
        #: (recursion never builds one); None past the size cap.
        self._arcs: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def counts(self) -> Tuple[int, ...]:
        """Per-pattern match counts accumulated so far (live view).

        Lets callers that drive :meth:`run_task` directly — the parallel
        miner's workers, the simulator's PEs — read results without a
        :meth:`run` wrapper.
        """
        return tuple(self._counts)

    def run(self, roots: Optional[Iterable[int]] = None) -> MiningResult:
        """Mine the whole graph (or the given root vertices only)."""
        roots = filter_roots(self.graph, self.plan, roots)
        # The profiler's phase mirrors into its own tracer, so exactly
        # one "mine" span lands in the trace either way.
        if self.profiler.enabled:
            span = self.profiler.phase(
                "mine", engine=type(self).__name__,
                patterns=self._num_patterns,
            )
        else:
            span = self.tracer.span(
                "mine", cat="phase", engine=type(self).__name__,
                patterns=self._num_patterns,
            )
        with span:
            self.run_roots(roots)
        self.counters.matches = sum(self._counts)
        self.metrics.absorb(self.counters.as_dict(), prefix="engine.")
        if self._frontier_ok:
            self.metrics.absorb(
                self.frontier_stats(), prefix="engine.frontier."
            )
        return MiningResult(
            counts=tuple(self._counts),
            counters=self.counters,
            embeddings=self._embeddings if self.collect else None,
        )

    def run_roots(self, roots: Optional[Iterable[int]] = None) -> None:
        """Process the search subtrees of a *set* of roots as one unit.

        The task shape of :meth:`run`, the in-process runner and pool
        workers.  In frontier mode the set seeds a single
        ``(n_roots, 1)`` matrix so the walker cuts full-sized bands
        across roots (the G2Miner formulation) instead of walking one
        tiny frontier per root; charges are closed-form sums over
        frontier rows, so counts and counters are bit-identical to the
        root-at-a-time :meth:`run_task` loop recursion engines run.
        """
        if self._chunk is not None:
            # _frontier_child slices depth 1 by the chunk, which only
            # means something under a single root.
            raise ValueError("a root set cannot run under a task chunk")
        root_arr = _root_array(self._work_graph, roots)
        if not self._frontier_ok:
            for v0 in root_arr.tolist():
                self.run_task(v0)
        elif len(root_arr):
            self.counters.tasks += len(root_arr)
            self._mine_frontier(root_arr)

    def run_task(
        self, v0: int, *, chunk: Optional[Tuple[int, int]] = None
    ) -> None:
        """Process the search subtree rooted at data vertex ``v0``.

        ``chunk=(i, n)`` restricts the walk to the i-th of n contiguous
        slices of the depth-1 candidate list — the fine-grained task
        splitting the scheduler uses against power-law stragglers.  The
        union of all n chunks is exactly the unchunked task.  Only
        single-pattern plans support chunking.
        """
        if chunk is not None and self._multi:
            raise ValueError("task chunking requires a single-pattern plan")
        self.counters.tasks += 1
        self._chunk = chunk
        emb = [v0]
        self._on_descend(0, emb)
        if self._frontier_ok:
            self._mine_frontier(np.array([v0], dtype=np.int64))
        elif self._multi:
            self._extend_node(self.plan.root, emb)
        else:
            self._extend(1, emb)
        self._on_backtrack(0, emb)
        self._chunk = None

    def frontier_stats(self) -> Dict[str, int]:
        """Batch-frontier telemetry: rows expanded across all interior
        plan nodes, the number of row bands run, the widest *band*
        (rows), how many single rows exceeded ``frontier_row_limit``
        and took the recursion fallback — and the host's real traffic
        next to the ``OpCounters`` model charge: elements the walker
        materialized (adjacency gathers + memo re-gathers) and elements
        the arc map answered instead.  Published as
        ``engine.frontier.*`` gauges by :meth:`run` when the walker
        ran (frontier mode on a plan it can walk)."""
        return {
            "rows_expanded": self._frontier_rows,
            "bands": self._frontier_bands,
            "peak_width": self._frontier_peak,
            "fallbacks": self._frontier_fallbacks,
            "elems_gathered": self._elems_gathered,
            "arc_probes": self._arc_probes,
        }

    # Hooks for subclasses (the simulator's trace PE records its
    # events here; the base engine does nothing).
    def _on_descend(self, depth: int, emb: List[int]) -> None:
        pass

    def _on_backtrack(self, depth: int, emb: List[int]) -> None:
        pass

    # ------------------------------------------------------------------
    # Single-pattern chain walk
    # ------------------------------------------------------------------
    def _extend(self, depth: int, emb: List[int]) -> None:
        step = self._steps[depth - 1]
        if (
            depth == self._leaf_depth
            and self._leaf_countable(step)
            and not (depth == 1 and self._chunk is not None)
        ):
            self._counts[0] += self._count_leaf(step, emb)
            return
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
        if (
            depth + 1 == self._leaf_depth
            and self._batch_leaf is not None
            and len(cands)
            and self._leaf_countable(self._steps[depth])
        ):
            self._counts[0] += self._count_leaf_batch(emb, cands)
            return
        for v in cands:
            emb.append(int(v))
            self._on_descend(depth, emb)
            self._extend(depth + 1, emb)
            self._on_backtrack(depth, emb)
            emb.pop()

    # ------------------------------------------------------------------
    # Multi-pattern tree walk
    # ------------------------------------------------------------------
    def _extend_node(self, node: PlanNode, emb: List[int]) -> None:
        for child in node.children:
            if child.pattern_index is not None and self._leaf_countable(
                child.step
            ):
                self._counts[child.pattern_index] += self._count_leaf(
                    child.step, emb
                )
                continue
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
    # Count-only leaf path
    # ------------------------------------------------------------------
    #: Subclasses that override candidate generation (the reference's
    #: generic set ops, the simulator's trace recording) need every leaf
    #: list materialized through their own :meth:`_raw_candidates`;
    #: they turn this off.
    supports_leaf_counting = True

    #: Minimum combined operand length before the leaf fast path uses the
    #: count-only probe kernels.  Below it, materializing with the merge
    #: kernel is as fast (numpy call overhead dominates at adjacency
    #: lengths of a few dozen) — the probe only pays on hub-sized lists.
    #: Counters and counts are bit-identical on both sides of the
    #: threshold; tests set 0 to force the probe path.
    leaf_count_min_work = 48

    def _leaf_countable(self, step: VertexStep) -> bool:
        """A leaf level can skip materialization unless the caller needs
        embeddings or the step carries a label filter (label lookups need
        the candidate values)."""
        return (
            self.supports_leaf_counting
            and not self.collect
            and step.label is None
        )

    def _count_leaf(self, step: VertexStep, emb: Sequence[int]) -> int:
        """Count the filtered candidates of a leaf step without
        materializing them.

        Mirrors :meth:`_filtered_candidates` /:meth:`_raw_candidates`
        exactly on the counter side: the op chain, operand lengths, and
        frontier/adjacency accounting are identical — only the *last*
        set operation switches to a count-only kernel, and the symmetry
        bound plus embedding-injectivity filters are folded into that
        count (the bound is a sorted-prefix cut; the embedding is at
        most ``k - 1`` binary searches).
        """
        bound = (
            min(emb[b] for b in step.upper_bounds)
            if step.upper_bounds
            else None
        )
        # Injectivity exclusions: embedding vertices below the bound that
        # the count kernels must subtract if they survive the op chain
        # (exactly what remove_values would have dropped).
        forb = None
        if not step.covers_all_ancestors:
            kept = emb if bound is None else [u for u in emb if u < bound]
            if kept:
                forb = np.asarray(kept)
        cands, ops = self._operands(step, emb)
        last = len(ops) - 1
        for i, (is_intersect, d) in enumerate(ops):
            other = self._load_adjacency(emb[d])
            if i == last and (
                len(cands) + len(other) >= self.leaf_count_min_work
            ):
                count_op = (
                    intersect_count if is_intersect else difference_count
                )
                raw_len, count = count_op(
                    cands, other, self.counters, bound=bound, exclude=forb
                )
                self.counters.candidates_checked += raw_len
                return count
            # Tiny last operands materialize with the regular counted op
            # and fall through to the shared epilogue.
            op = intersect if is_intersect else difference
            cands = op(cands, other, self.counters)
        self.counters.candidates_checked += len(cands)
        if bound is not None:
            cands = bound_below(cands, bound)
        count = len(cands)
        if forb is not None and count:
            count -= int(np.count_nonzero(kernels.members_mask(forb, cands)))
        return count

    # ------------------------------------------------------------------
    # Batch frontier leaf (one vectorized kernel per parent frontier)
    # ------------------------------------------------------------------
    def _count_leaf_batch(self, emb: Sequence[int], cands: np.ndarray) -> int:
        """Count every leaf under the current frontier in one kernel call.

        Semantically identical to looping ``_count_leaf`` over ``cands``;
        the counter charges are the closed-form sum of what the serial
        loop would have charged per candidate (the merge model bills
        operand lengths, which the segment offsets provide in bulk), so
        counts *and* counters are bit-identical to the per-vertex path.
        """
        step = self._steps[self._leaf_depth - 1]
        kind, fixed_idx = self._batch_leaf
        d = self._leaf_depth - 1
        n = len(cands)
        concat, offsets = self._work_graph.gather_neighbors(cands)
        total = int(offsets[-1])
        c = self.counters
        if kind in ("memo", "memo-diff"):
            base = self._raw_stack[step.base_step]
            c.frontier_hits += n
            c.charge_adjacency(n, total)
        else:
            base = self._work_graph.neighbors(emb[fixed_idx])
            if step.base_step is not None:
                c.frontier_misses += n
            c.charge_adjacency(2 * n, total + n * len(base))
        intersecting = kind in ("memo", "direct")
        c.charge_setops(intersecting, n * len(base), total, n)
        bounds = None
        if step.upper_bounds:
            fixed = [emb[b] for b in step.upper_bounds if b != d]
            if d in step.upper_bounds:
                bounds = np.minimum(cands, min(fixed)) if fixed else cands
            else:
                bounds = min(fixed)
        if intersecting:
            raw, below = kernels.segmented_intersect_count(
                base, concat, offsets, bounds
            )
        else:
            # "memo-diff"/"diff-fixed" keep the fixed base as the
            # minuend (base \ adj(v)); "diff-varying" subtracts the
            # fixed base from each candidate's adjacency.
            raw, below = kernels.segmented_difference_count(
                base,
                concat,
                offsets,
                bounds,
                swap=kind in ("memo-diff", "diff-fixed"),
            )
        c.candidates_checked += int(raw.sum())
        count = int(below.sum())
        if not step.covers_all_ancestors and count:
            count -= self._batch_leaf_excluded(
                kind, emb, cands, base, concat, offsets, bounds
            )
        return count

    def _batch_leaf_excluded(
        self, kind, emb, cands, base, concat, offsets, bounds
    ) -> int:
        """Injectivity exclusions for the batched difference leaves.

        Mirrors the per-candidate ``exclude`` subtraction of
        ``difference_count_below``: an embedding vertex — including the
        just-placed candidate itself — is subtracted once per row where
        it survives the difference and sits below that row's bound.
        """
        swap = kind in ("memo-diff", "diff-fixed")
        excluded = np.zeros(len(cands), dtype=np.int64)
        if swap:
            # The candidate vertex: v never neighbors itself, so for
            # base \ adj(v) it survives exactly when v ∈ base.
            in_result = kernels.members_mask(cands, base)
            if bounds is not None:
                in_result = in_result & (cands < bounds)
            excluded += in_result
        for u in emb:
            u = int(u)
            if swap:
                if not kernels.contains(base, u):
                    continue
                hits = ~(
                    kernels.segment_sums(concat == u, offsets) > 0
                )
            else:
                if kernels.contains(base, u):
                    continue
                hits = kernels.segment_sums(concat == u, offsets) > 0
            if bounds is not None:
                hits = hits & (u < np.asarray(bounds))
            excluded += hits
        return int(excluded.sum())

    # ------------------------------------------------------------------
    # Level-synchronous frontier execution (batch_frontier=True)
    # ------------------------------------------------------------------
    def _mine_frontier(self, roots: np.ndarray) -> None:
        """Walk the whole plan tree from a column of root vertices (a
        root set for :meth:`run_roots`, one for a chunked task)."""
        slots = len(self._raw_stack)
        self._arcs = self._work_graph.arc_map()
        self._walk_frontier(
            self._tree, roots[:, None], [None] * slots, [None] * slots
        )

    def _walk_frontier(self, node: PlanNode, emb, stores, origins) -> None:
        """Run ``node``'s subtree over a frontier of partial embeddings.

        The frontier at depth ``d`` is an ``(n_emb, d)`` embedding
        matrix; each child step gathers every row's operand adjacency
        lists into one segmented array and runs the segmented kernels
        once per plan operation instead of once per embedding.  Raw
        candidate lists are kept per depth (``stores``) with a
        row→segment map (``origins``) so deeper steps' frontier-memo
        composition reads the same arrays the recursive ``_raw_stack``
        would have held.  The recursion is over *plan nodes*: rows are
        cut into contiguous bands of bounded estimated size and each
        band finishes its whole subtree before the next starts, so a
        band is just ``emb[lo:hi]`` + ``origins[t][lo:hi]`` over the
        shared stores.  Counts and counters are bit-identical to
        :meth:`_extend` / :meth:`_extend_node` — every charge below is
        the closed-form sum of the per-embedding charges.
        """
        estimates = self._frontier_estimates(node, emb, stores, origins)
        limit = self.frontier_row_limit
        for lo, hi in _cut_bands(estimates, min(_FRONTIER_BAND_ELEMS, limit)):
            if hi - lo == 1 and estimates[lo] > limit:
                self._frontier_fallbacks += 1
                self._frontier_recurse(node, emb, stores, origins, lo)
                continue
            self._frontier_bands += 1
            self._frontier_peak = max(self._frontier_peak, hi - lo)
            band = [o if o is None else o[lo:hi] for o in origins]
            for child in node.children:
                self._frontier_child(child, emb[lo:hi], stores, band)

    def _frontier_child(self, child: PlanNode, emb, stores, origins) -> None:
        """One plan step over one band: a completing leaf adds to its
        pattern's count, an interior step builds the child frontier and
        walks on."""
        step, index = child.step, child.pattern_index
        if index is not None and self._leaf_countable(step):
            self._counts[index] += self._frontier_count_leaf(
                step, emb, stores, origins
            )
            return
        raw = self._frontier_raw(step, emb, stores, origins)
        f_concat, f_offsets = self._frontier_filter(step, emb, *raw)
        if step.depth == 1 and self._chunk is not None:
            part, total = self._chunk
            f_concat = np.array_split(f_concat, total)[part]
            f_offsets = np.array([0, len(f_concat)], dtype=np.int64)
        if index is None:
            self._frontier_rows += len(f_concat)
        else:
            self._counts[index] += len(f_concat)
        if len(f_concat) == 0 or (index is not None and not self.collect):
            return
        parent = np.repeat(
            np.arange(len(emb), dtype=np.int64), np.diff(f_offsets)
        )
        rows = np.concatenate(
            [emb[parent], f_concat[:, None].astype(np.int64)], axis=1
        )
        if index is not None:
            self._embeddings.extend(map(tuple, rows.tolist()))
            return
        stores[step.depth] = raw
        below = [o if o is None else o[parent] for o in origins]
        below[step.depth] = parent
        self._walk_frontier(child, rows, stores, below)

    def _frontier_estimates(self, node, emb, stores, origins) -> np.ndarray:
        """Per-row size estimate of expanding ``node``: the largest
        operand any child step starts from (memoized segment length or
        extender degree), at least 1 so a band never holds more rows
        than its element budget.  Pure index arithmetic — no counters
        are charged, so banding and the fallback stay bit-identical."""
        estimates = np.ones(len(emb), dtype=np.int64)
        for child in node.children:
            step = child.step
            if self.use_frontier_memo and step.base_step is not None:
                s_offsets = stores[step.base_step][1]
                take = origins[step.base_step]
                size = s_offsets[take + 1] - s_offsets[take]
            else:
                size = self._work_graph.degrees()[emb[:, step.extender]]
            np.maximum(estimates, size, out=estimates)
        return estimates

    def _frontier_recurse(self, node, emb, stores, origins, r) -> None:
        """Fallback: finish over-limit frontier row ``r`` with plain
        recursion.

        Reconstructs the row's ``_raw_stack`` slices from the stores so
        frontier-memo composition below ``node`` behaves exactly as if
        the whole path had been walked recursively."""
        for t in range(1, node.depth + 1):
            s_concat, s_offsets = stores[t]
            i = int(origins[t][r])
            self._raw_stack[t] = s_concat[s_offsets[i] : s_offsets[i + 1]]
        row = [int(x) for x in emb[r]]
        if self._multi:
            self._extend_node(node, row)
        else:
            self._extend(node.depth + 1, row)

    def _frontier_operands(self, step, emb, stores, origins):
        """Batched :meth:`_operands`: the starting segmented candidate
        arrays plus the step's op chain, with the same frontier-hit/miss
        and adjacency charges the per-embedding path makes."""
        n = len(emb)
        if self.use_frontier_memo and step.base_step is not None:
            self.counters.frontier_hits += n
            s_concat, s_offsets = stores[step.base_step]
            cands, offsets = kernels.gather_segments(
                s_concat, s_offsets, origins[step.base_step]
            )
            self._elems_gathered += len(cands)
            return cands, offsets, step.memo_ops
        if step.base_step is not None:
            self.counters.frontier_misses += n
        cands, offsets = self._gather_adjacency(emb[:, step.extender])
        return cands, offsets, step.ops

    def _frontier_probe(self, emb, cands, lengths, is_intersect, d):
        """One set operation over the whole frontier as arc-map lookups:
        the per-element mask of ``cands`` (row lengths ``lengths``) that
        survive ``∩ N(emb[:, d])`` / ``\\ N(emb[:, d])``.

        Charged exactly like ``len(emb)`` per-row counted merges — the
        operand lengths come from ``degrees()`` — but no neighbor list
        is gathered: the paper's c-map lookup in place of the SIU/SDU.
        """
        column = emb[:, d]
        other_total = int(self._work_graph.degrees()[column].sum())
        self.counters.charge_adjacency(len(emb), other_total)
        self.counters.charge_setops(
            is_intersect, len(cands), other_total, len(emb)
        )
        self._arc_probes += len(cands)
        keys = np.repeat(column * self._frontier_keyspace, lengths)
        keys += cands
        hit = self._arcs[keys]
        return hit if is_intersect else np.logical_not(hit, out=hit)

    def _frontier_fold(self, emb, cands, offsets, is_intersect, d):
        """One segmented set operation over the whole frontier, charged
        exactly like ``len(emb)`` per-row counted ops: an arc-map probe,
        or past the map's size cap a gather + keyed binary search."""
        if self._arcs is not None:
            keep = self._frontier_probe(
                emb, cands, np.diff(offsets), is_intersect, d
            )
            return kernels.compress_segments(cands, offsets, keep)
        other, other_offsets = self._gather_operand(
            emb, offsets, is_intersect, d
        )
        op = (
            kernels.segmented_pair_intersect
            if is_intersect
            else kernels.segmented_pair_difference
        )
        return op(
            cands, offsets, other, other_offsets, self._frontier_keyspace
        )

    def _frontier_raw(self, step, emb, stores, origins):
        """Batched :meth:`_raw_candidates`: one segmented op per plan
        operation instead of one per embedding row."""
        cands, offsets, ops = self._frontier_operands(
            step, emb, stores, origins
        )
        for is_intersect, d in ops:
            cands, offsets = self._frontier_fold(
                emb, cands, offsets, is_intersect, d
            )
        return cands, offsets

    def _frontier_filter(self, step, emb, cands, offsets):
        """Batched :meth:`_filtered_candidates`: bound cut, label
        filter, and injectivity as per-element masks over the segmented
        candidate array."""
        self.counters.candidates_checked += len(cands)
        lengths = np.diff(offsets)
        mask = None
        if step.upper_bounds:
            bounds = np.min(emb[:, list(step.upper_bounds)], axis=1)
            mask = cands < np.repeat(bounds, lengths)
        if step.label is not None:
            label_ok = self._labels[cands] == step.label
            mask = label_ok if mask is None else mask & label_ok
        if not step.covers_all_ancestors:
            keep = self._frontier_member_mask(step, emb, cands, lengths)
            np.logical_not(keep, out=keep)
            mask = keep if mask is None else mask & keep
        if mask is None:
            return cands, offsets
        return kernels.compress_segments(cands, offsets, mask)

    def _frontier_member_mask(self, step, emb, cands, lengths) -> np.ndarray:
        """Per-element mask: candidate equals one of its own row's
        embedding vertices (the injectivity exclusions).

        Only ancestors the step does *not* connect to can match: a
        surviving candidate neighbors every depth in
        ``step.full_connected`` and no vertex neighbors itself, so the
        mask is exact on the step's survivors — all any caller keeps.
        """
        mask = np.zeros(len(cands), dtype=bool)
        connected = step.full_connected
        for j in range(emb.shape[1]):
            if j not in connected:
                mask |= cands == np.repeat(emb[:, j], lengths)
        return mask

    def _frontier_count_leaf(self, step, emb, stores, origins) -> int:
        """Batched :meth:`_count_leaf`: the whole leaf level counted in
        one pass, with per-row symmetry bounds and injectivity
        exclusions folded into the segmented count kernel."""
        c = self.counters
        bounds = (
            np.min(emb[:, list(step.upper_bounds)], axis=1)
            if step.upper_bounds
            else None
        )
        cands, offsets, ops = self._frontier_operands(
            step, emb, stores, origins
        )
        for is_intersect, d in ops[:-1]:
            cands, offsets = self._frontier_fold(
                emb, cands, offsets, is_intersect, d
            )
        lengths = np.diff(offsets)
        if ops and self._arcs is None:
            is_intersect, d = ops[-1]
            other, other_offsets = self._gather_operand(
                emb, offsets, is_intersect, d
            )
            exclude_mask = (
                None
                if step.covers_all_ancestors
                else self._frontier_member_mask(step, emb, cands, lengths)
            )
            raw, below = kernels.segmented_pair_count_below(
                cands,
                offsets,
                other,
                other_offsets,
                keyspace=self._frontier_keyspace,
                intersect=is_intersect,
                bounds=bounds,
                exclude_mask=exclude_mask,
            )
            c.candidates_checked += int(raw.sum())
            return int(below.sum())
        # The last op as an arc-map mask — or pure memo reuse, no ops
        # left — then the recursive epilogue, batched: count under the
        # bound/injectivity masks.
        if ops:
            mask = self._frontier_probe(emb, cands, lengths, *ops[-1])
            c.candidates_checked += int(np.count_nonzero(mask))
        else:
            mask = np.ones(len(cands), dtype=bool)
            c.candidates_checked += len(cands)
        if bounds is not None:
            mask &= cands < np.repeat(bounds, lengths)
        if not step.covers_all_ancestors:
            mask &= ~self._frontier_member_mask(step, emb, cands, lengths)
        return int(np.count_nonzero(mask))

    def _gather_operand(self, emb, offsets, is_intersect, d):
        """Past the arc map's size cap: gather ``N(emb[:, d])`` for a
        set operation on the segments ``offsets`` delimit, charged as
        ``len(emb)`` per-row counted merges."""
        other, other_offsets = self._gather_adjacency(emb[:, d])
        self.counters.charge_setops(
            is_intersect, int(offsets[-1]), int(other_offsets[-1]), len(emb)
        )
        return other, other_offsets

    def _gather_adjacency(self, vertices: np.ndarray):
        """Batched :meth:`_load_adjacency`: one gather for a whole
        frontier column, charged per row."""
        concat, offsets = self._work_graph.gather_neighbors(vertices)
        self.counters.charge_adjacency(len(vertices), int(offsets[-1]))
        self._elems_gathered += len(concat)
        return concat, offsets

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
        """Shared head of the recursive op chain: the memo hit (the base
        list) or the extender's adjacency list (a miss when a base was
        hinted), and the step's ops left to run on it."""
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


def mine(
    graph: CSRGraph,
    plan: ExecutionPlan,
    *,
    collect: bool = False,
    use_frontier_memo: bool = True,
) -> MiningResult:
    """Convenience wrapper: run a single-pattern plan over a graph."""
    engine = PatternAwareEngine(
        graph, plan, collect=collect, use_frontier_memo=use_frontier_memo
    )
    return engine.run()


def mine_multi(
    graph: CSRGraph, plan: MultiPlan, *, collect: bool = False
) -> MiningResult:
    """Convenience wrapper: run a multi-pattern plan over a graph."""
    return PatternAwareEngine(graph, plan, collect=collect).run()
