"""Pattern-aware DFS mining engine (the GraphZero/AutoMine model).

It executes a compiled :class:`~repro.compiler.plan.ExecutionPlan` (or
multi-pattern :class:`~repro.compiler.plan.MultiPlan`) over a data graph
the way the paper's software baseline does — DFS with matching-order
candidate generation via merge-based set operations, symmetry-order vid
bounds, and frontier-list memoization — while counting every unit of
algorithmic work in an :class:`~repro.engine.counters.OpCounters`.  The
engine is the frontier walker, whose arc-map lookups are the software
vector c-map (§II-C), over a whole root set at once.  The per-embedding
recursion lives in :mod:`repro.engine.reference`: the functional
reference every path is checked against, and the simulator's reference
tracer.

The FlexMiner hardware simulator walks the same search tree (it must: the
paper stresses the accelerator has "the same algorithmic efficiency as
software"); tests assert both produce identical match counts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..compiler.plan import ExecutionPlan, MultiPlan, PlanNode, VertexStep
from ..graph.csr import CSRGraph, expand_segments
from ..graph.orientation import orient_by_degree
from ..obs import NULL_PROFILER
from . import kernels
from .counters import OpCounters

__all__ = [
    "MiningResult",
    "PatternAwareEngine",
    "filter_roots",
    "mine",
    "mine_multi",
]


def _root_array(graph, roots: Optional[Iterable[int]]) -> np.ndarray:
    """``roots`` (``None`` = every vertex) as an int64 vector; a root
    outside ``[0, num_vertices)`` raises :class:`ValueError`."""
    n = graph.num_vertices
    if roots is None:
        return np.arange(n, dtype=np.int64)
    if not isinstance(roots, (np.ndarray, range)):
        roots = list(roots)  # generators have no length for asarray
    root_arr = np.asarray(roots, dtype=np.int64)
    if len(root_arr):
        lo, hi = int(root_arr.min()), int(root_arr.max())
        if lo < 0 or hi >= n:
            bad = lo if lo < 0 else hi
            raise ValueError(
                f"root {bad} is not a vertex id (num_vertices={n})"
            )
    return root_arr


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


def _bound_column(step: VertexStep, emb: np.ndarray) -> np.ndarray:
    """Per row, the smallest upper-bound ancestor: the step's vid bound."""
    ub = step.upper_bounds
    return np.min(emb[:, list(ub)], axis=1) if len(ub) > 1 else emb[:, ub[0]]


def _excluded(step: VertexStep, width: int) -> List[int]:
    """Ancestor depths a step's survivors could equal: not the connected
    ones (no vertex neighbors itself), nor the bounds (none lies below
    itself)."""
    if step.covers_all_ancestors:
        return []
    skip = set(step.full_connected).union(step.upper_bounds)
    return [j for j in range(width) if j not in skip]


def _child_rows(emb: np.ndarray, parent: np.ndarray, newest) -> np.ndarray:
    """Row ``i`` is ``emb[parent[i]]`` extended by ``newest[i]``, filled
    in place (a ``take(out=)`` into the strided block measured slower)."""
    rows = np.empty((len(parent), emb.shape[1] + 1), dtype=np.int64)
    rows[:, :-1] = emb.take(parent, axis=0)
    rows[:, -1] = newest
    return rows


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

    The engine walks the plan tree (a chain for one pattern, the merged
    dependency tree for a ``MultiPlan``) level-synchronously over the
    whole root set: ``(n_emb, d)`` embedding matrices plus segmented
    candidate arrays, one segmented kernel per plan operation (the
    G2Miner formulation), cut into row bands of bounded estimated size,
    each band's subtree run to completion before the next, so memory
    stays bounded however wide a level is.  Only a step's first operand
    is gathered; every further set operation is a lookup in the work
    graph's :meth:`~repro.graph.CSRGraph.arc_map` (the software c-map)
    on graphs of up to 4096 vertices, a second gather and a keyed binary
    search past that (the overflow -> SIU/SDU fallback), with identical
    charges.  A step with no set operation gathers only each row's
    prefix below its bound, and nothing at a count-only leaf: a rank in
    :meth:`~repro.graph.CSRGraph.arc_keys` (the pruner's bound cut).
    Every charge is a closed-form sum over rows, so counts and counters
    do not depend on the banding.

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
    frontier_row_limit:
        Per-band memory ceiling, at least 1: bands never exceed this
        many estimated elements (nor the engine's smaller built-in
        band size) unless a *single* row's own expansion estimate
        (extender degree / memoized segment length) does; that row
        runs as a one-row band, and its child level is cut into bands
        again.  Banding is charge-identical, so the limit only trades
        speed for memory.
    profiler:
        Optional :class:`repro.obs.PhaseProfiler`, the run's one
        observability handle: ``run()`` is its ``mine`` phase, traced
        into ``profiler.tracer`` (``PhaseProfiler(tracer=T,
        enabled=False)`` traces without attributing).  Never changes
        counts or counters.
    batch_frontier:
        Accepted and ignored; ROADMAP item 1a deletes it.
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
        profiler=None,
    ) -> None:
        self.graph = graph
        self.plan = plan
        self.collect = collect
        self.use_frontier_memo = use_frontier_memo
        if frontier_row_limit < 1:
            raise ValueError(
                f"frontier_row_limit={frontier_row_limit} can never admit "
                "a band; it must be at least 1"
            )
        self.frontier_row_limit = frontier_row_limit
        self.profiler = profiler if profiler is not None else NULL_PROFILER
        self.counters = OpCounters()
        self._multi = isinstance(plan, MultiPlan)
        oriented = (not self._multi) and plan.oriented
        # The graph the plan walks: the cached DAG for oriented plans,
        # else the bare topology (a LabeledGraph's, without delegation).
        self._work_graph = (
            orient_by_degree(graph) if oriented
            else getattr(graph, "graph", graph)
        )
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
        #: One slot per depth: the level stores base-step composition
        #: reads (the frontier-list table, §V-C).
        self._slots = 1 + (
            plan.max_depth() if self._multi else plan.num_levels - 1
        )
        self._chunk: Optional[Tuple[int, int]] = None
        self._tree = plan.root if self._multi else _chain_tree(plan)
        self._frontier_keyspace = max(1, self._work_graph.num_vertices)
        self._frontier_rows = 0
        #: Per depth: rows kept after the filter and candidates checked.
        self._level_rows = [0] * self._slots
        self._level_checked = [0] * self._slots
        self._frontier_peak = 0
        self._frontier_fallbacks = 0
        self._frontier_bands = 0
        self._elems_gathered = 0
        self._arc_probes = 0
        #: The work graph's arc map, fetched by the first frontier walk;
        #: None past the size cap.
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
        with self.profiler.phase(
            "mine", engine=type(self).__name__, patterns=self._num_patterns
        ):
            self.run_roots(roots)
        self.counters.matches = sum(self._counts)
        return MiningResult(
            counts=tuple(self._counts),
            counters=self.counters,
            embeddings=self._embeddings if self.collect else None,
        )

    def run_roots(self, roots: Optional[Iterable[int]] = None) -> None:
        """Process the search subtrees of a *set* of roots as one unit.

        The task shape of :meth:`run` and pool workers: the set seeds a
        single ``(n_roots, 1)`` matrix, so the walker cuts full-sized
        bands across roots (the G2Miner formulation).
        """
        if self._chunk is not None:
            # _frontier_child slices depth 1 by the chunk, which only
            # means something under a single root.
            raise ValueError("a root set cannot run under a task chunk")
        root_arr = _root_array(self._work_graph, roots)
        if len(root_arr):
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
        self._mine_frontier(np.array([v0], dtype=np.int64))
        self._chunk = None

    def frontier_stats(self) -> Dict[str, int]:
        """Walker telemetry: rows expanded across all interior plan
        nodes, the number of row bands run, the widest *band* (rows),
        how many single rows exceeded ``frontier_row_limit`` and ran as
        one-row bands (``fallbacks``) — and the host's real traffic
        next to the ``OpCounters`` model charge: elements the walker
        materialized (adjacency gathers + memo re-gathers) and elements
        the arc map answered instead.  A pool publishes them as
        ``engine.frontier.*`` gauges once a band ran."""
        return {
            "rows_expanded": self._frontier_rows,
            "bands": self._frontier_bands,
            "peak_width": self._frontier_peak,
            "fallbacks": self._frontier_fallbacks,
            "elems_gathered": self._elems_gathered,
            "arc_probes": self._arc_probes,
        }

    def level_stats(self) -> List[Tuple[int, int]]:
        """Per depth (the index; 0, the roots, reads zeros): the rows
        kept after the filter (a count-only leaf's count) and the
        ``candidates_checked`` charged there."""
        return list(zip(self._level_rows, self._level_checked))

    def _leaf_countable(self, step: VertexStep) -> bool:
        """A walker leaf level can skip materialization unless the
        caller needs embeddings, the step carries a label filter
        (label lookups need the candidate values) or a task chunk
        slices it (a 2-vertex plan's leaf is depth 1)."""
        return (
            not self.collect
            and step.label is None
            and not (step.depth == 1 and self._chunk is not None)
        )

    # ------------------------------------------------------------------
    # Level-synchronous frontier execution (the walker)
    # ------------------------------------------------------------------
    def _mine_frontier(self, roots: np.ndarray) -> None:
        """Walk the whole plan tree from a column of root vertices (a
        root set for :meth:`run_roots`, one for a chunked task)."""
        self._arcs = self._work_graph.arc_map()
        stores, origins = [None] * self._slots, [None] * self._slots
        self._walk_frontier(self._tree, roots[:, None], stores, origins)

    def _walk_frontier(self, node: PlanNode, emb, stores, origins) -> None:
        """Run ``node``'s subtree over a frontier of partial embeddings.

        The frontier at depth ``d`` is an ``(n_emb, d)`` embedding
        matrix; each child step gathers every row's operand adjacency
        lists into one segmented array and runs the segmented kernels
        once per plan operation instead of once per embedding.  Raw
        candidate lists are kept per depth (``stores``) with a
        row→segment map (``origins``) so deeper steps' frontier-memo
        composition reads the same arrays the recursion's frontier-list
        table would have held.  The recursion here is over *plan
        nodes*: rows are cut into contiguous bands of bounded estimated
        size and each band finishes its whole subtree before the next
        starts, so a band is just ``emb[lo:hi]`` + ``origins[t][lo:hi]``
        over the shared stores.  A single row over
        ``frontier_row_limit`` runs as a one-row band whose child level
        is cut into bands in turn.  Counts and counters are
        bit-identical to the per-embedding recursion
        (:mod:`repro.engine.reference`) — every charge below is the
        closed-form sum of the per-embedding charges.
        """
        estimates = self._frontier_estimates(node, emb, stores, origins)
        limit = self.frontier_row_limit
        for lo, hi in _cut_bands(estimates, min(_FRONTIER_BAND_ELEMS, limit)):
            if hi - lo == 1 and estimates[lo] > limit:
                self._frontier_fallbacks += 1
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
        checked = self.counters.candidates_checked
        if index is not None and self._leaf_countable(step):
            kept = self._frontier_leaf_count(step, emb, stores, origins)
        else:
            raw = self._frontier_raw(step, emb, stores, origins)
            f_concat, f_offsets = self._frontier_filter(
                step, emb, *raw, ranked=self._ranked(step)
            )
            if step.depth == 1 and self._chunk is not None:
                part, total = self._chunk
                f_concat = np.array_split(f_concat, total)[part]
                f_offsets = np.array([0, len(f_concat)], dtype=np.int64)
            kept = len(f_concat)
        self._level_rows[step.depth] += kept
        self._level_checked[step.depth] += (
            self.counters.candidates_checked - checked
        )
        if index is None:
            self._frontier_rows += kept
        else:
            self._counts[index] += kept
        if kept == 0 or (index is not None and not self.collect):
            return
        parent = kernels.segment_ids(f_offsets)
        rows = _child_rows(emb, parent, f_concat)
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
        are charged, so banding stays bit-identical."""
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

    def _frontier_operands(self, step, emb, stores, origins):
        """The starting segmented candidate arrays plus the step's op
        chain, with the same frontier-hit/miss and adjacency charges the
        per-embedding recursion makes."""
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
        hit = self._arcs.take(keys)
        return hit if is_intersect else np.logical_not(hit, out=hit)

    def _frontier_fold(self, emb, cands, offsets, is_intersect, d):
        """One segmented set operation over the whole frontier, charged
        exactly like ``len(emb)`` per-row counted ops: an arc-map probe,
        or past the map's size cap a gather + keyed binary search."""
        if self._arcs is not None:
            keep = self._frontier_probe(
                emb, cands, offsets[1:] - offsets[:-1], is_intersect, d
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
        """A step's unbounded candidate sets: one segmented op per plan
        operation instead of one per embedding row.  A ranked step's are
        each row's prefix of ``N(v_e)`` below the bound, the only
        elements gathered (never a memo base, so no store is cut)."""
        if self._ranked(step):
            starts, ranks, _ = self._frontier_ranks(step, emb)
            positions, offsets = expand_segments(starts, ranks)
            self._elems_gathered += len(positions)
            return self._work_graph.indices.take(positions), offsets
        cands, offsets, ops = self._frontier_operands(
            step, emb, stores, origins
        )
        for is_intersect, d in ops:
            cands, offsets = self._frontier_fold(
                emb, cands, offsets, is_intersect, d
            )
        return cands, offsets

    def _frontier_filter(self, step, emb, cands, offsets, *, ranked=False):
        """Bound cut, label filter, and injectivity as per-element masks
        over the segmented candidate array (a ``ranked`` prefix is
        charged and cut at the bound already)."""
        if not ranked:
            self.counters.candidates_checked += len(cands)
        mask = None
        if step.label is not None:
            mask = self._labels[cands] == step.label
        mask = self._frontier_cut(
            step, emb, cands, offsets[1:] - offsets[:-1], mask,
            bounded=not ranked,
        )
        if mask is None:
            return cands, offsets
        return kernels.compress_segments(cands, offsets, mask)

    def _frontier_cut(self, step, emb, cands, lengths, mask, bounded=True):
        """``mask`` (``None``: all) ANDed in place with the symmetry
        bound (below every upper-bound column, unless not ``bounded``)
        and the injectivity exclusions (unequal to the :func:`_excluded`
        ancestors), exact on the step's survivors — all any caller
        keeps.  Comparands are spread in the candidates' dtype: a
        mixed-dtype compare casts every element (3-4x slower).
        """
        columns = []
        if step.upper_bounds and bounded:
            columns.append((np.less, _bound_column(step, emb)))
        columns += [
            (np.not_equal, emb[:, j]) for j in _excluded(step, emb.shape[1])
        ]
        for compare, column in columns:
            spread = column.astype(cands.dtype, copy=False).repeat(lengths)
            hit = compare(cands, spread)
            mask = hit if mask is None else np.logical_and(mask, hit, out=mask)
        return mask

    def _ranked(self, step: VertexStep) -> bool:
        """The step reads ``N(v_e)`` and runs no set operation on it, so
        each row's survivors lie in the prefix below its bound: a rank,
        one binary search in :meth:`~repro.graph.CSRGraph.arc_keys`."""
        return not (
            step.ops
            or step.memoize_frontier
            or (self.use_frontier_memo and step.base_step is not None)
        )

    def _frontier_ranks(self, step, emb):
        """Per row of a ranked step: where ``N(v_e)`` starts in
        ``indices``, how many of its elements lie below the bound (the
        degree when unbounded) and the bound column (``None``).  Charged
        as the whole lists: adjacency reads, checks and memo misses."""
        graph, ext = self._work_graph, emb[:, step.extender]
        starts, degrees = graph.indptr[ext], graph.degrees()[ext]
        total = int(degrees.sum())
        self.counters.charge_adjacency(len(emb), total)
        self.counters.candidates_checked += total
        if step.base_step is not None:
            self.counters.frontier_misses += len(emb)
        if not step.upper_bounds:
            return starts, degrees, None
        bound = _bound_column(step, emb)
        keys = ext * self._frontier_keyspace + bound
        return starts, graph.arc_keys().searchsorted(keys) - starts, bound

    def _frontier_leaf_count(self, step, emb, stores, origins) -> int:
        """A leaf level counted in one pass without materializing it.

        A ranked leaf gathers nothing: per row, the rank of the bound in
        ``N(v_e)`` (the degree when unbounded) less each excluded
        ancestor in ``N(v_e)`` below the bound (an arc-map load, or a
        keyed search past the cap).  Any other leaf folds its last set
        operation, the per-row symmetry bounds and the injectivity
        exclusions into one segmented count."""
        c = self.counters
        if self._ranked(step):
            _, ranks, bound = self._frontier_ranks(step, emb)
            count = int(ranks.sum())
            row = emb[:, step.extender] * self._frontier_keyspace
            for j in _excluded(step, emb.shape[1]):
                keys = row + emb[:, j]
                hit = (
                    kernels.members_mask(keys, self._work_graph.arc_keys())
                    if self._arcs is None else self._arcs.take(keys)
                )
                if bound is not None:
                    hit &= emb[:, j] < bound
                count -= int(np.count_nonzero(hit))
            return count
        cands, offsets, ops = self._frontier_operands(
            step, emb, stores, origins
        )
        for is_intersect, d in ops[:-1]:
            cands, offsets = self._frontier_fold(
                emb, cands, offsets, is_intersect, d
            )
        lengths = offsets[1:] - offsets[:-1]
        if ops and self._arcs is None:
            is_intersect, d = ops[-1]
            other, other_offsets = self._gather_operand(
                emb, offsets, is_intersect, d
            )
            keep = self._frontier_cut(step, emb, cands, lengths, None)
            raw, below = kernels.segmented_pair_count_below(
                cands,
                offsets,
                other,
                other_offsets,
                keyspace=self._frontier_keyspace,
                intersect=is_intersect,
                exclude_mask=None if keep is None else ~keep,
            )
            c.candidates_checked += int(raw.sum())
            return int(below.sum())
        # The last op as an arc-map mask — or pure memo reuse, no ops
        # left (a ranked leaf never gets here) — then the per-embedding
        # epilogue, batched: count under the bound/injectivity masks.
        mask = None
        if ops:
            mask = self._frontier_probe(emb, cands, lengths, *ops[-1])
            c.candidates_checked += int(np.count_nonzero(mask))
        else:
            c.candidates_checked += len(cands)
        mask = self._frontier_cut(step, emb, cands, lengths, mask)
        return len(cands) if mask is None else int(np.count_nonzero(mask))

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
        """One gather for a whole frontier column, charged per row."""
        concat, offsets = self._work_graph.gather_neighbors(vertices)
        self.counters.charge_adjacency(len(vertices), int(offsets[-1]))
        self._elems_gathered += len(concat)
        return concat, offsets


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
