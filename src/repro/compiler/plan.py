"""Execution plan data model (paper §V).

An execution plan is what the FlexMiner compiler hands to the hardware:
for each search-tree level it says which embedding vertex to extend, how
to prune candidates (vid upper bound from the symmetry order plus
connectivity constraints from the matching order), and how to manage the
on-chip memories (frontier-list memoization and c-map insertion hints).

Single-pattern problems use a :class:`ExecutionPlan` (a chain of
:class:`VertexStep`).  Multi-pattern problems (k-MC) use a
:class:`MultiPlan` whose steps form a dependency *tree* with common
prefixes merged (paper §V-B).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from ..errors import CompileError
from ..patterns import Pattern

__all__ = ["VertexStep", "ExecutionPlan", "PlanNode", "MultiPlan"]


@dataclass(frozen=True)
class VertexStep:
    """How to extend the embedding by one vertex at a given depth.

    Mirrors one line of the IR vertex section, e.g. for the 4-cycle's
    last step ``v3 ∈ v2.N pruneBy(v0.id, {v1})``:

    * ``extender = 2`` — iterate the neighbor list of the embedding
      vertex at depth 2;
    * ``upper_bounds = (0,)`` — candidate vid must be below the depth-0
      vertex's id (symmetry order);
    * ``connected = (1,)`` — candidate must also be adjacent to the
      depth-1 vertex (matching order; checked via c-map or SIU).

    All ancestor references are *depths* into the current embedding, not
    pattern vertex ids.
    """

    depth: int
    extender: int
    connected: Tuple[int, ...] = ()
    disconnected: Tuple[int, ...] = ()
    upper_bounds: Tuple[int, ...] = ()
    #: Frontier-list composition (§V-C): depth of the earlier step whose
    #: memoized raw candidate list this step starts from.  The diamond's
    #: last step has ``base_step = 2`` with empty remainders (pure reuse);
    #: a k-clique's step d has ``base_step = d-1`` and intersects the
    #: parent frontier with one more adjacency list, exactly like
    #: GraphZero's generated ``S2 = S1 ∩ N(v1)`` code.
    base_step: Optional[int] = None
    #: Constraints left to apply on top of the base frontier.
    extra_connected: Tuple[int, ...] = ()
    extra_disconnected: Tuple[int, ...] = ()
    #: True when a later step uses this step's raw list as its base, so
    #: the hardware must keep it in the frontier-list table.
    memoize_frontier: bool = False
    #: Vertex-label constraint for candidates at this step (labeled
    #: mining); None accepts any label.
    label: Optional[int] = None
    #: Derived in ``__post_init__`` (never pass it): the connected set
    #: spans every ancestor depth, so the injectivity filter is a no-op.
    covers_all_ancestors: bool = field(init=False, default=False)
    #: Derived: the step's op chain as ordered ``(is_intersect, depth)``
    #: set operations on the extender's adjacency list — ``connected``
    #: intersections, then ``disconnected`` differences — and the same
    #: chain on the memoized base list (the ``extra_*`` remainders).
    #: The engines and both simulator tracers run these tuples (the
    #: reference engine keeps its own copy, as the independent check).
    ops: Tuple[Tuple[bool, int], ...] = field(
        init=False, repr=False, default=()
    )
    memo_ops: Tuple[Tuple[bool, int], ...] = field(
        init=False, repr=False, default=()
    )

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise CompileError("steps start at depth 1")
        refs = (
            (self.extender,)
            + self.connected
            + self.disconnected
            + self.upper_bounds
        )
        for r in refs:
            if not 0 <= r < self.depth:
                raise CompileError(
                    f"step at depth {self.depth} references depth {r}"
                )
        if self.extender in self.connected:
            raise CompileError("extender is implicitly connected")
        if set(self.connected) & set(self.disconnected):
            raise CompileError("a depth cannot be both connected and not")
        if self.base_step is not None:
            if not 0 < self.base_step < self.depth:
                raise CompileError("base_step must be an earlier step depth")
            extras = set(self.extra_connected) | set(self.extra_disconnected)
            full = set(self.full_connected) | set(self.disconnected)
            if not extras <= full:
                raise CompileError("remainders must be step constraints")
        elif self.extra_connected or self.extra_disconnected:
            raise CompileError("remainders require a base_step")
        # Precomputed (the engines test this per candidate list): when
        # the connected set spans every ancestor depth, no embedding
        # vertex can be a candidate (no vertex neighbors itself), so the
        # injectivity filter is a no-op and the engine skips it.
        object.__setattr__(
            self,
            "covers_all_ancestors",
            len(self.full_connected) == self.depth,
        )
        for name, conn, disc in (
            ("ops", self.connected, self.disconnected),
            ("memo_ops", self.extra_connected, self.extra_disconnected),
        ):
            chain = tuple((True, d) for d in conn)
            chain += tuple((False, d) for d in disc)
            object.__setattr__(self, name, chain)

    @property
    def full_connected(self) -> Tuple[int, ...]:
        """Connected-ancestor set including the extender (CA of §II-B)."""
        return tuple(sorted(set(self.connected) | {self.extender}))


@dataclass(frozen=True)
class ExecutionPlan:
    """A complete single-pattern execution plan.

    Attributes
    ----------
    pattern:
        The pattern being mined.
    matching_order:
        ``matching_order[d]`` is the pattern vertex matched at depth d.
    steps:
        One :class:`VertexStep` per depth ``1..k-1``.
    induced:
        Vertex-induced semantics (k-MC) vs edge-induced (SL, cliques).
    oriented:
        True when the k-clique orientation optimization applies: the
        engine must run on the degree-ordered DAG and the symmetry bounds
        are already cleared (§V-C).
    symmetry_conditions:
        The raw partial order as (earlier_depth, later_depth) pairs
        meaning ``v[later] < v[earlier]``; kept for reporting/validation
        (each pair also appears as an upper bound on the later step).
    cmap_insert_depths:
        Depths whose new vertex's neighbors should be inserted into the
        c-map (only ancestors whose connectivity is later consumed, §VI-B).
    cmap_insert_filter:
        For each insert depth, an optional depth whose current vertex id
        upper-bounds the inserted neighbor ids (the paper's "prevent any
        v1 neighbor with VID larger than v0 from being inserted").
    """

    pattern: Pattern
    matching_order: Tuple[int, ...]
    steps: Tuple[VertexStep, ...]
    induced: bool = False
    oriented: bool = False
    #: Label constraint on the root (depth-0) vertex, for labeled mining.
    root_label: Optional[int] = None
    symmetry_conditions: Tuple[Tuple[int, int], ...] = ()
    cmap_insert_depths: Tuple[int, ...] = ()
    cmap_insert_filter: Dict[int, Optional[int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        k = self.pattern.num_vertices
        if sorted(self.matching_order) != list(range(k)):
            raise CompileError("matching_order must permute pattern vertices")
        if len(self.steps) != k - 1:
            raise CompileError(f"expected {k - 1} steps, got {len(self.steps)}")
        for d, step in enumerate(self.steps, start=1):
            if step.depth != d:
                raise CompileError("steps must be ordered by depth")

    @property
    def num_levels(self) -> int:
        return self.pattern.num_vertices

    def without_cmap(self) -> "ExecutionPlan":
        """Variant with c-map memoization disabled (no-cmap baseline)."""
        return replace(self, cmap_insert_depths=(), cmap_insert_filter={})


@dataclass
class PlanNode:
    """One node of a multi-pattern dependency tree (paper Fig. 11/Listing 2).

    ``pattern_index`` is set on the node that *completes* a pattern; the
    engine bumps that pattern's counter whenever the embedding reaches
    this node with all constraints satisfied.  Children are explored
    sequentially, exactly like the emb31/emb32 branches in Listing 2.
    """

    step: Optional[VertexStep]  # None only at the root (depth 0)
    children: List["PlanNode"] = field(default_factory=list)
    pattern_index: Optional[int] = None

    @property
    def depth(self) -> int:
        return 0 if self.step is None else self.step.depth


@dataclass
class MultiPlan:
    """Execution plan for mining several patterns simultaneously."""

    patterns: Tuple[Pattern, ...]
    root: PlanNode
    induced: bool = True
    cmap_insert_depths: Tuple[int, ...] = ()

    @property
    def num_patterns(self) -> int:
        return len(self.patterns)

    def max_depth(self) -> int:
        def walk(node: PlanNode) -> int:
            return max([node.depth] + [walk(c) for c in node.children])

        return walk(self.root)

    def leaf_count(self) -> int:
        def walk(node: PlanNode) -> int:
            own = 1 if node.pattern_index is not None else 0
            return own + sum(walk(c) for c in node.children)

        return walk(self.root)

    def node_count(self) -> int:
        def walk(node: PlanNode) -> int:
            return 1 + sum(walk(c) for c in node.children)

        return walk(self.root)
