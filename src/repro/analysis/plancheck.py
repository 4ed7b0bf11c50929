"""Static execution-plan verifier (``FM1xx`` diagnostics).

The differential subsystem (PR 3) proves plans *empirically*: run them
and compare against the ESU oracle.  This module proves the same
contract *statically*, in milliseconds, before anything runs:

* **FM10x** — the matching order is connected and every step's
  adjacency/exclusion constraints are exactly the pattern's edges to
  ancestor depths (AutoMine/GraphZero check the same property on their
  generated loop nests);
* **FM11x** — the symmetry order is *sound and complete* against the
  pattern's automorphism group: for every relative id-ordering of the
  pattern vertices exactly one automorphism satisfies the bounds.  More
  than one means an unbroken automorphism (double counting); zero means
  a legitimate embedding is never counted.  The check is algebraic on
  ``Pattern.automorphisms()`` — it enumerates the k! vertex orderings of
  the *pattern*, never a data graph;
* **FM12x** — the injectivity-skip flag (``covers_all_ancestors``) and
  count-only-leaf usage are legal;
* **FM13x** — DAG orientation is claimed only where it is correct
  (uniformly-labeled cliques, with symmetry bounds cleared);
* **FM14x** — frontier-memoization hints are consistent (bases exist,
  are memoized, and base+remainder reconstructs the step constraints);
* **FM15x** — c-map hints reference existing levels and fit the
  :class:`~repro.hw.config.FlexMinerConfig` the plan will run on.

``check_plan`` also attaches a static shape/cost summary (reusing
:mod:`repro.compiler.estimate` when a graph is supplied) so ``flexminer
check-plan`` doubles as a plan inspector.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

if TYPE_CHECKING:  # import cycle: hw.config pulls in the compiler
    from ..graph import CSRGraph
    from ..hw.config import FlexMinerConfig

from ..compiler.hints import cmap_needed_depths
from ..compiler.plan import ExecutionPlan, MultiPlan, PlanNode, VertexStep
from .diagnostics import AnalysisReport, register_code

__all__ = ["check_plan", "check_multi_plan", "plan_shape"]

# -- FM10x: structure and connectivity ---------------------------------
FM100 = register_code(
    "FM100", "malformed plan structure", "error",
    "rebuild the plan through compile_pattern or parse_ir",
)
FM101 = register_code(
    "FM101", "disconnected matching order", "error",
    "reorder so every vertex has a pattern edge to an earlier one",
)
FM102 = register_code(
    "FM102", "step adjacency mismatch", "error",
    "set the step's connected set to the pattern edges into ancestors",
)
FM103 = register_code(
    "FM103", "exclusion set contradicts plan semantics", "error",
    "induced plans exclude exactly the non-adjacent ancestors; "
    "edge-induced plans exclude nothing",
)
FM104 = register_code(
    "FM104", "label constraint mismatch", "error",
    "each step's label must equal the pattern label of its vertex",
)

# -- FM11x: symmetry soundness/completeness ----------------------------
FM110 = register_code(
    "FM110", "automorphism not broken (double counting)", "error",
    "add symmetry bounds until exactly one automorphism survives "
    "every id-ordering",
)
FM111 = register_code(
    "FM111", "valid embedding excluded by symmetry bounds", "error",
    "drop the over-tight bound; some id-orderings match no automorphism",
)
FM112 = register_code(
    "FM112", "symmetry_conditions and step bounds disagree", "error",
    "every (earlier, later) condition must appear as an upper bound on "
    "the later step, and vice versa",
)
FM113 = register_code(
    "FM113", "symmetry check skipped (pattern too large)", "warning",
    "the k!·|Aut| enumeration is capped; verify large plans empirically",
)

# -- FM12x: injectivity / count-only leaves ----------------------------
FM120 = register_code(
    "FM120", "injectivity-skip flag inconsistent", "error",
    "covers_all_ancestors must hold exactly when the connected set "
    "spans every ancestor depth",
)
FM121 = register_code(
    "FM121", "counting node has children", "error",
    "a pattern-completing tree node must be a leaf: the count-only "
    "path never descends past it",
)

# -- FM13x: orientation ------------------------------------------------
FM130 = register_code(
    "FM130", "orientation on a non-clique pattern", "error",
    "the degree-ordered DAG transform is only counting-safe for "
    "uniformly labeled cliques",
)
FM131 = register_code(
    "FM131", "oriented plan retains symmetry bounds", "error",
    "orientation already breaks all automorphisms; residual bounds "
    "drop valid matches",
)

# -- FM14x: frontier memoization ---------------------------------------
FM140 = register_code(
    "FM140", "frontier base is not memoized", "error",
    "mark the base step memoize_frontier (the hardware only keeps "
    "memoized lists in the frontier table)",
)
FM141 = register_code(
    "FM141", "frontier base + remainder misses step constraints", "error",
    "base constraints plus extras must reconstruct the step's full "
    "connected/disconnected sets",
)
FM142 = register_code(
    "FM142", "memoized frontier never reused", "warning",
    "clear memoize_frontier or point a later step's base_step at it",
)

# -- FM15x: c-map hints ------------------------------------------------
FM150 = register_code(
    "FM150", "c-map insert never consumed", "warning",
    "drop the insert hint; no later step checks connectivity against it",
)
FM151 = register_code(
    "FM151", "c-map hint references a nonexistent level", "error",
    "insert depths must be existing non-leaf levels and filters must "
    "reference strictly earlier depths",
)
FM152 = register_code(
    "FM152", "c-map value width cannot represent the insert depth",
    "warning",
    "every insert at this depth overflows to the SIU on this config",
)
FM153 = register_code(
    "FM153", "c-map hints on a config without a c-map", "warning",
    "the config disables the c-map; hints are dead weight",
)

# -- FM17x: batch-frontier (level-synchronous) legality ----------------
FM170 = register_code(
    "FM170", "plan is ineligible for batch-frontier execution", "info",
    "plans with no interior level (fewer than three vertices) run on "
    "the recursive path; the default batch_frontier=True does not apply",
)
FM171 = register_code(
    "FM171", "leaf shape does not reduce to one varying operand",
    "warning",
    "the recursive engine's batched leaf kernel (_count_leaf_batch) "
    "needs a single varying intersection or difference at the last "
    "level; without it the recursive path counts leaves one parent "
    "vertex at a time.  The level-synchronous walker is unaffected: "
    "it counts every leaf through _frontier_count_leaf",
)
FM172 = register_code(
    "FM172", "frontier base references a depth with no level store",
    "error",
    "level-synchronous execution keeps candidate stores for depths >= 1 "
    "only; a base_step of 0 (the root) cannot be composed and crashes "
    "the batch engine",
)
FM173 = register_code(
    "FM173", "frontier row limit cannot admit a band",
    "error",
    "frontier_row_limit must be a positive integer: it caps the "
    "estimated size of a frontier band, and only a single row whose "
    "own estimate exceeds it takes the bit-identical recursion "
    "fallback; a non-positive limit sends every row there",
)
FM174 = register_code(
    "FM174", "frontier row limit overflows the segment key space",
    "error",
    "past the arc-map size cap (num_vertices**2 > ARC_MAP_MAX_BYTES) "
    "the segmented kernels key rows as row*num_vertices+value in "
    "int64; keep frontier_row_limit * num_vertices below 2**63.  Under "
    "the cap the walker indexes the arc map instead, and those keys "
    "are bounded by num_vertices**2 <= the cap",
)
FM175 = register_code(
    "FM175", "multi-pattern plan is forced onto the recursive path",
    "info",
    "the frontier walker runs multi-pattern trees, but engines that "
    "override candidate generation (supports_leaf_counting = False: "
    "c-map, reference) keep their per-embedding hooks; on those the "
    "tree executes recursively, default batch_frontier=True included",
)

# -- FM16x: multi-plan trees -------------------------------------------
FM160 = register_code(
    "FM160", "pattern leaf coverage broken", "error",
    "each pattern index must complete at exactly one tree node",
)
FM161 = register_code(
    "FM161", "tree depth discontinuity", "error",
    "every child step must sit one depth below its parent",
)

#: ``HardwareCMap`` value-field width; ``from_config`` never overrides
#: the default, so depths at or beyond it always overflow (§VII-D).
_CMAP_VALUE_BITS = 8

#: k!·|Aut| budget for the exhaustive symmetry check.  Every named
#: library pattern (k ≤ 5) is far below it; a 6-clique (720·720) still
#: fits, beyond that FM113 reports the skip.
_SYMMETRY_BUDGET = 600_000


def plan_shape(plan: ExecutionPlan) -> Dict[str, object]:
    """Static shape summary: what the hardware will be asked to hold."""
    return {
        "levels": plan.num_levels,
        "induced": plan.induced,
        "oriented": plan.oriented,
        "symmetry_bounds": sum(len(s.upper_bounds) for s in plan.steps),
        "memoized_frontiers": sum(
            1 for s in plan.steps if s.memoize_frontier
        ),
        "frontier_reuses": sum(
            1 for s in plan.steps if s.base_step is not None
        ),
        "cmap_inserts": list(plan.cmap_insert_depths),
        "cmap_filters": {
            str(k): v for k, v in sorted(plan.cmap_insert_filter.items())
        },
    }


def _check_structure(plan: ExecutionPlan, rep: AnalysisReport) -> bool:
    """FM100: re-validate the dataclass invariants defensively.

    Construction already enforces these; a plan mutated through
    ``object.__setattr__`` (or a future deserializer bug) should still
    fail the checker, not corrupt the deeper passes.
    """
    k = plan.pattern.num_vertices
    ok = True
    if sorted(plan.matching_order) != list(range(k)):
        rep.add(
            FM100,
            f"matching_order {plan.matching_order} is not a "
            f"permutation of 0..{k - 1}",
        )
        ok = False
    if len(plan.steps) != k - 1:
        rep.add(
            FM100,
            f"expected {k - 1} steps, found {len(plan.steps)}",
        )
        ok = False
    for d, step in enumerate(plan.steps, start=1):
        if step.depth != d:
            rep.add(
                FM100,
                f"step {d} carries depth {step.depth}",
                location=f"step {d}",
            )
            ok = False
            continue
        refs = (
            (step.extender,)
            + step.connected
            + step.disconnected
            + step.upper_bounds
        )
        bad = [r for r in refs if not 0 <= r < d]
        if bad:
            rep.add(
                FM100,
                f"step {d} references non-ancestor depth(s) {bad}",
                location=f"step {d}",
            )
            ok = False
    return ok


def _check_connectivity(plan: ExecutionPlan, rep: AnalysisReport) -> None:
    pattern = plan.pattern
    order = plan.matching_order
    for step in plan.steps:
        d = step.depth
        loc = f"step {d}"
        ancestors_adj = {
            j
            for j in range(d)
            if pattern.has_edge(order[j], order[d])
        }
        if not ancestors_adj:
            rep.add(
                FM101,
                f"pattern vertex {order[d]} (depth {d}) has no edge "
                "to any ancestor",
                location=loc,
            )
            continue
        full = set(step.full_connected)
        if full != ancestors_adj:
            missing = sorted(ancestors_adj - full)
            extra = sorted(full - ancestors_adj)
            detail = []
            if missing:
                detail.append(f"missing adjacency to depth(s) {missing}")
            if extra:
                detail.append(
                    f"requires adjacency to non-adjacent depth(s) {extra}"
                )
            rep.add(FM102, "; ".join(detail), location=loc)
        expected_disc = (
            set(range(d)) - ancestors_adj if plan.induced else set()
        )
        disc = set(step.disconnected)
        if disc != expected_disc:
            rep.add(
                FM103,
                f"exclusion set {sorted(disc)} != expected "
                f"{sorted(expected_disc)} for "
                + ("induced" if plan.induced else "edge-induced")
                + " semantics",
                location=loc,
            )


def _check_labels(plan: ExecutionPlan, rep: AnalysisReport) -> None:
    pattern = plan.pattern
    order = plan.matching_order
    if plan.root_label != pattern.label(order[0]):
        rep.add(
            FM104,
            f"root_label {plan.root_label!r} != pattern label "
            f"{pattern.label(order[0])!r} of vertex {order[0]}",
            location="root",
        )
    for step in plan.steps:
        want = pattern.label(order[step.depth])
        if step.label != want:
            rep.add(
                FM104,
                f"step label {step.label!r} != pattern label {want!r} "
                f"of vertex {order[step.depth]}",
                location=f"step {step.depth}",
            )


def _bound_conditions(plan: ExecutionPlan) -> Set[Tuple[int, int]]:
    """(earlier, later) pairs the steps actually enforce."""
    return {
        (u, step.depth)
        for step in plan.steps
        for u in step.upper_bounds
    }


def _check_symmetry(plan: ExecutionPlan, rep: AnalysisReport) -> None:
    pattern = plan.pattern
    order = plan.matching_order
    enforced = _bound_conditions(plan)
    declared = set(plan.symmetry_conditions)
    if declared != enforced:
        rep.add(
            FM112,
            f"declared conditions {sorted(declared)} != step bounds "
            f"{sorted(enforced)}",
            location="symmetry",
        )

    if plan.oriented:
        uniform = len(set(pattern.labels)) == 1
        if not (pattern.is_clique() and uniform):
            rep.add(
                FM130,
                "oriented plan for a pattern that is not a uniformly "
                "labeled clique",
                location="symmetry",
            )
        if enforced or declared:
            rep.add(
                FM131,
                f"oriented plan still enforces {sorted(enforced or declared)}",
                location="symmetry",
            )
        return

    autos = pattern.automorphisms()
    k = pattern.num_vertices
    budget = len(autos) * _factorial(k)
    if budget > _SYMMETRY_BUDGET:
        rep.add(
            FM113,
            f"k!·|Aut| = {budget} exceeds the {_SYMMETRY_BUDGET} "
            "enumeration budget",
            location="symmetry",
        )
        return

    # Conditions in pattern-vertex space: (pa, pb) means the vertex
    # matched to pb must take a smaller id than the one matched to pa.
    pv_conds = [(order[a], order[b]) for a, b in enforced]
    over: Optional[Tuple[Tuple[int, ...], int]] = None
    under: Optional[Tuple[int, ...]] = None
    for ranking in itertools.permutations(range(k)):
        # ranking[v] = relative id rank the data graph hands vertex v.
        survivors = sum(
            1
            for sigma in autos
            if all(
                ranking[sigma[pb]] < ranking[sigma[pa]]
                for pa, pb in pv_conds
            )
        )
        if survivors == 0 and under is None:
            under = ranking
        elif survivors > 1 and over is None:
            over = (ranking, survivors)
        if over is not None and under is not None:
            break
    if over is not None:
        ranking, survivors = over
        rep.add(
            FM110,
            f"id-ordering {ranking} of the pattern vertices satisfies "
            f"the bounds under {survivors} automorphisms "
            f"(|Aut| = {len(autos)}); each such ordering is counted "
            f"{survivors} times",
            location="symmetry",
        )
    if under is not None:
        rep.add(
            FM111,
            f"id-ordering {under} of the pattern vertices satisfies "
            "the bounds under no automorphism; embeddings with that "
            "id-ordering are never counted",
            location="symmetry",
        )


def _factorial(n: int) -> int:
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


def _check_injectivity(plan: ExecutionPlan, rep: AnalysisReport) -> None:
    for step in plan.steps:
        expected = len(set(step.full_connected)) == step.depth
        if bool(step.covers_all_ancestors) != expected:
            rep.add(
                FM120,
                f"covers_all_ancestors={step.covers_all_ancestors} but "
                f"connected ancestors {sorted(step.full_connected)} "
                + ("span" if expected else "do not span")
                + f" all {step.depth} ancestor depth(s); the engines "
                "would "
                + ("apply a redundant" if expected else "skip the")
                + " injectivity filter",
                location=f"step {step.depth}",
            )


def _check_frontier_hints(
    plan: ExecutionPlan, rep: AnalysisReport
) -> None:
    by_depth = {s.depth: s for s in plan.steps}
    used: Set[int] = set()
    for step in plan.steps:
        if step.base_step is None:
            continue
        used.add(step.base_step)
        loc = f"step {step.depth}"
        base = by_depth.get(step.base_step)
        if base is None:
            continue  # FM100 already covers depth gaps
        if not base.memoize_frontier:
            rep.add(
                FM140,
                f"base_step {step.base_step} is not marked "
                "memoize_frontier",
                location=loc,
            )
        b_conn = set(base.full_connected)
        b_disc = set(base.disconnected)
        conn = set(step.full_connected)
        disc = set(step.disconnected)
        if not (b_conn <= conn and b_disc <= disc):
            rep.add(
                FM141,
                f"base step {step.base_step} constraints "
                f"(CA={sorted(b_conn)}, D={sorted(b_disc)}) are not a "
                f"subset of this step's (CA={sorted(conn)}, "
                f"D={sorted(disc)}); its frontier is not a candidate "
                "superset",
                location=loc,
            )
            continue
        got_conn = b_conn | set(step.extra_connected)
        got_disc = b_disc | set(step.extra_disconnected)
        if got_conn != conn or got_disc != disc:
            rep.add(
                FM141,
                f"base + remainders reconstruct (CA={sorted(got_conn)}, "
                f"D={sorted(got_disc)}) but the step requires "
                f"(CA={sorted(conn)}, D={sorted(disc)})",
                location=loc,
            )
    for step in plan.steps:
        if step.memoize_frontier and step.depth not in used:
            rep.add(
                FM142,
                "frontier is memoized but no later step composes on it",
                location=f"step {step.depth}",
            )


def _check_cmap_hints(
    plan: ExecutionPlan,
    rep: AnalysisReport,
    config: "Optional[FlexMinerConfig]" = None,
) -> None:
    k = plan.pattern.num_vertices
    # A depth's connectivity is consumed directly by a step's live c-map
    # checks, and indirectly through any frontier composed on it.
    by_depth = {s.depth: s for s in plan.steps}
    consumed: Dict[int, Set[int]] = {}
    for step in plan.steps:
        checks = set(cmap_needed_depths(step))
        base = step.base_step
        while base is not None:
            checks |= consumed.get(base, set())
            base = by_depth[base].base_step if base in by_depth else None
        consumed[step.depth] = checks
    consumers: Dict[int, List[int]] = {}
    for step in plan.steps:
        for j in consumed[step.depth]:
            consumers.setdefault(j, []).append(step.depth)

    for j in plan.cmap_insert_depths:
        loc = f"cmap insert {j}"
        if not 0 <= j < k - 1:
            rep.add(
                FM151,
                f"insert depth {j} is not a non-leaf level of a "
                f"{k}-level plan",
                location=loc,
            )
            continue
        if j not in consumers:
            rep.add(
                FM150,
                f"no step checks connectivity against depth {j}",
                location=loc,
            )
        if config is not None and j >= _CMAP_VALUE_BITS:
            rep.add(
                FM152,
                f"depth {j} >= value width {_CMAP_VALUE_BITS}",
                location=loc,
            )
    inserts = set(plan.cmap_insert_depths)
    for j, filt in plan.cmap_insert_filter.items():
        loc = f"cmap filter {j}"
        if j not in inserts:
            rep.add(
                FM151,
                f"filter for depth {j} which is never inserted",
                location=loc,
            )
        if filt is not None and not 0 <= filt < j:
            rep.add(
                FM151,
                f"filter depth {filt} is not strictly earlier than the "
                f"insert depth {j} (unknown at insert time)",
                location=loc,
            )
    if (
        config is not None
        and plan.cmap_insert_depths
        and config.cmap_entries == 0
    ):
        rep.add(
            FM153,
            "plan carries c-map insert hints but the config allocates "
            "no c-map entries",
            location="cmap",
        )


#: mirrors ``PatternAwareEngine.frontier_row_limit``'s default budget.
_FRONTIER_ROW_LIMIT_DEFAULT = 1 << 22

#: segmented kernels key (row, value) pairs as ``row*keyspace+value``
#: in int64; the proof obligation is ``limit * keyspace < 2**63``.
_SEGMENT_KEY_BITS = 63


def _resolve_row_limit(frontier_row_limit: Optional[int]) -> int:
    return (
        _FRONTIER_ROW_LIMIT_DEFAULT
        if frontier_row_limit is None
        else frontier_row_limit
    )


def _frontier_path_obligations(
    steps: Sequence[VertexStep],
    rep: AnalysisReport,
    *,
    graph: "Optional[CSRGraph]",
    limit: int,
    path: str = "",
) -> Tuple[bool, Dict[str, object], Dict[str, object]]:
    """FM172 + FM174 for one root-to-leaf chain of steps (a whole
    single-pattern plan, or one path of a multi-pattern tree; ``path``
    prefixes locations and details).  Returns ``(legal, fm172, fm174)``.
    """
    # the walker keeps a candidate store per interior depth >= 1 on the
    # current path: a base_step of 0 (the root) can never be composed
    bad_bases = [step.depth for step in steps if step.base_step == 0]
    for depth in bad_bases:
        rep.add(
            FM172,
            "base_step 0 points at the root, which has no level store "
            "in batch execution",
            location=f"{path}step {depth}",
        )
    fm172 = {
        "code": FM172,
        "status": "violated" if bad_bases else "proved",
        "detail": path
        + (
            "all frontier bases reference stored levels"
            if not bad_bases
            else f"step(s) {bad_bases} compose on the root"
        ),
    }
    if graph is None:
        status, detail = "unverified", (
            "segment-key overflow needs the graph's vertex count; "
            "pass graph= to prove it"
        )
    else:
        keyspace = max(1, graph.num_vertices)
        overflow = limit >= 1 and limit * keyspace >= 1 << _SEGMENT_KEY_BITS
        if overflow:
            rep.add(
                FM174,
                f"frontier_row_limit={limit} times keyspace "
                f"{keyspace} overflows the int64 segment keys",
                location=f"{path}batch-frontier",
            )
        status = "violated" if overflow else "proved"
        detail = (
            f"{limit} * {keyspace} {'>=' if overflow else '<'} "
            f"2**{_SEGMENT_KEY_BITS}"
        )
    fm174 = {"code": FM174, "status": status, "detail": path + detail}
    return not bad_bases and status != "violated", fm172, fm174


def _frontier_limit_obligation(
    rep: AnalysisReport, graph: "Optional[CSRGraph]", limit: int
) -> Dict[str, object]:
    """FM173: the row limit must admit a band; with a graph, also say
    whether the per-row recursion fallback is reachable on it."""
    if limit < 1:
        rep.add(
            FM173,
            f"frontier_row_limit={limit} can never admit a band; every "
            "row would take the fallback before mining anything",
            location="batch-frontier",
        )
        return {"code": FM173, "status": "violated", "detail": f"limit {limit}"}
    detail = f"row limit {limit} caps each band"
    if graph is not None:
        # a row's estimate is one extender degree or one stored segment
        # (itself a subset of an adjacency list): max degree bounds both
        top = graph.max_degree()
        detail += (
            f"; a single row can exceed it (max degree {top}), so the "
            "per-row fallback is reachable"
            if top > limit
            else f"; no row can exceed it (max degree {top}): bands only"
        )
    return {"code": FM173, "status": "proved", "detail": detail}


def _check_batch_frontier(
    plan: ExecutionPlan,
    rep: AnalysisReport,
    *,
    graph: "Optional[CSRGraph]" = None,
    frontier_row_limit: Optional[int] = None,
    batch_frontier: bool = False,
) -> None:
    """FM17x: prove (or refute) legality of ``batch_frontier=True``,
    the engine's default mode.

    Always attaches a ``data["batch_frontier"]`` proof section — the
    batch/recursive routing decision plus one entry per obligation.
    The decision-grade diagnostics (FM170/FM171) only fire when the
    caller asks for them with ``batch_frontier=True`` (here the
    parameter means "report a plan the walker will not run", not
    "which engine runs"); the hard errors (FM172-FM174) fire whenever
    the obligation is outright violated, because those plans crash or
    drift on the default engine.
    """
    leaf_depth = len(plan.steps)
    limit = _resolve_row_limit(frontier_row_limit)
    obligations: List[Dict[str, object]] = []
    reasons: List[str] = []

    eligible = leaf_depth >= 2
    if not eligible:
        reasons.append(
            f"pattern has {plan.num_levels} level(s); the batch engine "
            "needs a leaf depth of at least 2"
        )
        if batch_frontier:
            rep.add(FM170, reasons[-1], location="batch-frontier")

    shape = plan.batch_leaf_shape()
    if eligible:
        if shape is None:
            obligations.append(
                {
                    "code": FM171,
                    "status": "fallback",
                    "detail": "leaf shape does not reduce; the "
                    "recursive path counts leaves per parent vertex",
                }
            )
            if batch_frontier:
                rep.add(
                    FM171,
                    "leaf ops are not a single varying "
                    "intersection/difference; the recursive engine's "
                    "batch leaf kernel does not apply",
                    location=f"step {leaf_depth}",
                )
        else:
            obligations.append(
                {
                    "code": FM171,
                    "status": "proved",
                    "detail": f"leaf shape {shape[0]}"
                    + (
                        f" (fixed slot {shape[1]})"
                        if shape[1] is not None
                        else ""
                    ),
                }
            )

    path_ok, fm172, fm174 = _frontier_path_obligations(
        plan.steps, rep, graph=graph, limit=limit
    )
    obligations += [
        fm172, _frontier_limit_obligation(rep, graph, limit), fm174
    ]

    decision = "batch" if eligible and path_ok and limit >= 1 else "recursive"
    if decision == "recursive" and eligible:
        reasons.append("an FM17x obligation is violated")
    rep.data["batch_frontier"] = {
        "eligible": eligible,
        "decision": decision,
        "leaf_shape": (
            {"kind": shape[0], "fixed_slot": shape[1]}
            if shape is not None
            else {"kind": None, "fixed_slot": None}
        ),
        "row_limit": limit,
        "row_limit_default": frontier_row_limit is None,
        "reasons": reasons,
        "obligations": obligations,
    }


def check_plan(
    plan: ExecutionPlan,
    *,
    config: "Optional[FlexMinerConfig]" = None,
    graph: "Optional[CSRGraph]" = None,
    frontier_row_limit: Optional[int] = None,
    batch_frontier: bool = False,
) -> AnalysisReport:
    """Statically verify an execution plan; returns an
    :class:`~repro.analysis.diagnostics.AnalysisReport` whose truthiness
    is "no error-severity findings".

    ``config`` (a :class:`~repro.hw.config.FlexMinerConfig`) enables the
    capacity/width checks; ``graph`` adds per-level cardinality
    estimates from :func:`repro.compiler.estimate.estimate_plan` to the
    report's ``data`` and lets the FM17x pass prove the segment-key
    obligation.  ``frontier_row_limit`` overrides the engine-default
    row budget the FM17x proofs assume; ``batch_frontier=True`` asks
    for the FM170/FM171 routing diagnostics (the proof section in
    ``data["batch_frontier"]`` is always attached).
    """
    name = plan.pattern.name or f"pattern<{plan.pattern.num_vertices}>"
    rep = AnalysisReport(subject=f"plan:{name}")
    rep.data["shape"] = plan_shape(plan)
    if not _check_structure(plan, rep):
        return rep  # deeper passes assume well-formed indices
    _check_connectivity(plan, rep)
    _check_labels(plan, rep)
    _check_symmetry(plan, rep)
    _check_injectivity(plan, rep)
    _check_frontier_hints(plan, rep)
    _check_cmap_hints(plan, rep, config)
    _check_batch_frontier(
        plan,
        rep,
        graph=graph,
        frontier_row_limit=frontier_row_limit,
        batch_frontier=batch_frontier,
    )
    if graph is not None:
        from ..compiler.estimate import estimate_plan

        rep.data["estimate"] = [
            {
                "depth": lv.depth,
                "nodes": lv.nodes,
                "candidates_scanned": lv.candidates_scanned,
            }
            for lv in estimate_plan(plan, graph)
        ]
    return rep


def _tree_paths(root: PlanNode) -> List[Tuple[int, Tuple[VertexStep, ...]]]:
    """Every completing node as ``(pattern_index, root-to-leaf steps)``."""
    paths = []

    def walk(node: PlanNode, steps: Tuple[VertexStep, ...]) -> None:
        if node.step is not None:
            steps = steps + (node.step,)
        if node.pattern_index is not None:
            paths.append((node.pattern_index, steps))
        for child in node.children:
            walk(child, steps)

    walk(root, ())
    return paths


def check_multi_plan(
    plan: MultiPlan,
    *,
    graph: "Optional[CSRGraph]" = None,
    frontier_row_limit: Optional[int] = None,
    batch_frontier: bool = False,
    supports_leaf_counting: bool = True,
) -> AnalysisReport:
    """Structural checks for a multi-pattern dependency tree.

    The per-pattern constraint semantics live in the merged steps (each
    chain is checked when its single-pattern plan is compiled); here we
    verify the tree itself: depth continuity, one completing node per
    pattern, and that completing nodes are leaves (the count-only path
    never descends past them).  The FM17x proof section mirrors
    :func:`check_plan`'s: the frontier walker runs the tree, so every
    root-to-leaf path carries its own FM172/FM174 obligation next to
    the shared FM173 one.  ``supports_leaf_counting`` is the engine
    class attribute of the same name: engines that turn it off route
    trees recursively, which ``batch_frontier=True`` surfaces as an
    FM175 info diagnostic.
    """
    rep = AnalysisReport(subject=f"multiplan:{plan.num_patterns}-patterns")
    limit = _resolve_row_limit(frontier_row_limit)
    eligible = plan.max_depth() >= 2
    reasons: List[str] = []
    if not eligible:
        reasons.append("the tree has no interior level")
        if batch_frontier:
            rep.add(FM170, reasons[-1], location="batch-frontier")
    obligations = [_frontier_limit_obligation(rep, graph, limit)]
    legal = limit >= 1
    for index, steps in _tree_paths(plan.root):
        path_ok, fm172, fm174 = _frontier_path_obligations(
            steps, rep, graph=graph, limit=limit,
            path=f"pattern {index}: ",
        )
        legal = legal and path_ok
        obligations += [fm172, fm174]
    if eligible and not legal:
        reasons.append("an FM17x obligation is violated")
    if not supports_leaf_counting:
        reasons.append(
            "the engine overrides candidate generation "
            "(supports_leaf_counting = False)"
        )
        if batch_frontier:
            rep.add(
                FM175,
                f"{plan.num_patterns}-pattern tree executes recursively "
                "on this engine; the default batch_frontier=True does "
                "not apply",
                location="batch-frontier",
            )
    rep.data["batch_frontier"] = {
        "eligible": eligible,
        "decision": "batch"
        if eligible and legal and supports_leaf_counting
        else "recursive",
        "leaf_shape": {"kind": None, "fixed_slot": None},
        "row_limit": limit,
        "row_limit_default": frontier_row_limit is None,
        "reasons": reasons,
        "obligations": obligations,
    }
    seen: Dict[int, int] = {}

    def walk(node: PlanNode, parent_depth: int) -> None:
        if node.step is not None and node.step.depth != parent_depth + 1:
            rep.add(
                FM161,
                f"node at depth {node.step.depth} under parent at depth "
                f"{parent_depth}",
                location=f"depth {node.step.depth}",
            )
        if node.pattern_index is not None:
            seen[node.pattern_index] = seen.get(node.pattern_index, 0) + 1
            if node.children:
                rep.add(
                    FM121,
                    f"node completing pattern {node.pattern_index} has "
                    f"{len(node.children)} children",
                    location=f"pattern {node.pattern_index}",
                )
        for child in node.children:
            walk(child, node.depth)

    walk(plan.root, -1)
    for index in range(plan.num_patterns):
        hits = seen.get(index, 0)
        if hits != 1:
            rep.add(
                FM160,
                f"pattern {index} completes at {hits} node(s)",
                location=f"pattern {index}",
            )
    extra = sorted(set(seen) - set(range(plan.num_patterns)))
    if extra:
        rep.add(
            FM160,
            f"tree completes unknown pattern index(es) {extra}",
            location="tree",
        )
    return rep
