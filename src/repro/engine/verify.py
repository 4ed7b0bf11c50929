"""Cross-validation helpers (DESIGN.md §7).

Every mining path in the repository — the pattern-aware engine, the
software c-map engine, the pattern-oblivious baseline, and the hardware
simulator — must agree on match counts, and those counts must agree with
a networkx-free brute-force enumerator on small graphs.  These helpers
centralize that checking for tests and for users validating their own
patterns.

For the full backend matrix (count-only kernels, the reference engine,
the worker pool, the service, the simulator), the oracle, seeded
fuzzing, and shrinking, see the dedicated :mod:`repro.verify` subsystem
— this module keeps the light in-process engine checks.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..compiler.compiler import compile_pattern
from ..graph.csr import CSRGraph
from ..patterns import Pattern, brute_force_count
from .cmap_sw import CMapSoftwareEngine
from .explore import PatternAwareEngine
from .oblivious import ObliviousEngine
from .reference import ReferenceEngine

__all__ = ["count_all_ways", "check_consistency"]


def count_all_ways(
    graph: CSRGraph,
    pattern: Pattern,
    *,
    induced: bool = False,
    include_brute_force: bool = True,
    max_subgraphs: Optional[int] = None,
) -> Dict[str, int]:
    """Count matches via every available execution path.

    Returns a dict mapping path name to count.  Intended for small
    graphs; the brute-force entry is skipped when
    ``include_brute_force=False``.
    """
    plan = compile_pattern(pattern, induced=induced)
    # The count-only probe kernels live on the recursive leaf path.
    probe = PatternAwareEngine(graph, plan, batch_frontier=False)
    probe.leaf_count_min_work = 0  # force them below their threshold
    results = {
        "pattern_aware": PatternAwareEngine(graph, plan).run().counts[0],
        "reference": ReferenceEngine(graph, plan).run().counts[0],
        "pattern_aware_probe": probe.run().counts[0],
        "cmap_software": CMapSoftwareEngine(graph, plan).run().counts[0],
        "oblivious": ObliviousEngine(
            graph, [pattern], induced=induced, max_subgraphs=max_subgraphs
        )
        .run()
        .counts[0],
    }
    if not plan.oriented:
        unoriented = plan  # already symmetry-ordered
        no_memo = PatternAwareEngine(
            graph, unoriented, use_frontier_memo=False
        )
        results["pattern_aware_no_memo"] = no_memo.run().counts[0]
    if include_brute_force:
        results["brute_force"] = brute_force_count(
            graph, pattern, induced=induced
        )
    return results


def check_consistency(
    graph: CSRGraph,
    pattern: Pattern,
    *,
    induced: bool = False,
    include_brute_force: bool = True,
) -> int:
    """Assert all execution paths agree; return the agreed count."""
    results = count_all_ways(
        graph,
        pattern,
        induced=induced,
        include_brute_force=include_brute_force,
    )
    values = set(results.values())
    if len(values) != 1:
        raise AssertionError(
            f"count mismatch for {pattern.name or pattern!r} on "
            f"{graph.name or graph!r}: {results}"
        )
    return values.pop()
