"""The two cells where the frontier engine used to fall off a cliff.

Before the banded walker, one level of these runs passed
``frontier_row_limit`` and the whole frontier finished row by row
through the recursion fallback, 1.2-2x *slower* than plain recursion
(benchmarks/e2e/README.md, "Findings").  Bands keep every level under
the limit, so the fallback must not engage and the frontier engine must
win.  Asserted as an ordering (best of 3 each), never as a wall-clock
number.
"""

import time

import pytest

from repro.compiler import compile_pattern
from repro.engine import PatternAwareEngine
from repro.graph import erdos_renyi, rmat
from repro.patterns import four_cycle, k_clique

CELLS = {
    "rmat(12,24)/4-CL": (lambda: rmat(12, 24, seed=1), k_clique(4)),
    "erdos_renyi(2048,24/n)/4-cycle": (
        lambda: erdos_renyi(2048, 24 / 2048, seed=1), four_cycle(),
    ),
}


def best_of_3(graph, plan, **options):
    best = float("inf")
    for _ in range(3):
        engine = PatternAwareEngine(graph, plan, **options)
        start = time.perf_counter()
        result = engine.run()
        best = min(best, time.perf_counter() - start)
    return best, result, engine


@pytest.mark.parametrize("cell", list(CELLS))
def test_frontier_beats_recursion_without_fallback(cell):
    make_graph, pattern = CELLS[cell]
    graph, plan = make_graph(), compile_pattern(pattern)
    recursive_s, recursive, _ = best_of_3(
        graph, plan, batch_frontier=False
    )
    frontier_s, frontier, engine = best_of_3(
        graph, plan, batch_frontier=True
    )
    assert frontier.counts == recursive.counts
    assert frontier.counters == recursive.counters
    assert engine.frontier_stats()["fallbacks"] == 0
    print(
        f"\n{cell}: recursive {recursive_s:.3f} s, "
        f"frontier {frontier_s:.3f} s, {engine.frontier_stats()}"
    )
    assert frontier_s < recursive_s
