"""Operation counters shared by the software engines.

The counters capture the algorithm-level work a GPM execution performs,
independent of the platform executing it.  The CPU baseline model
(``repro.bench.cpumodel``) converts them into GraphZero/AutoMine-style
runtimes; tests use them to verify optimization effects (e.g. frontier
memoization reducing ``setop_iterations``).

This module owns the merge model every engine and both simulator
tracers price a step with: a set operation costs
:func:`merge_iterations` (``len(a) + len(b)``) merge-loop iterations,
and an adjacency read one load plus 4 B per id.  The SIU/SDU busy
cycles are the same iteration count.  :meth:`OpCounters.charge_setops`
and :meth:`OpCounters.charge_adjacency` are the only writers of the
fields that model prices.  Only the reference engine
(:mod:`repro.engine.reference`) keeps its own copy of the set-op
charge, on purpose: it is the independent check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

__all__ = ["OpCounters", "merge_iterations"]

#: Bytes per vertex id in an adjacency list.
_ID_BYTES = 4


def merge_iterations(len_a, len_b):
    """Cycles the merge loop takes to combine two sorted lists: the
    worst case ``len(a) + len(b)``, for the CPU baseline and the
    SIU/SDU alike (paper Fig. 9).  Element-wise on length arrays."""
    return len_a + len_b


@dataclass
class OpCounters:
    """Work performed during one mining run."""

    #: Root vertices processed (units of coarse-grain parallelism).
    tasks: int = 0
    #: Merge-based set intersections / differences executed.
    set_intersections: int = 0
    set_differences: int = 0
    #: Total merge-loop iterations (len(a) + len(b) per operation) — the
    #: quantity SIU/SDU execute at one per cycle (paper Fig. 9).
    setop_iterations: int = 0
    #: Adjacency lists fetched and the bytes they cover (4 B per id).
    adjacency_loads: int = 0
    adjacency_bytes: int = 0
    #: Candidates examined by the pruner (bound + injectivity checks).
    candidates_checked: int = 0
    #: Frontier-list memoization hits/misses (paper §V-C).
    frontier_hits: int = 0
    frontier_misses: int = 0
    #: Pattern-oblivious work: subgraphs enumerated and isomorphism tests.
    subgraphs_enumerated: int = 0
    isomorphism_tests: int = 0
    #: Total matches found (sum over patterns).
    matches: int = 0

    def charge_setops(
        self, is_intersect: bool, len_a: int, len_b: int, ops: int = 1
    ) -> None:
        """``ops`` merge-based intersections (or differences) whose
        left and right operands total ``len_a`` and ``len_b`` ids."""
        if is_intersect:
            self.set_intersections += ops
        else:
            self.set_differences += ops
        self.setop_iterations += merge_iterations(len_a, len_b)

    def charge_adjacency(self, lists: int, ids: int) -> None:
        """``lists`` adjacency lists fetched, ``ids`` vertex ids in all."""
        self.adjacency_loads += lists
        self.adjacency_bytes += _ID_BYTES * ids

    def merge(self, other: "OpCounters") -> None:
        """Accumulate another counter set into this one."""
        for name in self.__dataclass_fields__:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def __iadd__(self, other: "OpCounters") -> "OpCounters":
        """``counters += engine.counters`` — field-wise accumulation."""
        self.merge(other)
        return self

    def diff(self, baseline: "OpCounters") -> "OpCounters":
        """Field-wise delta of this snapshot against ``baseline``.

        Engines and the metrics registry delta-compare snapshots with
        ``after.diff(before).as_dict()`` instead of hand-written loops.
        """
        out = OpCounters()
        for name in self.__dataclass_fields__:
            setattr(out, name, getattr(self, name) - getattr(baseline, name))
        return out

    def copy(self) -> "OpCounters":
        """Independent snapshot (the operand ``diff`` compares against)."""
        out = OpCounters()
        out.merge(self)
        return out

    def as_dict(self) -> Dict[str, int]:
        return {
            name: getattr(self, name) for name in self.__dataclass_fields__
        }
