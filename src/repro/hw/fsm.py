"""The iterative extender finite-state machine (paper Fig. 10).

"Pattern-aware software solutions use recursion, which is not suitable
for direct implementation in hardware.  Instead, FlexMiner uses the
iterative execution model ... implemented using a simple finite state
machine."

This module implements that FSM literally: three states (IDLE,
EXTENDING, ITERATING_EDGES), a depth counter, the ancestor stack ``emb``
and per-depth candidate-index registers.  It is the architectural
reference for the PE control logic; the timing simulator's PE walks the
same tree via the verified recursive engine, and the test suite asserts
this FSM produces identical counts — demonstrating the recursion ⇄ FSM
equivalence the paper relies on.

Only single-pattern plans are handled here, matching Fig. 10's caption
("single-pattern"); the multi-pattern control flow adds the embedding
section's dependency tree (§V-D).
"""

from __future__ import annotations

import enum
from typing import List, Optional

import numpy as np

from ..compiler.plan import ExecutionPlan
from ..engine.setops import bound_below, difference, intersect, remove_values
from ..graph.csr import CSRGraph
from ..graph.orientation import orient_by_degree

__all__ = ["PEState", "ExtenderFSM"]


class PEState(enum.Enum):
    """Fig. 10 runtime states."""

    IDLE = "idle"
    EXTENDING = "extending"
    ITERATING_EDGES = "iterating_edges"


class ExtenderFSM:
    """Iterative DFS walker over the subgraph search tree.

    Drive it with :meth:`run_task` per root vertex, or :meth:`run` for
    the whole graph.  ``matches`` accumulates the reduction result (the
    paper's reducer uses ``+``).
    """

    def __init__(self, graph: CSRGraph, plan: ExecutionPlan) -> None:
        self.graph = graph
        self.plan = plan
        self._work_graph = (
            orient_by_degree(graph) if plan.oriented else graph
        )
        self.state = PEState.IDLE
        self.matches = 0
        #: Per-depth candidate lists and iteration indices — the
        #: "registers to hold the current vertex being extended and the
        #: index of edge used for extension".
        self._candidates: List[Optional[np.ndarray]] = []
        self._index: List[int] = []
        self._raw: List[Optional[np.ndarray]] = []
        self._emb: List[int] = []

    # ------------------------------------------------------------------
    def run(self) -> int:
        """Mine every root vertex; returns the total match count."""
        for v in self._work_graph.vertices():
            self.run_task(int(v))
        return self.matches

    def run_task(self, v_init: int) -> None:
        """Fig. 10 control flow for one scheduler-assigned task."""
        k = self.plan.num_levels
        # Reset the per-task registers.
        self._emb = [v_init]
        self._candidates = [None] * k
        self._index = [0] * k
        self._raw = [None] * k
        depth = 1
        self.state = PEState.EXTENDING

        while self.state is not PEState.IDLE:
            if self.state is PEState.EXTENDING:
                if depth == k:
                    # Match found in the stack; count and backtrack.
                    self.matches += 1
                    self._emb.pop()
                    depth -= 1
                    self.state = PEState.ITERATING_EDGES
                else:
                    self._candidates[depth] = self._compute_candidates(
                        depth
                    )
                    self._index[depth] = 0
                    self.state = PEState.ITERATING_EDGES
            else:  # ITERATING_EDGES
                cands = self._candidates[depth]
                i = self._index[depth]
                if cands is None or i >= len(cands):
                    # End of the neighbor list: backtrack.
                    if depth == 1:
                        self.state = PEState.IDLE
                    else:
                        depth -= 1
                        self._emb.pop()
                    continue
                self._index[depth] = i + 1
                candidate = int(cands[i])
                # The pruner already filtered candidates when the list
                # was produced; push and descend.
                self._emb.append(candidate)
                depth += 1
                self.state = PEState.EXTENDING

    # ------------------------------------------------------------------
    def _compute_candidates(self, depth: int) -> np.ndarray:
        """Pruner output for one step (bounds + connectivity checks)."""
        step = self.plan.step_at(depth)
        if step.base_step is not None:
            cands = self._raw[step.base_step]
            for d in step.extra_connected:
                cands = intersect(cands, self._adj(self._emb[d]))
            for d in step.extra_disconnected:
                cands = difference(cands, self._adj(self._emb[d]))
        else:
            cands = self._adj(self._emb[step.extender])
            for d in step.connected:
                cands = intersect(cands, self._adj(self._emb[d]))
            for d in step.disconnected:
                cands = difference(cands, self._adj(self._emb[d]))
        self._raw[depth] = cands
        if step.upper_bounds:
            bound = min(self._emb[b] for b in step.upper_bounds)
            cands = bound_below(cands, bound)
        return remove_values(cands, self._emb)

    def _adj(self, v: int) -> np.ndarray:
        return self._work_graph.neighbors(v)
