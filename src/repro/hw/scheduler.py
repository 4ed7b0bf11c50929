"""Dynamic task scheduler (paper §IV-A).

The scheduler hands root-vertex tasks to idle PEs.  Because every task
is independent, the hardware policy is simply "next task to the first PE
that frees up"; the simulator realizes that with a min-heap on PE local
time.  A task's dispatch costs a NoC message (``dispatch_cycles``).

The scheduler uses the mining pool's task list:
:func:`repro.engine.order_tasks` builds the ``(root, chunk)`` tasks
both dispatch, in descending root-degree order — a standard
longest-processing-time heuristic that matches what dynamic hardware
scheduling achieves on skewed graphs (big tasks don't straggle at the
end).
"""

from __future__ import annotations

import heapq
from typing import Iterable, Sequence

from ..engine.parallel import Task, order_tasks

__all__ = ["Scheduler", "Task"]


class Scheduler:
    """Greedy earliest-available-PE task scheduler."""

    def __init__(self, pes: Sequence) -> None:
        if not pes:
            raise ValueError("scheduler needs at least one PE")
        self.pes = list(pes)
        self.tasks_dispatched = 0

    order_tasks = staticmethod(order_tasks)

    def run(self, tasks: Iterable[Task]) -> float:
        """Dispatch every task; returns the makespan in cycles."""
        heap = [(pe.time, i) for i, pe in enumerate(self.pes)]
        heapq.heapify(heap)
        for root, chunk in tasks:
            ready_time, index = heapq.heappop(heap)
            pe = self.pes[index]
            pe.execute_task(root, ready_time, chunk=chunk)
            self.tasks_dispatched += 1
            heapq.heappush(heap, (pe.time, index))
        return max(pe.time for pe in self.pes)
