"""The benchmark's own span recorder (nothing imported from repro.obs).

Spans wrap each call the benchmark makes into a layer of the program:
``workload -> stage -> cell -> {load, orient, compile, construct, run,
simulate, request, ...}``.  They live in memory and are written once, as
a Chrome trace, when the run ends.  A disabled recorder hands out one
shared throwaway dict, so the untraced battery runs the same code.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class Spans:
    def __init__(self, workload: str, enabled: bool) -> None:
        self.workload = workload
        self.enabled = enabled
        self.rows: List[Dict[str, object]] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, **counts: object) -> Iterator[Dict]:
        """Time one call; yields the span's counts dict for exact counts
        known only after the call returns."""
        if not self.enabled:
            yield {}
            return
        row = {
            "id": len(self.rows),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "workload": self.workload,
            "start": time.perf_counter(),
            "end": None,
            "counts": counts,
        }
        self.rows.append(row)
        self._open.append(row["id"])
        try:
            yield counts
        finally:
            row["end"] = time.perf_counter()
            self._open.pop()

    def total(self, name: str, under: Optional[str] = None) -> float:
        """Summed duration of spans called ``name`` (optionally only
        those with an ancestor called ``under``)."""
        return sum(
            r["end"] - r["start"]
            for r in self.rows
            if r["name"] == name and (under is None or self.below(r, under))
        )

    def below(self, row: Dict, ancestor: str) -> bool:
        parent = row["parent"]
        while parent is not None:
            if self.rows[parent]["name"] == ancestor:
                return True
            parent = self.rows[parent]["parent"]
        return False

    def self_times(self) -> Dict[str, float]:
        """Per span name: duration minus the time its children cover."""
        covered = [0.0] * len(self.rows)
        for r in self.rows:
            if r["parent"] is not None:
                covered[r["parent"]] += r["end"] - r["start"]
        out: Dict[str, float] = {}
        for r in self.rows:
            own = r["end"] - r["start"] - covered[r["id"]]
            out[r["name"]] = out.get(r["name"], 0.0) + own
        return out

    def write_chrome(self, path: str) -> None:
        origin = self.rows[0]["start"] if self.rows else 0.0
        events = [
            {
                "name": r["name"],
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": (r["start"] - origin) * 1e6,
                "dur": (r["end"] - r["start"]) * 1e6,
                "args": dict(
                    r["counts"], id=r["id"], parent=r["parent"],
                    workload=r["workload"],
                ),
            }
            for r in self.rows
        ]
        with open(path, "w") as f:
            json.dump({"traceEvents": events}, f)
