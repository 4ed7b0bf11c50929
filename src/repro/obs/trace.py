"""Structured event tracer emitting Chrome trace-event JSON.

The exported file loads directly in Perfetto (https://ui.perfetto.dev)
or ``chrome://tracing``.  Two virtual processes keep the repo's two time
domains apart:

* **pid 0 (host)** — wall-clock phases (graph load, compile, mine,
  simulate) in real microseconds since tracer creation;
* **pid 1 (accelerator)** — cycle-domain events from the simulator,
  with one trace *thread* per PE: task spans, stall/set-op/c-map
  intervals, sampled NoC/DRAM/L2 counter tracks, c-map overflow
  instants.  One simulated cycle is displayed as one microsecond.

Overhead discipline mirrors the metrics registry: hot paths hold either
``None`` or a real tracer and guard with one ``is not None`` check, and
the module-level :data:`NULL_TRACER` offers no-op structural parity for
code that wants unconditional calls.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from typing import Dict, List, Mapping, Optional, Union

__all__ = [
    "HOST_PID",
    "SIM_PID",
    "NullTracer",
    "NULL_TRACER",
    "Tracer",
    "validate_trace",
]

#: Virtual process ids for the two time domains.
HOST_PID = 0
SIM_PID = 1

Number = Union[int, float]


class NullTracer:
    """Disabled tracer: every emission is a no-op, ``enabled`` is False."""

    enabled = False
    dropped = 0
    origin_s = 0.0

    def begin(self, name, ts, **kwargs) -> None:
        pass

    def end(self, name, ts, **kwargs) -> None:
        pass

    def complete(self, name, ts, dur, **kwargs) -> None:
        pass

    def instant(self, name, ts, **kwargs) -> None:
        pass

    def counter(self, name, ts, values, **kwargs) -> None:
        pass

    def process_name(self, name, *, pid) -> None:
        pass

    def thread_name(self, name, *, pid, tid) -> None:
        pass

    def now_us(self) -> float:
        return 0.0

    def span(self, name, **kwargs):
        return NULL_SPAN

    def events(self) -> List[dict]:
        return []

    def to_dict(self) -> dict:
        return {"traceEvents": []}

    def write(self, path: str) -> None:
        pass


#: The one do-nothing span of every disabled tracer and profiler: a
#: reusable context manager costs no generator per ``with``.
NULL_SPAN = nullcontext()
NULL_TRACER = NullTracer()


class Tracer:
    """In-memory Chrome trace-event builder.

    Parameters
    ----------
    max_events:
        Hard cap on buffered events; excess emissions are counted in
        :attr:`dropped` instead of growing without bound (a runaway sim
        should degrade the trace, not the machine).
    """

    enabled = True

    def __init__(self, *, max_events: int = 1_000_000) -> None:
        self.max_events = max_events
        self.dropped = 0
        self._events: List[dict] = []
        self._meta: List[dict] = []
        self._t0 = time.perf_counter()

    @property
    def origin_s(self) -> float:
        """Absolute ``perf_counter`` stamp of the tracer's time zero.

        Lets cross-process span streams (``repro.obs.prof``) map their
        absolute timestamps onto this tracer's timeline.
        """
        return self._t0

    # ------------------------------------------------------------------
    # Clocks
    # ------------------------------------------------------------------
    def now_us(self) -> float:
        """Host wall-clock microseconds since tracer creation."""
        return (time.perf_counter() - self._t0) * 1e6

    # ------------------------------------------------------------------
    # Emission primitives (ts is caller-supplied: wall µs or cycles)
    # ------------------------------------------------------------------
    def _emit(self, event: dict) -> None:
        if len(self._events) >= self.max_events:
            self.dropped += 1
            return
        self._events.append(event)

    def begin(
        self,
        name: str,
        ts: Number,
        *,
        pid: int = HOST_PID,
        tid: int = 0,
        cat: str = "span",
        args: Optional[Mapping[str, object]] = None,
    ) -> None:
        """Open a duration span (pair with :meth:`end` on the same tid)."""
        event = {
            "name": name, "cat": cat, "ph": "B",
            "ts": float(ts), "pid": pid, "tid": tid,
        }
        if args:
            event["args"] = dict(args)
        self._emit(event)

    def end(
        self,
        name: str,
        ts: Number,
        *,
        pid: int = HOST_PID,
        tid: int = 0,
        cat: str = "span",
    ) -> None:
        """Close the innermost open span of this (pid, tid)."""
        self._emit({
            "name": name, "cat": cat, "ph": "E",
            "ts": float(ts), "pid": pid, "tid": tid,
        })

    def complete(
        self,
        name: str,
        ts: Number,
        dur: Number,
        *,
        pid: int = HOST_PID,
        tid: int = 0,
        cat: str = "span",
        args: Optional[Mapping[str, object]] = None,
    ) -> None:
        """Self-contained interval (``ph: X``): start ``ts``, length ``dur``."""
        event = {
            "name": name, "cat": cat, "ph": "X",
            "ts": float(ts), "dur": float(dur), "pid": pid, "tid": tid,
        }
        if args:
            event["args"] = dict(args)
        self._emit(event)

    def instant(
        self,
        name: str,
        ts: Number,
        *,
        pid: int = HOST_PID,
        tid: int = 0,
        cat: str = "event",
        args: Optional[Mapping[str, object]] = None,
    ) -> None:
        """Zero-duration marker (c-map overflow, schedule milestones)."""
        event = {
            "name": name, "cat": cat, "ph": "i", "s": "t",
            "ts": float(ts), "pid": pid, "tid": tid,
        }
        if args:
            event["args"] = dict(args)
        self._emit(event)

    def counter(
        self,
        name: str,
        ts: Number,
        values: Mapping[str, Number],
        *,
        pid: int = HOST_PID,
        tid: int = 0,
    ) -> None:
        """Counter track sample (``ph: C``) — NoC/DRAM/L2 time series."""
        self._emit({
            "name": name, "ph": "C", "ts": float(ts),
            "pid": pid, "tid": tid, "args": dict(values),
        })

    # ------------------------------------------------------------------
    # Metadata (names shown by the viewer's process/thread rails)
    # ------------------------------------------------------------------
    def process_name(self, name: str, *, pid: int) -> None:
        self._meta.append({
            "name": "process_name", "ph": "M", "ts": 0.0,
            "pid": pid, "tid": 0, "args": {"name": name},
        })

    def thread_name(self, name: str, *, pid: int, tid: int) -> None:
        self._meta.append({
            "name": "thread_name", "ph": "M", "ts": 0.0,
            "pid": pid, "tid": tid, "args": {"name": name},
        })

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    @contextmanager
    def span(
        self,
        name: str,
        *,
        pid: int = HOST_PID,
        tid: int = 0,
        cat: str = "phase",
        **args,
    ):
        """Wall-clock begin/end span around a ``with`` body."""
        self.begin(name, self.now_us(), pid=pid, tid=tid, cat=cat,
                   args=args or None)
        try:
            yield self
        finally:
            self.end(name, self.now_us(), pid=pid, tid=tid, cat=cat)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def events(self) -> List[dict]:
        """Metadata first, then all events stably sorted by timestamp.

        The stable sort makes timestamps globally monotonic (PE-local
        clocks are not ordered across PEs) while preserving begin-before-
        end order for same-timestamp span pairs.
        """
        return list(self._meta) + sorted(
            self._events, key=lambda e: e["ts"]
        )

    def to_dict(self) -> dict:
        return {
            "traceEvents": self.events(),
            "displayTimeUnit": "ms",
            "otherData": {
                "tool": "flexminer",
                "dropped_events": self.dropped,
            },
        }

    def to_json(self, *, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def write(self, path: str) -> None:
        """Serialize to a Chrome trace-event JSON file."""
        with open(path, "w") as f:
            json.dump(self.to_dict(), f)

    def __len__(self) -> int:
        return len(self._events) + len(self._meta)


def validate_trace(trace: Union[dict, List[dict]]) -> List[str]:
    """Structural well-formedness check for an exported trace.

    Returns a list of problems (empty means valid): non-monotonic or
    negative timestamps, ``E`` events without a matching ``B``, spans
    left open at end of trace, and events missing required fields.
    """
    events = trace.get("traceEvents", []) if isinstance(trace, dict) else trace
    problems: List[str] = []
    last_ts: Optional[float] = None
    stacks: Dict[tuple, List[str]] = {}
    for i, event in enumerate(events):
        phase = event.get("ph")
        if phase == "M":
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"event {i}: bad ts {ts!r}")
            continue
        if last_ts is not None and ts < last_ts:
            problems.append(
                f"event {i}: non-monotonic ts {ts} after {last_ts}"
            )
        last_ts = ts
        key = (event.get("pid"), event.get("tid"))
        if phase == "B":
            stacks.setdefault(key, []).append(event.get("name", ""))
        elif phase == "E":
            stack = stacks.get(key)
            if not stack:
                problems.append(
                    f"event {i}: E {event.get('name')!r} with no open span"
                )
            else:
                opened = stack.pop()
                if opened != event.get("name"):
                    problems.append(
                        f"event {i}: E {event.get('name')!r} closes "
                        f"B {opened!r}"
                    )
        elif phase == "X" and "dur" not in event:
            problems.append(f"event {i}: X without dur")
    for key, stack in stacks.items():
        for name in stack:
            problems.append(f"span {name!r} on {key} never closed")
    return problems
