"""Cross-process profiling: phase attribution and worker trace lanes.

``repro.obs.trace`` stops at the process boundary — the parent's tracer
sees a single opaque ``mine`` phase while the interesting time
(shared-memory attach, queue waits, per-task mining, counter merges)
happens inside worker processes.  This module closes that gap with two
cooperating pieces:

* :class:`LaneRecorder` — a tiny picklable span recorder a *worker*
  process fills with ``(name, t0, t1, cat, args)`` tuples stamped with
  absolute ``time.perf_counter()`` values.  On Linux ``perf_counter`` is
  ``CLOCK_MONOTONIC``, which is machine-wide, so spans recorded in a
  forked child land on the same timeline as the parent's tracer.

* :class:`PhaseProfiler` — the parent-side aggregator.  It attributes
  wall time (``perf_counter``), CPU time (``process_time``) and peak RSS
  to named phases (setup / compile / mine / merge …), deterministically
  merges worker span streams into one Chrome trace with **one lane per
  worker plus a coordinator lane** (virtual process
  :data:`WORKERS_PID`), and renders a utilization timeline plus a
  percentage breakdown for ``flexminer profile``.

Profiling is strictly opt-in and carries the same zero-drift guarantee
as the rest of ``repro.obs``: enabling it never changes mined counts,
op counters or simulated reports — a test pins this at every worker
count.  Disabled profilers (``enabled=False`` or the module-level
:data:`NULL_PROFILER`) cost one attribute check per call site.

Determinism contract for merged traces: event *names*, categories and
args are pure functions of the task set — never of worker ids, wall
time or scheduling order.  Worker identity lives only in the lane
(``tid``), which :func:`trace_event_set` strips, so the normalized
event set of a merged trace is identical across worker counts and
across repeated runs (timestamps aside).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Tuple,
    Union,
)

from .trace import NULL_SPAN, NULL_TRACER

__all__ = [
    "WORKERS_PID",
    "LaneRecorder",
    "NULL_PROFILER",
    "NullProfiler",
    "PhaseProfiler",
    "PhaseRecord",
    "event_key",
    "slice_label",
    "task_label",
    "trace_event_set",
]

#: Virtual trace process for the wall-clock worker lanes (pid 0 is the
#: host, pid 1 the accelerator's cycle domain — see ``repro.obs.trace``).
WORKERS_PID = 2

#: Span args whose values are timing-dependent; :func:`event_key` drops
#: them so normalized event sets stay run-invariant.
VOLATILE_ARGS = frozenset(
    {"seconds", "wall_ms", "busy_seconds", "queue_wait_seconds"}
)

#: One recorded worker span: (name, t0_s, t1_s, cat, args-or-None).
Span = Tuple[str, float, float, str, Optional[Dict[str, object]]]


def _peak_rss_kb() -> int:
    """Peak resident set size of this process in KiB (0 if unknown)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB; macOS reports bytes.
    import sys

    if sys.platform == "darwin":  # pragma: no cover - platform specific
        return int(usage) // 1024
    return int(usage)


class LaneRecorder:
    """Span recorder for one worker process (picklable payload).

    Workers cannot hold the parent's tracer, so they append raw spans
    here and ship :attr:`spans` back over the result queue; the parent's
    :meth:`PhaseProfiler.add_lane` replays them into a trace lane.

    Also the one sanctioned wall-clock source inside ``engine/`` and
    ``hw/`` (fmlint FM206): busy/queue-wait accounting reads back out of
    the recorded spans via :meth:`total`, so timing cannot bypass the
    profile.

    ``clock`` injects an alternative monotonic clock (a zero-argument
    callable returning seconds).  Tests use a fake stepped clock to pin
    calibration arithmetic without depending on wall time on loaded CI
    boxes; only the recorded spans — never the recorder or its clock —
    cross process boundaries, so any callable works.
    """

    __slots__ = ("spans", "_clock")

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self.spans: List[Span] = []
        self._clock = clock if clock is not None else time.perf_counter

    @contextmanager
    def span(self, name: str, *, cat: str = "lane", **args):
        """Record one wall-clock span around a ``with`` body."""
        t0 = self._clock()
        try:
            yield
        finally:
            self.spans.append(
                (name, t0, self._clock(), cat, dict(args) or None)
            )

    def total(self, cat: str) -> float:
        """Summed duration (seconds) of every span in category ``cat``."""
        return sum(t1 - t0 for _, t0, t1, c, _a in self.spans if c == cat)

    def count(self, cat: str) -> int:
        """Number of recorded spans in category ``cat``."""
        return sum(1 for s in self.spans if s[3] == cat)

    def durations(self, cat: str) -> List[float]:
        """Per-span durations (seconds) of category ``cat``, in order."""
        return [t1 - t0 for _, t0, t1, c, _a in self.spans if c == cat]

    def __len__(self) -> int:
        return len(self.spans)


def task_label(root: int, chunk: Optional[Tuple[int, int]] = None) -> str:
    """Deterministic span name for one (root, chunk) task unit."""
    if chunk is None:
        return f"task v{int(root)}"
    return f"task v{int(root)} [{int(chunk[0])}/{int(chunk[1])}]"


def slice_label(roots) -> str:
    """Deterministic span name for one root-slice task unit: first
    root, last root and size of a contiguous run of the task order."""
    return f"tasks v{int(roots[0])}..v{int(roots[-1])} x{len(roots)}"


@dataclass
class PhaseRecord:
    """One completed profiler phase."""

    name: str
    start_s: float  #: seconds since profiler creation
    wall_s: float
    cpu_s: float
    peak_rss_kb: int
    depth: int  #: nesting depth (0 = top level, counted for coverage)
    args: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "name": self.name,
            "start_s": self.start_s,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "peak_rss_kb": self.peak_rss_kb,
            "depth": self.depth,
        }
        if self.args:
            out["args"] = dict(self.args)
        return out


class NullProfiler:
    """Disabled profiler: every method is a no-op, ``enabled`` is False."""

    enabled = False
    tracer = NULL_TRACER

    def phase(self, name, **args):
        return NULL_SPAN

    def lane_span(self, name, *, tid=0, cat="lane", **args):
        return NULL_SPAN

    def init_lanes(self, workers, *, title="parallel workers") -> None:
        pass

    def add_lane(self, worker_id, spans) -> None:
        pass

    def phases(self) -> List[PhaseRecord]:
        return []

    def as_dict(self) -> Dict[str, object]:
        return {"enabled": False, "phases": []}

    def table(self) -> str:
        return "(profiling disabled)"

    def timeline(self, width: int = 60) -> str:
        return "(profiling disabled)"


NULL_PROFILER = NullProfiler()


class PhaseProfiler:
    """Parent-side phase attribution plus worker-lane trace merging.

    Parameters
    ----------
    tracer:
        Optional :class:`repro.obs.Tracer`.  When given, every phase is
        mirrored as a host span (pid 0) and worker lanes materialize on
        :data:`WORKERS_PID`, so one Chrome trace carries phases, lanes
        and — for the simulator — the cycle domain side by side.
    enabled:
        ``False`` keeps tracer spans flowing but records no phases: the
        trace-only handle for the engine, the pool and the simulator,
        which take a profiler and no tracer.  Use
        :data:`NULL_PROFILER` for a fully free profiler.
    """

    def __init__(self, *, tracer=None, enabled: bool = True) -> None:
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.enabled = enabled
        self._t0 = time.perf_counter()
        self._cpu0 = time.process_time()
        self._phases: List[PhaseRecord] = []
        self._depth = 0
        self._lanes_ready = False

    # ------------------------------------------------------------------
    # Clocks
    # ------------------------------------------------------------------
    def elapsed_s(self) -> float:
        """Wall seconds since profiler creation."""
        return time.perf_counter() - self._t0

    def _ts_us(self, t_abs: float) -> float:
        """Map an absolute ``perf_counter`` stamp onto the trace clock."""
        if self.tracer.enabled:
            origin = getattr(self.tracer, "origin_s", None)
            if origin is not None:
                return max(0.0, (t_abs - origin) * 1e6)
        return max(0.0, (t_abs - self._t0) * 1e6)

    # ------------------------------------------------------------------
    # Phase attribution
    # ------------------------------------------------------------------
    @contextmanager
    def phase(self, name: str, **args):
        """Attribute the ``with`` body to ``name`` (wall, CPU, RSS).

        Phases nest; only depth-0 phases count toward wall-time
        coverage, so wrapping a traced sub-step never double-books.
        Mirrored into the tracer as an ordinary host ``phase`` span.
        Yields the phase's args: what the body adds to them is recorded
        too (the tracer span keeps the args given at entry).
        """
        traced = self.tracer.enabled
        if not self.enabled and not traced:
            yield args
            return
        if traced:
            self.tracer.begin(
                name, self.tracer.now_us(), cat="phase", args=args or None
            )
        if not self.enabled:
            try:
                yield args
            finally:
                self.tracer.end(name, self.tracer.now_us(), cat="phase")
            return
        depth = self._depth
        self._depth += 1
        start = time.perf_counter()
        cpu_start = time.process_time()
        try:
            yield args
        finally:
            wall = time.perf_counter() - start
            cpu = time.process_time() - cpu_start
            self._depth = depth
            self._phases.append(
                PhaseRecord(
                    name=name,
                    start_s=start - self._t0,
                    wall_s=wall,
                    cpu_s=cpu,
                    peak_rss_kb=_peak_rss_kb(),
                    depth=depth,
                    args=dict(args),
                )
            )
            if traced:
                self.tracer.end(name, self.tracer.now_us(), cat="phase")

    def phases(self) -> List[PhaseRecord]:
        """Completed phases in completion order."""
        return list(self._phases)

    # ------------------------------------------------------------------
    # Worker lanes
    # ------------------------------------------------------------------
    def init_lanes(
        self, workers: int, *, title: str = "parallel workers"
    ) -> None:
        """Name the coordinator lane and one lane per worker."""
        if not self.tracer.enabled:
            return
        if not self._lanes_ready:
            self.tracer.process_name(
                f"{title} (wall clock)", pid=WORKERS_PID
            )
            self.tracer.thread_name(
                "coordinator", pid=WORKERS_PID, tid=0
            )
            self._lanes_ready = True
        for worker_id in range(workers):
            self.tracer.thread_name(
                f"worker {worker_id}", pid=WORKERS_PID, tid=worker_id + 1
            )

    def add_lane(
        self, worker_id: int, spans: Optional[Iterable[Span]]
    ) -> None:
        """Replay one worker's recorded spans into its trace lane.

        Deterministic by construction: lane assignment depends only on
        ``worker_id`` and event content only on the spans themselves.
        """
        if not self.tracer.enabled or not spans:
            return
        tid = worker_id + 1
        for name, t0, t1, cat, args in spans:
            self.tracer.complete(
                name,
                self._ts_us(t0),
                max(0.0, (t1 - t0) * 1e6),
                pid=WORKERS_PID,
                tid=tid,
                cat=cat,
                args=args,
            )

    @contextmanager
    def lane_span(self, name: str, *, tid: int = 0, cat: str = "lane",
                  **args):
        """Wall-clock span on a worker-lane rail (default: coordinator)."""
        if not self.tracer.enabled:
            yield
            return
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.tracer.complete(
                name,
                self._ts_us(t0),
                max(0.0, (time.perf_counter() - t0) * 1e6),
                pid=WORKERS_PID,
                tid=tid,
                cat=cat,
                args=dict(args) or None,
            )

    # ------------------------------------------------------------------
    # Export / rendering
    # ------------------------------------------------------------------
    def coverage(self) -> float:
        """Fraction of elapsed wall time attributed to depth-0 phases."""
        total = self.elapsed_s()
        if total <= 0:
            return 1.0
        attributed = sum(
            p.wall_s for p in self._phases if p.depth == 0
        )
        return min(1.0, attributed / total)

    def as_dict(self) -> Dict[str, object]:
        """JSON-able profile payload for the run-report envelope."""
        return {
            "enabled": self.enabled,
            "total_wall_s": self.elapsed_s(),
            "total_cpu_s": time.process_time() - self._cpu0,
            "peak_rss_kb": _peak_rss_kb(),
            "coverage": self.coverage(),
            "phases": [p.as_dict() for p in self._phases],
        }

    def _aggregate(self) -> List[Tuple[str, int, float, float, int, int]]:
        """(name, calls, wall, cpu, rss, depth) rows, wall-descending."""
        rows: Dict[Tuple[int, str], List[float]] = {}
        for p in self._phases:
            row = rows.setdefault((p.depth, p.name), [0, 0.0, 0.0, 0])
            row[0] += 1
            row[1] += p.wall_s
            row[2] += p.cpu_s
            row[3] = max(row[3], p.peak_rss_kb)
        out = [
            (name, int(r[0]), r[1], r[2], int(r[3]), depth)
            for (depth, name), r in rows.items()
        ]
        out.sort(key=lambda row: (row[5], -row[2], row[0]))
        return out

    def table(self) -> str:
        """Percentage-breakdown phase table (``flexminer profile``)."""
        total = self.elapsed_s()
        lines = [
            f"{'phase':<28s}{'calls':>6s}{'wall ms':>12s}"
            f"{'cpu ms':>12s}{'% wall':>8s}{'rss KiB':>10s}"
        ]
        for name, calls, wall, cpu, rss, depth in self._aggregate():
            indent = "  " * depth
            pct = 100.0 * wall / total if total > 0 else 0.0
            lines.append(
                f"{indent + name:<28s}{calls:>6d}{wall * 1e3:>12.3f}"
                f"{cpu * 1e3:>12.3f}{pct:>7.1f}%{rss:>10d}"
            )
        lines.append(
            f"{'total':<28s}{'':>6s}{total * 1e3:>12.3f}"
            f"{(time.process_time() - self._cpu0) * 1e3:>12.3f}"
            f"{100.0 * self.coverage():>7.1f}%{_peak_rss_kb():>10d}"
        )
        return "\n".join(lines)

    def timeline(self, width: int = 60) -> str:
        """ASCII utilization timeline of the depth-0 phases."""
        total = self.elapsed_s()
        top = [p for p in self._phases if p.depth == 0]
        if not top or total <= 0:
            return "(no phases recorded)"
        name_w = max(len(p.name) for p in top)
        lines = []
        for p in sorted(top, key=lambda p: p.start_s):
            lo = int(round(width * p.start_s / total))
            hi = int(round(width * (p.start_s + p.wall_s) / total))
            hi = max(hi, lo + 1)
            bar = " " * lo + "#" * (hi - lo)
            lines.append(
                f"{p.name:<{name_w}s} |{bar:<{width}s}| "
                f"{p.wall_s * 1e3:.1f} ms"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Trace normalization (determinism tests and tooling)
# ----------------------------------------------------------------------
EventKey = Tuple[str, str, str, Tuple[Tuple[str, object], ...]]


def event_key(event: Dict[str, object]) -> EventKey:
    """Timing- and lane-independent identity of one trace event.

    Drops ``ts``/``dur`` (wall time), ``pid``/``tid`` (lane placement)
    and volatile args, keeping ``(name, ph, cat, args)`` — the parts
    that must be a pure function of the workload.
    """
    raw_args = event.get("args") or {}
    args = tuple(
        sorted(
            (k, v)
            for k, v in raw_args.items()  # type: ignore[union-attr]
            if k not in VOLATILE_ARGS
        )
    )
    return (
        str(event.get("name", "")),
        str(event.get("ph", "")),
        str(event.get("cat", "")),
        args,
    )


def trace_event_set(
    trace: Union[Dict[str, object], List[Dict[str, object]]],
    *,
    cats: Optional[Iterable[str]] = None,
) -> FrozenSet[EventKey]:
    """Normalized event set of an exported trace.

    Metadata (``M``) and counter (``C``) events are excluded — counter
    samples carry timing-dependent values by nature.  ``cats`` restricts
    to specific categories, e.g. ``("task",)`` for the worker-count-
    invariant per-task events.
    """
    if isinstance(trace, dict):
        events = trace.get("traceEvents", [])
    else:
        events = trace
    wanted = frozenset(cats) if cats is not None else None
    out = set()
    for event in events:  # type: ignore[union-attr]
        ph = event.get("ph")
        if ph in ("M", "C"):
            continue
        if wanted is not None and event.get("cat") not in wanted:
            continue
        out.add(event_key(event))
    return frozenset(out)
