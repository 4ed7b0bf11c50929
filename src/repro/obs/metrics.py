"""Metrics registry: labeled counters, gauges and histograms.

One process-wide (or per-component) :class:`MetricsRegistry` replaces
ad-hoc counter plumbing: any layer can mint a labeled instrument with
``registry.counter("sim.noc.requests", dataset="Mi")`` and the whole
state is exportable via :meth:`MetricsRegistry.snapshot` /
:meth:`MetricsRegistry.as_dict` for machine-readable run reports.

Overhead discipline: a registry built with ``enabled=False`` (or the
module-level :data:`NULL_REGISTRY`) hands out one shared null instrument
whose mutators are no-ops, so instrumented code pays a single attribute
call when observability is off.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Dict, Iterator, Optional, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
]

Number = Union[int, float]


def metric_key(name: str, labels: Mapping[str, object]) -> str:
    """Canonical ``name{k=v,...}`` identity of a labeled instrument."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """Monotonically increasing count (events, requests, cache hits)."""

    kind = "counter"
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Mapping[str, object]) -> None:
        self.name = name
        self.labels = dict(labels)
        self.value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        self.value += amount

    def get(self) -> Number:
        return self.value


class Gauge:
    """Point-in-time value (occupancy, load factor, last cycle count)."""

    kind = "gauge"
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Mapping[str, object]) -> None:
        self.name = name
        self.labels = dict(labels)
        self.value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value

    def add(self, amount: Number) -> None:
        self.value += amount

    def get(self) -> Number:
        return self.value


class Histogram:
    """Power-of-two bucketed distribution with running sum/min/max.

    Bucket ``i`` counts observations in ``(2**(i-1), 2**i]`` (bucket 0
    holds everything ``<= 1``), which is plenty for cycle counts and
    latencies while keeping the export tiny.
    """

    kind = "histogram"
    __slots__ = ("name", "labels", "count", "sum", "min", "max", "buckets")

    def __init__(self, name: str, labels: Mapping[str, object]) -> None:
        self.name = name
        self.labels = dict(labels)
        self.count = 0
        self.sum: float = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.buckets: Dict[int, int] = {}

    def observe(self, value: Number) -> None:
        self.count += 1
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        bucket = int(value - 1).bit_length() if value > 1 else 0
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile from the power-of-two buckets.

        Walks the buckets in value order to the target rank and
        interpolates linearly inside the covering bucket's range, then
        clamps to the observed min/max (so small samples cannot report
        values outside what was actually seen).  Exact when a bucket
        holds one distinct value; otherwise within one octave.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return 0.0
        target = q * self.count
        seen = 0.0
        for bucket in sorted(self.buckets):
            n = self.buckets[bucket]
            lo = 0.0 if bucket == 0 else float(2 ** (bucket - 1))
            hi = 1.0 if bucket == 0 else float(2 ** bucket)
            if seen + n >= target:
                frac = (target - seen) / n if n else 0.0
                value = lo + frac * (hi - lo)
                break
            seen += n
        else:  # pragma: no cover - loop always covers count
            value = float(self.max or 0)
        if self.min is not None:
            value = max(value, float(self.min))
        if self.max is not None:
            value = min(value, float(self.max))
        return value

    def get(self) -> Dict[str, Number]:
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.min is not None else 0,
            "max": self.max if self.max is not None else 0,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
        }


class _NullInstrument:
    """Shared no-op stand-in for every instrument of a disabled registry."""

    kind = "null"
    __slots__ = ()
    name = ""
    labels: Dict[str, object] = {}

    def inc(self, amount: Number = 1) -> None:
        pass

    def set(self, value: Number) -> None:
        pass

    def add(self, amount: Number) -> None:
        pass

    def observe(self, value: Number) -> None:
        pass

    def get(self) -> Number:
        return 0


_NULL_INSTRUMENT = _NullInstrument()


class MetricsRegistry:
    """Registry of labeled instruments with a snapshot/diff surface.

    Instruments are memoized by ``(name, labels)``: asking twice for the
    same counter returns the same object, so call sites never need to
    keep handles around.
    """

    def __init__(self, *, enabled: bool = True) -> None:
        self.enabled = enabled
        self._instruments: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # Instrument minting
    # ------------------------------------------------------------------
    def _get(self, cls, name: str, labels: Mapping[str, object]):
        if not self.enabled:
            return _NULL_INSTRUMENT
        key = metric_key(name, labels)
        inst = self._instruments.get(key)
        if inst is None:
            inst = cls(name, labels)
            self._instruments[key] = inst
        elif not isinstance(inst, cls):
            raise TypeError(
                f"metric {key!r} already registered as {inst.kind}"
            )
        return inst

    def counter(self, name: str, **labels) -> Counter:
        """Get-or-create a monotonic counter."""
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        """Get-or-create a gauge."""
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        """Get-or-create a histogram."""
        return self._get(Histogram, name, labels)

    # ------------------------------------------------------------------
    # Bulk intake
    # ------------------------------------------------------------------
    def absorb(
        self,
        values: Mapping[str, object],
        *,
        prefix: str = "",
        **labels,
    ) -> None:
        """Set one gauge per numeric leaf of a (possibly nested) mapping.

        This is how existing ad-hoc counter bundles (``OpCounters``,
        ``SimReport.as_dict()``, component ``stats`` dataclasses) flow
        into the registry without per-field plumbing.  Non-numeric leaves
        and sequences are skipped.
        """
        if not self.enabled:
            return
        for name, value in values.items():
            if isinstance(value, Mapping):
                self.absorb(value, prefix=f"{prefix}{name}.", **labels)
            elif isinstance(value, bool):
                self.gauge(f"{prefix}{name}", **labels).set(int(value))
            elif isinstance(value, (int, float)):
                self.gauge(f"{prefix}{name}", **labels).set(value)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """Flat ``{key: value}`` view (histograms export summary dicts)."""
        return {key: inst.get() for key, inst in self._instruments.items()}

    def as_dict(self) -> Dict[str, Dict[str, object]]:
        """Full structured export including kinds, labels and buckets."""
        out: Dict[str, Dict[str, object]] = {}
        for key, inst in self._instruments.items():
            entry: Dict[str, object] = {
                "kind": inst.kind,
                "name": inst.name,
                "labels": dict(inst.labels),
                "value": inst.get(),
            }
            if isinstance(inst, Histogram):
                entry["buckets"] = dict(inst.buckets)
            out[key] = entry
        return out

    def diff(self, before: Mapping[str, object]) -> Dict[str, Number]:
        """Numeric deltas of the current snapshot against ``before``.

        Keys appearing on only one side use 0 for the missing value;
        histogram summaries (dict-valued) are skipped.
        """
        now = self.snapshot()
        out: Dict[str, Number] = {}
        for key in sorted(set(now) | set(before)):
            a = before.get(key, 0)
            b = now.get(key, 0)
            if isinstance(a, Mapping) or isinstance(b, Mapping):
                continue
            if b != a:
                out[key] = b - a
        return out

    def clear(self) -> None:
        self._instruments.clear()

    def __iter__(self) -> Iterator[str]:
        return iter(self._instruments)

    def __len__(self) -> int:
        return len(self._instruments)


#: Shared disabled registry: instrumented code paths default to this so
#: "observability off" costs one no-op method call.
NULL_REGISTRY = MetricsRegistry(enabled=False)
