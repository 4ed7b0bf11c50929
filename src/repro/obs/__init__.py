"""Observability layer: metrics, event tracing, run reports, logging.

Cross-cutting substrate the engines, the cycle-level simulator and the
bench harness all report through:

* :mod:`repro.obs.metrics` — labeled counter/gauge/histogram registry
  with snapshot/diff export (``NULL_REGISTRY`` when disabled);
* :mod:`repro.obs.trace` — Chrome trace-event tracer (Perfetto /
  ``chrome://tracing`` compatible) with host wall-clock and simulator
  cycle-domain processes;
* :mod:`repro.obs.report` — machine-readable run-report envelope plus
  flatten/diff/render helpers (the ``flexminer stats`` backend);
* :mod:`repro.obs.log` — ``repro.*`` debug log channel driven by the
  ``REPRO_LOG`` environment variable;
* :mod:`repro.obs.prof` — cross-process profiling: phase attribution
  (wall/CPU/RSS) plus worker trace lanes merged into one Chrome trace
  (the ``flexminer profile`` backend, ``NULL_PROFILER`` when disabled).
"""

from .log import ENV_VAR, configure, get_logger
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
)
from .prof import (
    LaneRecorder,
    NULL_PROFILER,
    NullProfiler,
    PhaseProfiler,
    PhaseRecord,
    WORKERS_PID,
    event_key,
    trace_event_set,
)
from .report import (
    SCHEMA,
    DiffRow,
    diff_reports,
    flatten,
    load_report,
    make_report,
    render_diff,
    render_report,
    write_report,
)
from .trace import (
    HOST_PID,
    NULL_TRACER,
    NullTracer,
    SIM_PID,
    Tracer,
    validate_trace,
)

__all__ = [
    "ENV_VAR",
    "configure",
    "get_logger",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "SCHEMA",
    "DiffRow",
    "diff_reports",
    "flatten",
    "load_report",
    "make_report",
    "render_diff",
    "render_report",
    "write_report",
    "HOST_PID",
    "SIM_PID",
    "NullTracer",
    "NULL_TRACER",
    "Tracer",
    "validate_trace",
    "WORKERS_PID",
    "LaneRecorder",
    "NULL_PROFILER",
    "NullProfiler",
    "PhaseProfiler",
    "PhaseRecord",
    "event_key",
    "trace_event_set",
]
