"""SkelScope: observability for the simulated SkelCL/OpenCL stack.

Three layers over the asynchronous command graph:

* **tracing** (:mod:`repro.scope.trace`) — every scheduled command
  (kind, device, engine, buffers, byte counts, wait-list edges, the
  four lifecycle timestamps) exported as Chrome trace-event JSON
  (loadable in Perfetto) with flow arrows for dependency edges, plus an
  ASCII timeline (:mod:`repro.scope.timeline`) for terminals;
* **metrics** (:mod:`repro.scope.metrics`) — a counter/gauge/histogram
  registry per context, populated by the runtime and snapshotable as
  JSON or an end-of-run table;
* **profiling** (:mod:`repro.scope.profile`) — ``with skelcl.profile()
  as prof:`` scoping with per-skeleton and critical-path breakdowns.

Environment switches (honoured by ``skelcl.terminate()`` / ``Session``
exit): ``SKELCL_TRACE=<path>`` writes the trace, ``SKELCL_METRICS=
<path>`` writes the metrics snapshot.  ``python -m repro.scope`` runs a
workload under the tracer and emits both plus the terminal report.

Tracing is passive: it reads the per-queue event records the runtime
already keeps and never enqueues commands, so an instrumented run's
command graph is identical to an uninstrumented one.
"""

from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    derive_serve_metrics,
    derive_timeline_metrics,
)
from .profile import CriticalPath, Profile, profile
from .timeline import render_timeline
from .trace import (
    ENGINE_TIDS,
    assert_valid_trace,
    chrome_trace,
    event_tid,
    trace_events,
    validate_trace,
    write_trace,
)

__all__ = [
    "Counter",
    "ENGINE_TIDS",
    "CriticalPath",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Profile",
    "assert_valid_trace",
    "chrome_trace",
    "derive_serve_metrics",
    "derive_timeline_metrics",
    "event_tid",
    "profile",
    "render_timeline",
    "trace_events",
    "validate_trace",
    "write_trace",
]
