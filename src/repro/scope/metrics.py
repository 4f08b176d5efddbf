"""SkelScope metrics: counter/gauge/histogram primitives and a registry.

The runtime populates a :class:`MetricsRegistry` per OpenCL context as
commands are enqueued (byte counters, command counts, kernel time by
device) and at snapshot time derives timeline metrics over the whole
command graph (queue occupancy, idle gaps, the critical path).  Registries are deliberately dependency-free: they know
nothing about the runtime, so this module can be imported from anywhere
in the stack without cycles.

Naming follows the Prometheus convention (``*_total`` for counters,
unit suffix in the name); labels distinguish children of one metric::

    reg.counter("skelcl_transfer_bytes_total", link="pcie").inc(nbytes)
    reg.gauge("skelcl_engine_busy_ns", device=0, engine="compute").set(t)
    reg.histogram("skelcl_kernel_ns", skeleton="Map").observe(dur)

``snapshot()`` returns a plain JSON-serializable dict; ``render_table``
prints the end-of-run report.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, Iterable, List, Optional, Tuple

try:
    import resource
except ImportError:  # Windows: the two getrusage gauges are omitted
    resource = None

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, object]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _label_str(key: LabelKey) -> str:
    if not key:
        return ""
    return "{" + ",".join(f"{k}={v}" for k, v in key) + "}"


class Counter:
    """A monotonically increasing integer/float counter."""

    def __init__(self, name: str, labels: LabelKey = ()):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount=1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc({amount}))")
        self.value += amount

    def reset(self) -> None:
        self.value = 0


class Gauge:
    """A value that can go up and down (set at snapshot time)."""

    def __init__(self, name: str, labels: LabelKey = ()):
        self.name = name
        self.labels = labels
        self.value = 0

    def set(self, value) -> None:
        self.value = value

    def inc(self, amount=1) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0


class Histogram:
    """Streaming distribution summary: count / sum / min / max / mean.

    Bucket boundaries would add little for simulated-ns distributions,
    so the histogram keeps moments only — enough for the end-of-run
    table and the JSON snapshot.
    """

    def __init__(self, name: str, labels: LabelKey = ()):
        self.name = name
        self.labels = labels
        self.count = 0
        self.sum = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value) -> None:
        self.count += 1
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def reset(self) -> None:
        self.count = 0
        self.sum = 0
        self.min = None
        self.max = None

    def summary(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }


class MetricsRegistry:
    """A named collection of counters, gauges and histograms."""

    def __init__(self):
        self._counters: Dict[Tuple[str, LabelKey], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelKey], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelKey], Histogram] = {}

    # -- access ----------------------------------------------------------

    def counter(self, name: str, **labels) -> Counter:
        key = (name, _label_key(labels))
        metric = self._counters.get(key)
        if metric is None:
            metric = self._counters[key] = Counter(name, key[1])
        return metric

    def gauge(self, name: str, **labels) -> Gauge:
        key = (name, _label_key(labels))
        metric = self._gauges.get(key)
        if metric is None:
            metric = self._gauges[key] = Gauge(name, key[1])
        return metric

    def histogram(self, name: str, **labels) -> Histogram:
        key = (name, _label_key(labels))
        metric = self._histograms.get(key)
        if metric is None:
            metric = self._histograms[key] = Histogram(name, key[1])
        return metric

    def counters(self) -> Iterable[Counter]:
        return self._counters.values()

    def value(self, name: str, **labels):
        """The current value of a counter/gauge (0 if never touched)."""
        key = (name, _label_key(labels))
        if key in self._counters:
            return self._counters[key].value
        if key in self._gauges:
            return self._gauges[key].value
        return 0

    # -- lifecycle -------------------------------------------------------

    def reset(self) -> None:
        """Zero every metric (keeps the metric objects, so cached
        references held by queues stay valid)."""
        for metric in self._counters.values():
            metric.reset()
        for metric in self._gauges.values():
            metric.reset()
        for metric in self._histograms.values():
            metric.reset()

    # -- export ----------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        def series(metrics, value_of):
            out: Dict[str, Dict[str, object]] = {}
            for (name, labels), metric in sorted(metrics.items()):
                out.setdefault(name, {})[_label_str(labels) or "_"] = value_of(metric)
            return out

        return {
            "counters": series(self._counters, lambda m: m.value),
            "gauges": series(self._gauges, lambda m: m.value),
            "histograms": series(self._histograms, lambda m: m.summary()),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def render_table(self, title: str = "SkelScope metrics") -> str:
        """The end-of-run report: one line per metric child."""
        rows: List[Tuple[str, str]] = []
        for (name, labels), metric in sorted(self._counters.items()):
            rows.append((name + _label_str(labels), f"{metric.value}"))
        for (name, labels), metric in sorted(self._gauges.items()):
            value = metric.value
            text = f"{value:.3f}" if isinstance(value, float) else f"{value}"
            rows.append((name + _label_str(labels), text))
        for (name, labels), metric in sorted(self._histograms.items()):
            rows.append((
                name + _label_str(labels),
                f"n={metric.count} mean={metric.mean:.1f} "
                f"min={metric.min} max={metric.max}",
            ))
        if not rows:
            return f"{title}\n  (no metrics recorded)"
        width = max(len(name) for name, _ in rows)
        lines = [title] + [f"  {name.ljust(width)}  {value}" for name, value in rows]
        return "\n".join(lines)


def derive_serve_metrics(server, registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Fairness gauges over a serve :class:`~repro.serve.Server`'s
    tenants (duck-typed: needs ``tenants`` mapping names to objects with
    ``weight`` and ``device_ns_total``):

    * ``skelcl_serve_tenant_share{tenant=}`` — each tenant's fraction of
      all charged device-ns;
    * ``skelcl_serve_weighted_fairness`` — Jain's fairness index over
      the weight-normalized shares (``device_ns / weight``): 1.0 means
      every tenant received device time exactly proportional to its
      weight, 1/n means one tenant got everything.
    """
    registry = registry if registry is not None else server.session.metrics
    tenants = server.tenants
    total = sum(t.device_ns_total for t in tenants.values())
    normalized: List[float] = []
    for name, tenant in sorted(tenants.items()):
        share = tenant.device_ns_total / total if total else 0.0
        registry.gauge("skelcl_serve_tenant_share", tenant=name).set(round(share, 6))
        if tenant.device_ns_total:
            normalized.append(tenant.device_ns_total / tenant.weight)
    if normalized:
        jain = (sum(normalized) ** 2) / (
            len(normalized) * sum(x * x for x in normalized))
        registry.gauge("skelcl_serve_weighted_fairness").set(round(jain, 6))
    return registry


def derive_timeline_metrics(context, registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Populate the gauges over the whole timeline: per-engine busy/idle
    time, occupancy, the critical-path elapsed time
    (``context.finish_all()``), and per-skeleton kernel time.

    Alongside, what the simulator costs the host's memory system —
    process-wide and since process start, not per context: the allocator
    policy in force (:mod:`repro.ocl.hostmem`) as
    ``skelcl_host_allocator_info{policy=}`` = 1, and from ``getrusage``
    the minor page faults taken and the peak resident set.  A window
    whose fault count grows by thousands per launch-heavy call is paying
    for fresh pages on every large temporary.

    ``context`` is duck-typed (needs ``finish_all()``, ``queues`` with
    ``events``/``device``); ``registry`` defaults to ``context.metrics``.
    """
    from ..ocl import hostmem  # not at import: repro.ocl imports this module

    registry = registry if registry is not None else context.metrics
    elapsed = context.finish_all()
    registry.gauge("skelcl_critical_path_ns").set(elapsed)
    registry.gauge("skelcl_host_allocator_info", policy=hostmem.policy()).set(1)
    if resource is not None:
        usage = resource.getrusage(resource.RUSAGE_SELF)
        registry.gauge("skelcl_host_minor_faults").set(usage.ru_minflt)
        # ru_maxrss is in KiB on Linux and in bytes on macOS.
        unit = 1 if sys.platform == "darwin" else 1024
        registry.gauge("skelcl_host_peak_rss_bytes").set(usage.ru_maxrss * unit)
    by_skeleton: Dict[str, int] = {}
    compute_busy: List[int] = []
    for queue in context.queues:
        device = queue.device.index
        busy: Dict[str, int] = {}
        spans: Dict[str, List[Tuple[int, int]]] = {}
        for event in queue.events:
            busy[event.engine] = busy.get(event.engine, 0) + event.duration_ns
            spans.setdefault(event.engine, []).append((event.start_ns, event.end_ns))
            if event.command_type == "ndrange_kernel":
                label = event.label or "<unlabelled>"
                by_skeleton[label] = by_skeleton.get(label, 0) + event.duration_ns
        compute_busy.append(busy.get("compute", 0))
        for engine, busy_ns in busy.items():
            if engine == "sync":
                continue
            registry.gauge("skelcl_engine_busy_ns", device=device, engine=engine).set(busy_ns)
            window = max(end for _s, end in spans[engine]) - min(s for s, _e in spans[engine])
            idle = max(0, window - busy_ns)
            registry.gauge("skelcl_engine_idle_ns", device=device, engine=engine).set(idle)
            occupancy = busy_ns / elapsed if elapsed else 0.0
            registry.gauge(
                "skelcl_engine_occupancy", device=device, engine=engine
            ).set(round(occupancy, 6))
    for label, kernel_ns in sorted(by_skeleton.items()):
        registry.gauge("skelcl_kernel_ns_by_skeleton", skeleton=label).set(kernel_ns)
    # Load imbalance over devices that did compute: max/mean busy time.
    # 1.0 means a perfectly balanced split; the adaptive partitioner's
    # re-size threshold is expressed against this same quantity.
    active = [b for b in compute_busy if b > 0]
    if len(compute_busy) > 1 and active:
        mean_busy = sum(active) / len(active)
        registry.gauge("skelcl_compute_imbalance").set(
            round(max(active) / mean_busy, 6) if mean_busy else 1.0
        )
    detector = getattr(context, "race_detector", None)
    if detector is not None:
        registry.gauge("skelcl_races_detected").set(len(detector.races))
    return registry
