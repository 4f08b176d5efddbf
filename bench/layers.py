"""Per-layer metrics: their names, and how they are derived from the
traced window's spans and the exact counts taken around it.

Layers are the ``src/repro/`` packages.  ``*_self_s`` is span self time
(``spans.self_times``) summed over the *window* — the first
``Workload.window_steps`` timed steps, identical work in every run.
Counts are deltas of ``session.metrics`` counters and the public queue
totals over the same window, divided by the window's operations where
the name says ``per op``; they must repeat exactly.  ``*_per_build``
and the jit/init figures average over every span of the traced process,
set-up included, because most workloads build only during set-up.

A value is ``None`` when every entry point feeding it is gone from the
tree (``bench.unresolved_spans`` counts those); it is ``0`` when the
layer exists but the workload bypasses it.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Sequence, Tuple

import spans as spans_module

#: (name, unit, better, the end-to-end metric and workload it should move)
PER_LAYER: Tuple[Tuple[str, str, str, str], ...] = (
    ("modeled_ns_per_op", "ns", "lower",
     "the modeled clock itself: exact; a host-only change must not move it on any workload"),
    ("bench.fail_share", "ratio", "lower", "must stay 0 on every workload"),
    ("op_ms_p90", "ms", "lower",
     "p90 per-op latency over all ops of the traced run; not end-to-end because no "
     "bound within the contract's 25 % holds for it on this box"),
    # kernelc
    ("kernelc.preprocess.ms_per_build", "ms", "lower",
     "op_ms_p50 on build_lifecycle; setup_s everywhere; none on stencil_frames"),
    ("kernelc.frontend.ms_per_build", "ms", "lower",
     "lex+parse+typecheck: op_ms_p50 on build_lifecycle; setup_s everywhere"),
    ("kernelc.frontend.ast_nodes", "count", "lower",
     "checked-AST nodes per front-end run: work left for lint/compile/plan"),
    ("kernelc.lint.ms_per_build", "ms", "lower", "op_ms_p50 on build_lifecycle; setup_s"),
    ("kernelc.compiler.ms_per_build", "ms", "lower",
     "op_ms_p50 on build_lifecycle (cold and disk phases); setup_s"),
    ("kernelc.progcache.load_ms_per_build", "ms", "lower",
     "op_ms_p50 on build_lifecycle (disk phase)"),
    ("kernelc.progcache.store_ms_per_build", "ms", "lower",
     "op_ms_p50 on build_lifecycle (cold phase)"),
    ("kernelc.progcache.hit_ratio", "ratio", "higher",
     "disk builds / (disk + compiled) in the window: 0.5 on build_lifecycle"),
    ("kernelc.vectorize.plan_ms_per_kernel", "ms", "lower",
     "setup_s; op_ms_p50 on build_lifecycle"),
    ("kernelc.vectorize.execute_self_s", "s", "lower",
     "ops_per_s on stencil_frames and dispatch_small"),
    ("kernelc.vectorize.launches", "count", "lower", "window launches on the vector engine"),
    ("kernelc.vectorize.execute_us_per_launch", "us", "lower",
     "per-launch fixed cost: op_ms_p50 on dispatch_small"),
    ("kernelc.vectorize.execute_ns_per_kop", "ns", "lower",
     "per-lane cost: sim_kops_per_host_s and ops_per_s on stencil_frames"),
    ("kernelc.peritem.launches", "count", "lower",
     "ops_per_s on fallback_peritem; 0 elsewhere"),
    ("kernelc.vectorize.lane_ratio", "ratio", "higher",
     "vector launches / all launches: 1 on stencil_frames, 0 on fallback_peritem"),
    # analysis
    ("analysis.access.self_s", "s", "lower", "op_ms_p50 on dispatch_small"),
    ("analysis.access.affine_ratio", "ratio", "higher",
     "affine / all access summaries resolved in the window"),
    ("analysis.races.observe_self_s", "s", "lower",
     "ops_per_s and peak_rss_mb on serve_mixed; 0 elsewhere (detector off)"),
    ("analysis.races.observed_events", "count", "lower", "serve_mixed only"),
    ("analysis.races.found", "count", "lower", "must be 0"),
    # ocl
    ("ocl.program.build_self_s", "s", "lower", "op_ms_p50 on build_lifecycle"),
    ("ocl.program.builds_compiled", "count", "lower", "build_lifecycle: one per op"),
    ("ocl.program.builds_disk", "count", "lower", "build_lifecycle: one per op"),
    ("ocl.program.builds_memory", "count", "lower", "build_lifecycle: at least one per op"),
    ("ocl.queue.enqueue_kernel_self_s", "s", "lower",
     "op_ms_p50 on dispatch_small, then fused_pipeline / serve_mixed"),
    ("ocl.queue.enqueue_us_per_launch", "us", "lower", "op_ms_p50 on dispatch_small"),
    ("ocl.queue.enqueue_transfer_self_s", "s", "lower",
     "op_ms_p50 on dispatch_small and stencil_frames"),
    ("ocl.executor.self_s", "s", "lower",
     "execute_ndrange minus the vector engine under it: the whole per-item "
     "engine on fallback_peritem"),
    ("ocl.context.finish_self_s", "s", "lower", "op_ms_p50 on serve_mixed"),
    ("ocl.launches", "count", "lower", "per op, exact: modeled_ns_per_op"),
    ("ocl.transfer_bytes", "B", "lower", "per op, exact: modeled_ns_per_op"),
    ("ocl.pcie_bytes", "B", "lower", "per op, exact: modeled_ns_per_op"),
    ("ocl.kernel_ops", "count", "lower", "per op, exact: modeled_ns_per_op"),
    ("ocl.global_bytes", "B", "lower", "per op, exact: modeled_ns_per_op"),
    ("ocl.modeled_kernel_ns", "ns", "lower", "per op, exact: modeled_ns_per_op"),
    ("ocl.modeled_transfer_ns", "ns", "lower", "per op, exact: modeled_ns_per_op"),
    ("ocl.events_retained", "count", "lower",
     "sum of len(queue.events) at exit: peak_rss_mb on serve_mixed, dispatch_small"),
    # skelcl
    ("skelcl.map.call_self_s", "s", "lower", "op_ms_p50 on dispatch_small, fused_pipeline"),
    ("skelcl.zip.call_self_s", "s", "lower", "op_ms_p50 on dispatch_small, fused_pipeline"),
    ("skelcl.reduce.call_self_s", "s", "lower", "op_ms_p50 on dispatch_small, fused_pipeline"),
    ("skelcl.scan.call_self_s", "s", "lower", "op_ms_p50 on dispatch_small"),
    ("skelcl.mapoverlap.call_self_s", "s", "lower",
     "op_ms_p50 on dispatch_small and stencil_frames"),
    ("skelcl.allpairs.call_self_s", "s", "lower", "op_ms_p50 on dispatch_small"),
    ("skelcl.container.upload_self_s", "s", "lower",
     "ensure_on_devices: op_ms_p50 on dispatch_small, stencil_frames"),
    ("skelcl.container.download_self_s", "s", "lower",
     "ensure_host: op_ms_p50 on dispatch_small, stencil_frames"),
    ("skelcl.container.redistributions", "count", "lower",
     "per op, exact: device-local chunk copies (halo refresh on a new distribution); "
     "stencil_frames"),
    ("skelcl.runtime.init_ms", "ms", "lower", "setup_s"),
    # plan
    ("plan.planner.defer_self_s", "s", "lower",
     "op_ms_p50 on fused_pipeline, then serve_mixed; 0 on eager workloads"),
    ("plan.planner.flush_self_s", "s", "lower", "op_ms_p50 on fused_pipeline, serve_mixed"),
    ("plan.compose.self_s", "s", "lower", "op_ms_p50 on fused_pipeline"),
    ("plan.deferred", "count", "lower", "per op, exact; 0 on eager workloads"),
    ("plan.fusions", "count", "higher", "per op, exact: modeled_ns_per_op on fused_pipeline"),
    ("plan.fallbacks", "count", "lower", "per op, exact"),
    ("plan.elided", "count", "higher", "per op, exact"),
    ("plan.fused_ratio", "ratio", "higher", "fusions / deferred"),
    # jit
    ("jit.lower.ms_per_function", "ms", "lower",
     "op_ms_p50 on build_lifecycle; setup_s on dispatch_small"),
    ("jit.specializations", "count", "lower", "lowered sources produced in the process"),
    # serve
    ("serve.submit_self_s", "s", "lower", "ops_per_s on serve_mixed only"),
    ("serve.scheduler.drain_self_s", "s", "lower", "ops_per_s on serve_mixed only"),
    ("serve.server.dispatch_self_s", "s", "lower", "ops_per_s, op_ms_p90 on serve_mixed only"),
    ("serve.batches", "count", "higher", "batched launches in the window"),
    ("serve.batched_job_ratio", "ratio", "higher", "jobs that ran in a batch / jobs"),
    ("serve.refused", "count", "lower", "must be 0: refusals count as failed ops"),
    ("serve.modeled_latency_p50_ns", "ns", "lower", "exact; modeled admission-to-completion"),
    ("serve.modeled_latency_p99_ns", "ns", "lower", "exact"),
    ("serve.fairness_jain", "ratio", "higher", "Jain index over weight-normalized shares"),
    # scope
    ("scope.metrics.series", "count", "lower", "none today: baseline for always-on host spans"),
    ("scope.metrics.snapshot_ms", "ms", "lower", "none today"),
    ("scope.trace.events", "count", "lower", "none today"),
    ("scope.trace.export_ms", "ms", "lower", "none today"),
    # harness
    ("bench.trace_overhead_ratio", "ratio", "lower",
     "traced / untraced op_ms_p50 in one process: how far the shares can be trusted"),
    ("bench.host_drift_ratio", "ratio", "lower",
     "median step time of the window's last ten steps / first ten: op_ms_p90 and "
     "peak_rss_mb on serve_mixed (unbounded per-queue state)"),
    ("bench.unattributed_share", "ratio", "lower",
     "window wall time under no layer span"),
    ("bench.unresolved_spans", "count", "lower",
     "entry points of spans.ENTRY_POINTS the tree no longer has"),
)

def counter_total(counters: Dict[str, Dict[str, float]], name: str, label: str = "") -> float:
    """Sum of a counter's series whose label string contains ``label``."""
    return sum(value for labels, value in counters.get(name, {}).items()
               if label in labels)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def counts(before: dict, after: dict, ops: int) -> Dict[str, float]:
    """The exact metrics: deltas of counters and queue totals between two
    ``child.snapshot`` dicts taken around the window of ``ops``
    operations.  Needs no tracing, so untraced runs report them too."""

    def delta(key: str) -> float:
        return after[key] - before[key]

    def counted(name: str, label: str = "") -> float:
        return (counter_total(after["counters"], name, label)
                - counter_total(before["counters"], name, label))

    compiled = counted("skelcl_program_builds_total", "result=compiled")
    disk = counted("skelcl_program_builds_total", "result=disk")
    deferred, fusions = counted("skelcl_plan_deferred_total"), counted("skelcl_fusion_total")
    return {
        "modeled_ns_per_op": delta("modeled_ns") / ops,
        "kernelc.progcache.hit_ratio": _ratio(disk, disk + compiled),
        "analysis.access.affine_ratio": _ratio(
            counted("skelcl_access_summary_total", "kind=affine"),
            counted("skelcl_access_summary_total")),
        "analysis.races.found": after["races"],
        "ocl.program.builds_compiled": compiled,
        "ocl.program.builds_disk": disk,
        "ocl.program.builds_memory": counted("skelcl_program_builds_total", "result=memory"),
        "ocl.launches": counted("skelcl_commands_total", "kind=ndrange_kernel") / ops,
        "ocl.transfer_bytes": delta("transfer_bytes") / ops,
        "ocl.pcie_bytes": delta("pcie_bytes") / ops,
        "ocl.kernel_ops": counted("skelcl_kernel_ops_total") / ops,
        "ocl.global_bytes": delta("global_bytes") / ops,
        "ocl.modeled_kernel_ns": delta("kernel_ns") / ops,
        "ocl.modeled_transfer_ns": delta("transfer_ns") / ops,
        "skelcl.container.redistributions":
            counted("skelcl_commands_total", "kind=copy_buffer") / ops,
        "plan.deferred": deferred / ops,
        "plan.fusions": fusions / ops,
        "plan.fallbacks": counted("skelcl_plan_fallback_total") / ops,
        "plan.elided": counted("skelcl_plan_elided_total") / ops,
        "plan.fused_ratio": _ratio(fusions, deferred),
        "serve.batches": counted("skelcl_serve_batches_total"),
        "serve.batched_job_ratio": _ratio(
            counted("skelcl_serve_batched_jobs_total"),
            counted("skelcl_serve_jobs_total", "outcome=completed")),
        "serve.refused": counted("skelcl_serve_jobs_total", "outcome=rejected"),
        "serve.fairness_jain": after["gauges"].get(
            "skelcl_serve_weighted_fairness", {}).get("_", 0.0),
    }


def _at_reference_speed(table: Dict[str, Tuple[float, int, float]], speed: float):
    return {name: (self_s / speed, count, total / speed)
            for name, (self_s, count, total) in table.items()}


def timings(tracer, first_step: int, window_steps: int, wall: float, speed: float,
            kernel_ops: float) -> Dict[str, Optional[float]]:
    """Every span-derived value of one traced run.  ``wall`` is the sum
    of the window steps' wall times as measured, ``speed`` the window's
    host-speed factor (``stats.speed_factors``) — times are reported at
    reference speed — and ``kernel_ops`` the number of simulated kernel
    operations the window executed."""
    win = spans_module.window(tracer.spans, first_step, first_step + window_steps)
    in_window = _at_reference_speed(spans_module.self_times(win), speed)
    overall = _at_reference_speed(spans_module.self_times(tracer.spans), speed)
    patched_names = {name for name, module, path in spans_module.ENTRY_POINTS
                     if f"{module}.{path}" not in tracer.unresolved}
    nothing = (0.0, 0, 0.0)

    def known(*names: str) -> bool:
        return all(name in patched_names for name in names)

    def self_s(name: str) -> Optional[float]:
        return in_window.get(name, nothing)[0] if known(name) else None

    def count(name: str, table=in_window) -> Optional[int]:
        return table.get(name, nothing)[1] if known(name) else None

    def mean_ms(name: str) -> Optional[float]:
        _, n, total = overall.get(name, nothing)
        return _ratio(total * 1e3, n) if known(name) else None

    out: Dict[str, Optional[float]] = {}

    for stage in ("preprocess", "frontend", "lint", "compiler"):
        out[f"kernelc.{stage}.ms_per_build"] = mean_ms(f"kernelc.{stage}")
    programs = tracer.captured.get("kernelc.frontend", [])
    out["kernelc.frontend.ast_nodes"] = (
        _ratio(sum(spans_module.count_nodes(p) for p in programs), len(programs))
        if known("kernelc.frontend") else None)
    out["kernelc.progcache.load_ms_per_build"] = mean_ms("kernelc.progcache.load")
    out["kernelc.progcache.store_ms_per_build"] = mean_ms("kernelc.progcache.store")
    # A build that preprocesses is one that missed the in-memory cache,
    # i.e. one whose kernels need a fresh vector plan.
    out["kernelc.vectorize.plan_ms_per_kernel"] = (
        _ratio(overall.get("kernelc.vectorize.plan", nothing)[2] * 1e3,
               count("kernelc.preprocess", overall))
        if known("kernelc.vectorize.plan", "kernelc.preprocess") else None)

    vector_s, vector_n = self_s("kernelc.vectorize.execute"), count("kernelc.vectorize.execute")
    launches = count("ocl.executor")
    out["kernelc.vectorize.execute_self_s"] = vector_s
    out["kernelc.vectorize.launches"] = vector_n
    if vector_s is None:
        out["kernelc.vectorize.execute_us_per_launch"] = None
        out["kernelc.vectorize.execute_ns_per_kop"] = None
    else:
        out["kernelc.vectorize.execute_us_per_launch"] = _ratio(vector_s * 1e6, vector_n)
        out["kernelc.vectorize.execute_ns_per_kop"] = (
            _ratio(vector_s * 1e9, kernel_ops / 1e3) if vector_n else 0.0)
    if vector_n is None or launches is None:
        out["kernelc.peritem.launches"] = out["kernelc.vectorize.lane_ratio"] = None
    else:
        out["kernelc.peritem.launches"] = launches - vector_n
        out["kernelc.vectorize.lane_ratio"] = _ratio(vector_n, launches)

    enqueue_s, enqueue_n = self_s("ocl.queue.enqueue_kernel"), count("ocl.queue.enqueue_kernel")
    out["ocl.queue.enqueue_us_per_launch"] = (
        None if enqueue_s is None else _ratio(enqueue_s * 1e6, enqueue_n))
    for metric, span in _SELF_TIME_SPANS.items():
        out[metric] = self_s(span)
    out["analysis.races.observed_events"] = count("analysis.races.observe")
    out["skelcl.runtime.init_ms"] = (
        overall.get("skelcl.runtime.init", nothing)[2] * 1e3
        if known("skelcl.runtime.init") else None)

    if known("jit.decorate", "jit.lower_source"):
        decorate = overall.get("jit.decorate", nothing)
        lower = overall.get("jit.lower_source", nothing)
        out["jit.lower.ms_per_function"] = _ratio((decorate[0] + lower[0]) * 1e3,
                                                  decorate[1] or lower[1])
        out["jit.specializations"] = lower[1]
    else:
        out["jit.lower.ms_per_function"] = out["jit.specializations"] = None

    out["bench.unattributed_share"] = _ratio(wall - spans_module.root_time(win), wall)
    out["bench.unresolved_spans"] = len(tracer.unresolved)
    return out


#: ``*_self_s`` metric -> the span whose window self time it reports.
_SELF_TIME_SPANS = {
    "analysis.access.self_s": "analysis.access",
    "analysis.races.observe_self_s": "analysis.races.observe",
    "ocl.program.build_self_s": "ocl.program.build",
    "ocl.queue.enqueue_kernel_self_s": "ocl.queue.enqueue_kernel",
    "ocl.queue.enqueue_transfer_self_s": "ocl.queue.enqueue_transfer",
    "ocl.executor.self_s": "ocl.executor",
    "ocl.context.finish_self_s": "ocl.context.finish",
    "skelcl.map.call_self_s": "skelcl.map.call",
    "skelcl.zip.call_self_s": "skelcl.zip.call",
    "skelcl.reduce.call_self_s": "skelcl.reduce.call",
    "skelcl.scan.call_self_s": "skelcl.scan.call",
    "skelcl.mapoverlap.call_self_s": "skelcl.mapoverlap.call",
    "skelcl.allpairs.call_self_s": "skelcl.allpairs.call",
    "skelcl.container.upload_self_s": "skelcl.container.upload",
    "skelcl.container.download_self_s": "skelcl.container.download",
    "plan.planner.defer_self_s": "plan.planner.defer",
    "plan.planner.flush_self_s": "plan.planner.flush",
    "plan.compose.self_s": "plan.compose",
    "serve.submit_self_s": "serve.submit",
    "serve.scheduler.drain_self_s": "serve.scheduler.drain",
    "serve.server.dispatch_self_s": "serve.server.dispatch",
}


def drift_ratio(step_walls: Sequence[float], period: int = 1) -> float:
    """Median wall time of the window's last steps over its first.  The
    two groups are whole periods of the workload's op mix (at least ten
    steps each); a window too short for two such groups yields 0."""
    group = period * -(-10 // period)
    if len(step_walls) < 2 * group:
        return 0.0
    return statistics.median(step_walls[-group:]) / statistics.median(step_walls[:group])


def shares(tracer, first_step: int, window_steps: int,
           wall: float) -> List[Tuple[str, float, float]]:
    """``(span name, self seconds, share of the window's wall time)``,
    largest first — the ceiling for any later claim on that layer."""
    win = spans_module.window(tracer.spans, first_step, first_step + window_steps)
    rows = [(name, self_s, _ratio(self_s, wall))
            for name, (self_s, _, _) in spans_module.self_times(win).items()]
    return sorted(rows, key=lambda row: -row[1])
