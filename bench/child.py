"""One benchmark run of one workload, in a fresh process.

``run.py`` starts this with a clean environment (see ``run.child_env``)
and reads the single JSON object it prints last.  The run has three
parts: set-up (import, ``init``, inputs and references, warm-up steps
that fill the build and plan caches), a *window* of
``Workload.window_steps`` steps over which the exact counts are taken
(and, with ``--trace 1``, the spans), and a tail of further steps until
the time budget is used: ``--seconds`` of steps in all for an untraced
run, ``--seconds / 4`` of untraced steps after the window for a traced
one (the same process measures both, which gives the tracing overhead).
Host times are reported at reference speed (``stats.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from typing import Dict, List, Optional

#: Traceback texts kept in the result (the count of failures is exact).
_KEPT_TRACEBACKS = 5
#: ``--corrupt`` damages the result of every such step (self-test only).
_CORRUPT_EVERY = 7
#: Calibration samples taken right after set-up, to correct ``setup_s``.
_SETUP_CALIBRATIONS = 15


def snapshot(workload) -> dict:
    """Exact counts at this point of the run: the modeled clock, the
    session's counters and the public queue totals."""
    session = workload.session
    modeled_ns = workload.modeled_ns()  # resolves every pending timestamp
    queues = session.queues
    registry = session.metrics.snapshot()
    return {
        "modeled_ns": modeled_ns,
        "counters": registry["counters"],
        "gauges": registry["gauges"],
        "transfer_bytes": sum(q.total_transfer_bytes for q in queues),
        "pcie_bytes": sum(q.total_pcie_bytes for q in queues),
        "kernel_ns": sum(q.total_kernel_ns for q in queues),
        "transfer_ns": sum(q.total_transfer_ns for q in queues),
        "global_bytes": sum(event.info["global_bytes"] for q in queues
                            for event in q.kernel_events()),
        "races": len(session.context.check_races()),
    }


def corrupted(result):
    """``result`` with one number changed — what a wrong kernel would
    hand back (used by ``run.py --selftest``)."""
    import numpy as np

    if isinstance(result, (list, tuple)):
        return type(result)([*result[:-1], corrupted(result[-1])])
    if isinstance(result, np.ndarray):
        damaged = result.copy()
        damaged.flat[0] = corrupted(damaged.flat[0])
        return damaged
    if isinstance(result, (int, np.integer)):
        return result ^ 1
    return result * 2 + 3


def scope_costs(session, directory: str) -> Dict[str, float]:
    """One SkelScope snapshot and one trace export, timed."""
    started = time.perf_counter()
    registry = session.metrics_snapshot()
    snapshot_ms = (time.perf_counter() - started) * 1e3
    path = os.path.join(directory, "scope.trace.json")
    started = time.perf_counter()
    session.export_trace(path)
    export_ms = (time.perf_counter() - started) * 1e3
    # Count the events line by line: parsing the whole file would allocate
    # and free one buffer of many megabytes, which raises glibc's dynamic
    # mmap threshold and makes every later large NumPy temporary cheaper
    # than it was during the window (measured: -10 % per stencil frame).
    with open(path) as handle:
        events = sum(line.count('"ph":') for line in handle)
    os.unlink(path)
    return {
        "scope.metrics.series": sum(len(series) for kind in registry.values()
                                    for series in kind.values()),
        "scope.metrics.snapshot_ms": snapshot_ms,
        "scope.trace.events": events,
        "scope.trace.export_ms": export_ms,
    }


def run(args) -> dict:
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    import layers
    import stats
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.setup()
    first = workload.warmup_steps
    warmup_failed = sum(
        workload.check(payload, workload.step(payload))
        for payload in map(workload.prepare, range(first)))
    setup_wall_s = time.monotonic() - args.spawned_at
    setup_speed = stats.speed_factors(
        [stats.calibrate() for _ in range(_SETUP_CALIBRATIONS)], segments=1)[0]
    if args.setup_only:
        workload.close()
        return {"setup_s": setup_wall_s / setup_speed, "host_speed": setup_speed,
                "warmup_failed": warmup_failed}

    def kernel_ops() -> float:
        return workload.session.metrics.value("skelcl_kernel_ops_total")

    per_step = workload.ops_per_step
    window_end = first + workload.window_steps
    calibrations: List[float] = []          # one before each step
    walls: List[float] = []                 # per step, in order
    step_latencies: List[List[float]] = []  # per step: one latency per operation
    tracebacks: List[str] = []
    attempted = failed = 0
    scope: Dict[str, float] = {}
    window_rss_kib = 0
    before = snapshot(workload)
    after: Optional[dict] = None
    ops_before = kernel_ops()
    deadline = time.perf_counter() + args.seconds
    index = first
    while True:
        if index == window_end:
            if tracer is not None:
                tracer.op = -1
            after = snapshot(workload)
            window_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if tracer is not None:
                scope = scope_costs(workload.session, os.environ["SKELCL_DIR"])
                tracer.uninstall()
                deadline = time.perf_counter() + args.seconds / 4.0
        elif index > window_end and time.perf_counter() >= deadline:
            break
        calibrations.append(stats.calibrate())
        payload = workload.prepare(index)
        if tracer is not None and index < window_end:
            tracer.op = index
        attempted += per_step
        result = error = None
        latencies: List[float] = []
        started = time.perf_counter()
        try:
            result = workload.step(payload)
        except Exception:  # the op boundary: count it, keep the traceback, go on
            error = traceback.format_exc()
        ended = time.perf_counter()
        walls.append(ended - started)
        if error is None:
            try:
                latencies = workload.latencies(started, ended, result)
                if args.corrupt and index % _CORRUPT_EVERY == 0:
                    result = corrupted(result)
                failed += workload.check(payload, result)
            except Exception:
                error = traceback.format_exc()
        if error is not None:
            failed += per_step
            if len(tracebacks) < _KEPT_TRACEBACKS:
                tracebacks.append(error)
        step_latencies.append(latencies)
        index += 1
    simulated_kops = (kernel_ops() - ops_before) / 1e3
    events_retained = sum(len(q.events) for q in workload.session.queues)

    # Host times at reference speed: see stats.py.
    speeds = stats.speed_factors(calibrations)
    window_wall_s = sum(walls[:workload.window_steps])  # as measured, like the spans
    walls = [wall / speed for wall, speed in zip(walls, speeds)]
    step_latencies = [[latency / speed for latency in group]
                      for group, speed in zip(step_latencies, speeds)]
    window_steps = workload.window_steps
    window_ops = window_steps * per_step
    exact = layers.counts(before, after, window_ops)
    exact.update(workload.modeled_latencies())
    out = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "attempted": attempted, "failed": failed, "warmup_failed": warmup_failed,
        "tracebacks": tracebacks, "steps": len(walls), "window_ops": window_ops,
        "exact": exact, "host_speed": statistics.median(speeds),
    }
    if tracer is None:
        timed_s = sum(walls)
        summary = stats.latency_summary([x for group in step_latencies for x in group])
        out["samples"] = summary["samples"]
        out["beyond_p90"] = summary["beyond_p90"]
        out["metrics"] = {
            "setup_s": setup_wall_s / setup_speed,
            "ops_per_s": (attempted - failed) / timed_s,
            "op_ms_p50": summary["p50_ms"],
            "op_ms_p90": summary["p90_ms"],
            "sim_kops_per_host_s": simulated_kops / timed_s,
            "peak_rss_mb": window_rss_kib / 1024.0,
        }
    else:
        window_walls = walls[:window_steps]
        window_speed = stats.speed_factors(calibrations[:window_steps], segments=1)[0]
        values = dict(exact)
        values.update(layers.timings(tracer, first, window_steps, window_wall_s,
                                     window_speed, exact["ocl.kernel_ops"] * window_ops))
        values.update(scope)
        for name in ("scope.metrics.snapshot_ms", "scope.trace.export_ms"):
            values[name] /= window_speed
        values["bench.host_drift_ratio"] = layers.drift_ratio(window_walls, workload.period)
        values["ocl.events_retained"] = events_retained
        values["bench.fail_share"] = failed / attempted
        # Compare like with like: the tail is cut to whole periods of the op mix.
        traced = [x for group in step_latencies[:window_steps] for x in group]
        tail = step_latencies[window_steps:]
        tail = [x for group in tail[:len(tail) - len(tail) % workload.period] for x in group]
        values["bench.trace_overhead_ratio"] = (
            stats.percentile(traced, 50) / stats.percentile(tail, 50)
            if traced and tail else 0.0)
        values["op_ms_p90"] = stats.percentile(
            [x for group in step_latencies for x in group], 90) * 1e3
        out["metrics"] = values
        out["shares"] = layers.shares(tracer, first, window_steps, window_wall_s)
        out["unresolved"] = tracer.unresolved
        out["span_counts"] = {name: n for name, (_, n, _) in
                              spans.self_times(tracer.spans).items()}
        spans_file = os.path.join(args.out_dir, f"{args.workload}.spans.json")
        tracer.write(spans_file)
        out["spans_file"] = os.path.relpath(spans_file)
    workload.close()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before it started this process")
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--corrupt", action="store_true")
    args = parser.parse_args(argv)
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
