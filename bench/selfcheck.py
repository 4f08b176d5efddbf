"""``python3 bench/run.py --check``: is the benchmark itself trustworthy
on this tree and this machine?  (A separate command from the benchmark
run; later PRs and CI call it before relying on the numbers.)

For every workload it makes two untraced runs at full length — fewer
operations would starve ``op_ms_p90`` — and one traced run, then checks:

(a) every exact metric is identical in all three runs (the window is
    the same work, traced or not);
(b) the two untraced runs agree on each host metric within that
    metric's own regression bound;
(c) no operation failed, every wrapped entry point resolved, and each
    recorded at least one span on the workload meant to exercise it;
(d) the exercise/bypass structure holds: lane ratio 1 on
    ``stencil_frames`` and 0 on ``fallback_peritem``, fusions on
    ``fused_pipeline`` and none on ``dispatch_small``, plan and serve
    layers idle outside their workloads, and ``stencil_frames``
    simulating at least eight times as many kernel ops per host second
    as ``dispatch_small``.

``--selftest`` proves the failure accounting: a run whose results are
deliberately corrupted must report ``failed > 0``.
"""

from __future__ import annotations

from typing import Dict, List

import run as runner

#: Span name -> the workload that must record it at least once.
EXERCISED_BY: Dict[str, str] = {
    **{name: "build_lifecycle" for name in (
        "kernelc.preprocess", "kernelc.frontend", "kernelc.lint", "kernelc.compiler",
        "kernelc.progcache.load", "kernelc.progcache.store", "ocl.program.build")},
    **{name: "dispatch_small" for name in (
        "kernelc.vectorize.plan", "kernelc.vectorize.execute", "analysis.access",
        "ocl.executor", "ocl.queue.enqueue_kernel", "ocl.queue.enqueue_transfer",
        "skelcl.runtime.init", "skelcl.map.call", "skelcl.zip.call",
        "skelcl.reduce.call", "skelcl.scan.call", "skelcl.mapoverlap.call",
        "skelcl.allpairs.call", "skelcl.container.upload",
        "skelcl.container.download", "jit.decorate", "jit.lower_source")},
    **{name: "fused_pipeline" for name in (
        "plan.planner.defer", "plan.planner.flush", "plan.compose")},
    **{name: "serve_mixed" for name in (
        "analysis.races.observe", "ocl.context.finish", "serve.submit",
        "serve.scheduler.drain", "serve.server.dispatch")},
}

_LAZY_ONLY = ("plan.planner.defer_self_s", "plan.planner.flush_self_s", "plan.compose.self_s")
_SERVE_ONLY = ("serve.submit_self_s", "serve.scheduler.drain_self_s",
               "serve.server.dispatch_self_s")

#: Per workload: (description, predicate over the traced run's metrics).
STRUCTURE: Dict[str, List] = {
    "dispatch_small": [
        ("no fusion on the eager path", lambda m: m["plan.fusions"] == 0),
        ("no per-item launches", lambda m: m["kernelc.peritem.launches"] == 0),
        ("plan and serve layers idle",
         lambda m: all(m[name] == 0 for name in _LAZY_ONLY + _SERVE_ONLY)),
    ],
    "stencil_frames": [
        ("every launch on the vector engine", lambda m: m["kernelc.vectorize.lane_ratio"] == 1.0),
        ("plan and serve layers idle",
         lambda m: all(m[name] == 0 for name in _LAZY_ONLY + _SERVE_ONLY)),
    ],
    "fallback_peritem": [
        ("every launch on the per-item engine",
         lambda m: m["kernelc.peritem.launches"] > 0 and m["kernelc.vectorize.lane_ratio"] == 0),
    ],
    "build_lifecycle": [
        ("one cold, one disk and at least one memory build per op",
         lambda m: m["ocl.program.builds_compiled"] == m["ocl.program.builds_disk"] > 0
         and m["ocl.program.builds_memory"] >= m["ocl.program.builds_disk"]
         and m["kernelc.progcache.hit_ratio"] == 0.5),
    ],
    "fused_pipeline": [
        ("fusions and a fallback per op",
         lambda m: m["plan.fusions"] > 0 and m["plan.fallbacks"] > 0),
        ("serve layer idle", lambda m: all(m[name] == 0 for name in _SERVE_ONLY)),
    ],
    "serve_mixed": [
        ("batching happens, nothing refused, no race",
         lambda m: m["serve.batches"] > 0 and m["serve.refused"] == 0
         and m["analysis.races.found"] == 0 and m["analysis.races.observed_events"] > 0),
    ],
}


class Report:
    def __init__(self) -> None:
        self.problems = 0

    def expect(self, ok: bool, text: str) -> None:
        print(f"  [{'ok' if ok else 'FAIL'}] {text}")
        self.problems += 0 if ok else 1


def _worse_by(first: float, second: float, better: str) -> float:
    """How much worse the worse of two values is, as a share of the other."""
    low, high = sorted((first, second))
    return (high - low) / low if better == "lower" else (high - low) / high


def check(names: List[str], seed: int, seconds: float, spec: dict) -> int:
    report = Report()
    kops: Dict[str, float] = {}
    for name in names:
        print(f"\n== {name} ==")
        first = runner.measure(name, seed, seconds, 0)
        second = runner.measure(name, seed, seconds, 0)
        traced = runner.measure(name, seed, seconds, 1)
        kops[name] = first["metrics"]["sim_kops_per_host_s"]

        differing = [key for key, value in first["exact"].items()
                     if not value == second["exact"][key] == traced["exact"][key]]
        report.expect(not differing, "(a) exact metrics identical over two untraced runs and "
                      f"the traced run ({len(first['exact'])} values)"
                      + (f": differ in {differing}" if differing else ""))
        for metric in spec["end_to_end"]:
            a, b = (run["metrics"][metric["name"]] for run in (first, second))
            gap = _worse_by(a, b, metric["better"])
            report.expect(gap <= metric["bound"],
                          f"(b) {metric['name']}: {a:.6g} vs {b:.6g} {metric['unit']} "
                          f"({gap:.1%} apart, bound {metric['bound']:.0%})")
        for run in (first, second):
            report.expect(run["beyond_p90"] >= 10,
                          f"(b) {run['samples']} latency samples, {run['beyond_p90']} beyond p90")
        failed = sum(run["failed"] + run["warmup_failed"] for run in (first, second, traced))
        report.expect(failed == 0, f"(c) no failed operation ({failed} failed)")
        report.expect(not traced["unresolved"],
                      f"(c) every entry point resolved {traced['unresolved'] or ''}")
        silent = [span for span, owner in EXERCISED_BY.items()
                  if owner == name and not traced["span_counts"].get(span)]
        report.expect(not silent, "(c) every entry point this workload exercises recorded a span"
                      + (f": none from {silent}" if silent else ""))
        overhead = traced["metrics"]["bench.trace_overhead_ratio"]
        report.expect(overhead <= 1.10, f"(c) tracing overhead {overhead:.3f} <= 1.10")
        unattributed = traced["metrics"]["bench.unattributed_share"]
        report.expect(unattributed <= 0.25, f"(c) unattributed share {unattributed:.3f} <= 0.25")
        for text, holds in STRUCTURE[name]:
            report.expect(holds(traced["metrics"]), f"(d) {text}")
    if {"stencil_frames", "dispatch_small"} <= kops.keys():
        ratio = kops["stencil_frames"] / kops["dispatch_small"]
        report.expect(ratio >= 8, "(d) stencil_frames simulates "
                      f"{ratio:.1f}x the kernel ops per host second of dispatch_small (>= 8x)")
    print(f"\n{'PASS' if not report.problems else 'FAIL'}: {report.problems} problem(s)")
    return 1 if report.problems else 0


def selftest(names: List[str], seed: int) -> int:
    """A run with deliberately corrupted results must say so."""
    report = Report()
    for name in names:
        result = runner.run_child(name, seed, 2.0, 0, corrupt=True)
        line = runner.contract_line(result, runner.manifest())
        report.expect(result["failed"] > 0 and '"correct": false' in line,
                      f"{name}: {result['failed']} of {result['attempted']} corrupted or "
                      "failed operations reported")
    print(f"\n{'PASS' if not report.problems else 'FAIL'}: {report.problems} problem(s)")
    return 1 if report.problems else 0
