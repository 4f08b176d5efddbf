"""Perf smoke check and tracked benchmark trajectory.

Two jobs in one script:

1. **Fig. 5 timing** (``--only fig5`` or ``all``): times the Fig. 5
   Sobel benchmark (``benchmarks/bench_fig5_sobel.py``) wall-clock, plus
   an in-process timing of the SkelCL Sobel application, on the lockstep
   engine every launch runs on; the benchmark's own assertions are the
   check.
2. **Fusion gate** (``--only fusion`` or ``all``): runs producer/consumer
   pipelines eagerly and under the lazy planner and asserts the fused
   schedules are bit-exact while launching fewer kernels and moving
   strictly less modeled global memory.

Each job writes its measurements — wall-clock, modeled time from the
timing model, and ExecutionCounters totals — to a ``BENCH_*.json`` file
at the repo root (``BENCH_fig5.json`` / ``BENCH_fusion.json``), so every
PR's perf deltas are recorded in-tree, not anecdotal.

Usage::

    PYTHONPATH=src python benchmarks/perf_smoke.py \
        --output benchmarks/results/perf_smoke.json
    PYTHONPATH=src python benchmarks/perf_smoke.py --only fusion
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_BENCH = os.path.join(_REPO_ROOT, "benchmarks", "bench_fig5_sobel.py")

SCALE = "float func(float x) { return x * 2.0f; }"
SHIFT = "float func(float x) { return x + 3.0f; }"
ADD = "float func(float x, float y) { return x + y; }"
MUL = "float func(float x, float y) { return x * y; }"


def _import_repro():
    src = os.path.join(_REPO_ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import repro.skelcl as skelcl
    from repro import ocl
    return skelcl, ocl


def _session_counters(runtime):
    """ExecutionCounters totals for everything this session ran."""
    metrics = runtime.metrics
    return {
        "kernel_launches": metrics.value("skelcl_commands_total", kind="ndrange_kernel"),
        "kernel_ops": metrics.value("skelcl_kernel_ops_total"),
        "global_memory_bytes": sum(
            event.info.get("global_bytes", 0)
            for queue in runtime.context.queues
            for event in queue.events
            if event.command_type == "ndrange_kernel"
        ),
        "transfer_bytes": sum(q.total_transfer_bytes for q in runtime.context.queues),
    }


# -- Fig. 5 Sobel ------------------------------------------------------------


def time_bench_suite() -> float:
    """Wall-clock seconds for one pytest run of the Fig. 5 benchmark."""
    env = dict(os.environ, PYTHONPATH=os.path.join(_REPO_ROOT, "src"))
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", _BENCH],
        env=env, cwd=_REPO_ROOT, check=True,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
    )
    return time.perf_counter() - start


def run_sobel_app(size: int, runs: int) -> dict:
    """One-pass modeled time + counters and best-of-``runs`` wall-clock
    for the in-process SkelCL Sobel application."""
    skelcl, ocl = _import_repro()
    from repro.apps.images import synthetic_image
    from repro.apps.sobel import SobelEdgeDetection

    image = synthetic_image(size, size)
    runtime = skelcl.init(num_devices=1, spec=ocl.TEST_DEVICE)
    try:
        app = SobelEdgeDetection()
        app.detect(image)  # warm-up: compile + vectorization plan caches
        runtime.finish_all()
        runtime.context.reset_timelines()
        app.detect(image)  # the measured pass
        modeled_ns = runtime.finish_all()
        counters = _session_counters(runtime)
        best = float("inf")
        for _ in range(runs):
            start = time.perf_counter()
            app.detect(image)
            best = min(best, time.perf_counter() - start)
    finally:
        skelcl.terminate()
    return {
        "sobel_app_best_s": round(best, 4),
        "modeled_ns": modeled_ns,
        "counters": counters,
    }


def bench_fig5(args, results: dict) -> None:
    suite = time_bench_suite()
    app = run_sobel_app(args.size, args.runs)
    results.update(app, bench_fig5_sobel_wallclock_s=round(suite, 3))
    print(f"bench_fig5_sobel {suite:6.2f}s   sobel app ({args.size}x{args.size}) "
          f"{app['sobel_app_best_s']:6.3f}s   modeled {app['modeled_ns']/1e6:8.3f}ms")


# -- Fusion: eager vs lazy planner ---------------------------------------


def _pipeline_map_map_reduce(skelcl, data):
    scale, shift = skelcl.Map(SCALE), skelcl.Map(SHIFT)
    total = skelcl.Reduce(ADD)
    return float(total(shift(scale(skelcl.Vector(data=data)))).get_value())


def _pipeline_zip_map_reduce(skelcl, data):
    # The motivating Fig. 5-style composition: reduce(zip(map(a), map(b))).
    scale, shift = skelcl.Map(SCALE), skelcl.Map(SHIFT)
    mul, total = skelcl.Zip(MUL), skelcl.Reduce(ADD)
    a = skelcl.Vector(data=data)
    b = skelcl.Vector(data=data[::-1].copy())
    return float(total(mul(scale(a), shift(b))).get_value())


FUSION_PIPELINES = {
    "map_map_reduce": _pipeline_map_map_reduce,
    "zip_map_reduce": _pipeline_zip_map_reduce,
}


def run_fusion_case(pipeline, elements: int, lazy: bool) -> dict:
    import numpy as np

    skelcl, ocl = _import_repro()
    data = np.random.RandomState(11).rand(elements).astype(np.float32)
    runtime = skelcl.init(num_devices=1, spec=ocl.TEST_DEVICE, lazy=lazy)
    try:
        start = time.perf_counter()
        value = pipeline(skelcl, data)
        modeled_ns = runtime.finish_all()
        wallclock = time.perf_counter() - start
        counters = _session_counters(runtime)
        fused = runtime.metrics.value  # registry survives terminate
        fusions = sum(
            fused("skelcl_fusion_total", rule=rule)
            for rule in ("map_map", "zip_map", "map_reduce")
        )
    finally:
        skelcl.terminate()
    return {
        "result": value,
        "wallclock_s": round(wallclock, 4),
        "modeled_ns": modeled_ns,
        "counters": counters,
        "fusions": fusions,
    }


def bench_fusion(args, results: dict) -> bool:
    ok = True
    for name, pipeline in FUSION_PIPELINES.items():
        eager = run_fusion_case(pipeline, args.elements, lazy=False)
        lazy = run_fusion_case(pipeline, args.elements, lazy=True)
        bit_exact = eager["result"] == lazy["result"]
        entry = {
            "eager": eager,
            "lazy": lazy,
            "bit_exact": bit_exact,
            "deltas": {
                key: eager["counters"][key] - lazy["counters"][key]
                for key in eager["counters"]
            },
        }
        results["pipelines"][name] = entry
        e, l = eager["counters"], lazy["counters"]
        print(f"{name}: launches {e['kernel_launches']} -> {l['kernel_launches']}, "
              f"ops {e['kernel_ops']} -> {l['kernel_ops']}, "
              f"global bytes {e['global_memory_bytes']} -> {l['global_memory_bytes']}, "
              f"modeled {eager['modeled_ns']/1e3:.1f}us -> {lazy['modeled_ns']/1e3:.1f}us"
              f"{'' if bit_exact else '   MISMATCH'}")
        if not bit_exact:
            print(f"FAIL: {name} fused result differs from eager")
            ok = False
        if l["kernel_launches"] >= e["kernel_launches"]:
            print(f"FAIL: {name} fused schedule does not launch fewer kernels")
            ok = False
        if l["global_memory_bytes"] >= e["global_memory_bytes"]:
            print(f"FAIL: {name} fused schedule does not reduce modeled "
                  "global-memory traffic")
            ok = False
        if lazy["fusions"] < 1:
            print(f"FAIL: {name} recorded no fusions under the lazy planner")
            ok = False
    acceptance = results["pipelines"]["map_map_reduce"]["lazy"]["counters"]
    if acceptance["kernel_launches"] > 2:
        print("FAIL: map-map-reduce needs more than 2 launches on one device")
        ok = False
    if ok:
        print("OK: fused pipelines are bit-exact and strictly cheaper")
    return ok


# -- entry point ---------------------------------------------------------


def _write_json(path: str, payload: dict) -> None:
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.relpath(path, _REPO_ROOT)}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default=None,
                        help="also write the fig5 timings JSON to this path")
    parser.add_argument("--only", choices=("all", "fig5", "fusion"), default="all",
                        help="which benchmark group to run")
    parser.add_argument("--size", type=int, default=256,
                        help="Sobel image edge length for the app timing")
    parser.add_argument("--runs", type=int, default=3,
                        help="timed repetitions for the app timing")
    parser.add_argument("--elements", type=int, default=1 << 15,
                        help="vector length for the fusion pipelines")
    parser.add_argument("--bench-dir", default=_REPO_ROOT,
                        help="directory for the tracked BENCH_*.json files")
    args = parser.parse_args()

    ok = True
    if args.only in ("all", "fig5"):
        results = {"schema": "skelcl-bench-v2", "benchmark": "fig5_sobel",
                   "image_size": args.size, "runs": args.runs}
        bench_fig5(args, results)
        _write_json(os.path.join(args.bench_dir, "BENCH_fig5.json"), results)
        if args.output:
            _write_json(args.output, results)

    if args.only in ("all", "fusion"):
        results = {"schema": "skelcl-bench-v1", "benchmark": "fusion",
                   "elements": args.elements, "pipelines": {}}
        ok = bench_fusion(args, results) and ok
        _write_json(os.path.join(args.bench_dir, "BENCH_fusion.json"), results)

    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
