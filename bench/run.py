#!/usr/bin/env python3
"""The benchmark: host-clock and modeled-clock metrics for six workloads.

    python3 bench/run.py                        # every workload, both runs, a report
    python3 bench/run.py --workload W --seed N  # one workload
    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1
                                                # one run; last line is the result object
    python3 bench/run.py --check                # repeatability self-check (selfcheck.py)
    python3 bench/run.py --selftest             # a corrupted result must be reported

Every run happens in a fresh child process (``child.py``) driven by one
Python thread, with a clean environment: numeric libraries pinned to
one thread, every ``SKELCL_*`` variable unset and ``SKELCL_DIR`` pointed
at a fresh directory under ``bench/out/`` so ``~/.cache/skelcl`` is
never read or written.  Metric names, units, directions and regression
bounds are data in ``BENCHMARK.json``; see ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 170


def manifest() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def child_env(skelcl_dir: str) -> Dict[str, str]:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("SKELCL_")}
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0", SKELCL_DIR=skelcl_dir,
               PYTHONPATH=os.path.join(ROOT, "src"))
    return env


def run_child(workload: str, seed: int, seconds: float, trace: int,
              setup_only: bool = False, corrupt: bool = False) -> dict:
    """One child process; returns the object it printed last."""
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        raise SystemExit(f"bench: no src/repro under {ROOT}: the benchmark runs the "
                         "library of the checkout it sits in")
    os.makedirs(OUT_DIR, exist_ok=True)
    skelcl_dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR)
    command = [sys.executable, os.path.join(BENCH_DIR, "child.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--out-dir", OUT_DIR]
    if setup_only:
        command.append("--setup-only")
    if corrupt:
        command.append("--corrupt")
    try:
        command += ["--spawned-at", repr(time.monotonic())]
        done = subprocess.run(command, env=child_env(skelcl_dir), cwd=ROOT,
                              stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    finally:
        shutil.rmtree(skelcl_dir, ignore_errors=True)
    if done.returncode != 0:
        raise SystemExit(f"bench: {workload} child exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run as the contract defines it.  An untraced run also sets up
    ``SETUP_REPEATS - 1`` more times and reports the median ``setup_s``."""
    result = run_child(workload, seed, seconds, trace)
    if not trace:
        setups = [result["metrics"]["setup_s"]] + [
            run_child(workload, seed, 0, 0, setup_only=True)["setup_s"]
            for _ in range(SETUP_REPEATS - 1)]
        result["setup_s_samples"] = setups
        result["metrics"]["setup_s"] = statistics.median(setups)
    return result


def contract_line(result: dict, spec: dict) -> str:
    """The result object the driver reads: exactly the manifest's
    end-to-end metrics (``--trace 0``) or per-layer metrics
    (``--trace 1``).  A per-layer value whose entry points are gone is
    reported as 0 — ``bench.unresolved_spans`` says so."""
    declared = spec["per_layer"] if result["trace"] else spec["end_to_end"]
    metrics = {}
    for metric in declared:
        value = result["metrics"][metric["name"]]
        metrics[metric["name"]] = {"value": 0.0 if value is None else value,
                                   "unit": metric["unit"]}
    failed = result["failed"] + result["warmup_failed"]
    return json.dumps({"correct": failed == 0, "attempted": result["attempted"],
                       "failed": failed, "metrics": metrics})


def fingerprint() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {"nproc": os.cpu_count(), "cpu": cpu, "platform": platform.platform(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_sha": sha}


def _format(value: Optional[float]) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, int) or float(value).is_integer():
        return f"{int(value)}"
    return f"{value:.6g}"


def print_report(name: str, untraced: Optional[dict], traced: Optional[dict],
                 spec: dict) -> None:
    print(f"\n== {name} ==")
    if untraced is not None:
        fail_share = untraced["failed"] / untraced["attempted"]
        print(f"  ops attempted {untraced['attempted']}, failed {untraced['failed']} "
              f"(fail_share {fail_share:.4f}); latency samples {untraced['samples']}, "
              f"{untraced['beyond_p90']} beyond p90; host times at reference speed "
              f"(host_speed {untraced['host_speed']:.3f}: wall = reported x that)")
        for metric in spec["end_to_end"]:
            value = untraced["metrics"][metric["name"]]
            print(f"  {metric['name']:<24}{_format(value):>14} {metric['unit']:<6}"
                  f" ({metric['better']} is better; bound {metric['bound']:.0%})")
        print(f"  {'op_ms_p90':<24}{_format(untraced['metrics']['op_ms_p90']):>14} ms     "
              "(not gated: see README)")
        print(f"  {'modeled_ns_per_op':<24}{_format(untraced['exact']['modeled_ns_per_op']):>14}"
              f" ns     (exact: must not change)")
        for text in untraced["tracebacks"]:
            print("  failure:\n    " + text.strip().replace("\n", "\n    "))
    if traced is not None:
        print(f"  -- per layer (window of {traced['window_ops']} ops, traced; "
              f"host_speed {traced['host_speed']:.3f}) --")
        for metric in spec["per_layer"]:
            value = traced["metrics"][metric["name"]]
            print(f"  {metric['name']:<44}{_format(value):>16} {metric['unit']}")
        print("  -- self-time shares of the window's wall time --")
        for metric, seconds, share in traced["shares"]:
            print(f"  {metric:<44}{seconds:>12.4f} s {share:>7.1%}")
        if traced["unresolved"]:
            print("  unresolved entry points: " + ", ".join(traced["unresolved"]))


def main(argv=None) -> int:
    spec = manifest()
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=names, help="default: all six")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="a single run; the last output line is the result object")
    parser.add_argument("--json", metavar="OUT", help="also write the report as JSON")
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)

    if args.check or args.selftest:
        import selfcheck

        chosen = [args.workload] if args.workload else names
        if args.selftest:
            return selfcheck.selftest(chosen, args.seed)
        return selfcheck.check(chosen, args.seed, args.seconds, spec)

    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        result = measure(args.workload, args.seed, args.seconds, args.trace)
        print_report(args.workload, None if args.trace else result,
                     result if args.trace else None, spec)
        print(contract_line(result, spec))
        return 0

    import layers

    report = {"schema": "skelcl-bench-v1", "machine": fingerprint(), "seed": args.seed,
              "seconds": args.seconds, "workloads": {},
              "expected_to_move": {name: moves for name, _, _, moves in layers.PER_LAYER}}
    print(f"machine: {json.dumps(report['machine'])}")
    for name in [args.workload] if args.workload else names:
        untraced = measure(name, args.seed, args.seconds, 0)
        traced = measure(name, args.seed, args.seconds, 1)
        print_report(name, untraced, traced, spec)
        report["workloads"][name] = {"untraced": untraced, "traced": traced}
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
