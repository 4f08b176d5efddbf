"""Heterogeneous partitioning gate and tracked benchmark.

Runs a compute-heavy Map over a simulated 2x Tesla T10 + 1x 8-core CPU
pool (~4:1 modeled throughput skew per GPU vs the CPU) under four
partitioning policies and records the modeled critical-path kernel time
of each:

- **even**: the historic 1/N split — the baseline every prior PR used.
- **throughput**: one-shot split proportional to modeled peak
  throughput (``Partition.from_specs``), no feedback.
- **adaptive**: starts even, re-sizes from measured per-device kernel
  time after each flush (``AdaptivePartitioner``).
- **oracle**: fits the linear per-device cost model from two measured
  splits, scans every CPU share at 256-element granularity, then runs
  the best candidate — the exhaustive-search reference.

The regression gate asserts the acceptance criteria of the
heterogeneous-scheduling milestone: the adaptive policy converges
within 3 re-partitions, beats the even split by >= 2x on critical-path
kernel time, lands within 10% of the oracle, and every policy's output
is bit-exact against the even baseline.

Results go to the tracked ``BENCH_hetero.json`` at the repo root, so
each PR's heterogeneous-scheduling deltas are recorded in-tree.

Usage::

    PYTHONPATH=src python benchmarks/bench_hetero_partition.py
"""

from __future__ import annotations

import argparse
import json
import os
import sys

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DEVICES = ["tesla", "tesla", "cpu-8core"]

# 64 dependent FMAs per element: compute dominates launch overhead, so
# the 4:1 throughput skew (not the 3.5x launch-cost skew) drives the
# optimal split — the regime heterogeneous partitioning targets.
HEAVY_MAP = """\
float func(float x) {
    float a = x;
    for (int i = 0; i < 64; ++i) {
        a = a * 1.000001f + 0.25f;
    }
    return a;
}"""


def _import_repro():
    src = os.path.join(_REPO_ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import repro.skelcl as skelcl
    return skelcl


def _kernel_ns_by_device(session):
    return [session.metrics.value("skelcl_kernel_ns_total", device=index)
            for index in range(session.num_devices)]


def _iteration(session, skel, vec):
    """One skeleton call; per-device kernel-ns deltas and the output."""
    before = _kernel_ns_by_device(session)
    out = skel(vec)
    session.finish_all()
    after = _kernel_ns_by_device(session)
    return [a - b for a, b in zip(after, before)], out


def run_policies(elements: int, rounds: int) -> dict:
    import numpy as np

    skelcl = _import_repro()
    from repro.skelcl import Partition

    data = np.random.RandomState(7).rand(elements).astype(np.float32)
    results: dict = {"policies": {}}
    with skelcl.init(devices=DEVICES) as session:
        skel = skelcl.Map(HEAVY_MAP)
        vec = skelcl.Vector(data=data)

        even_times, even_out = _iteration(session, skel, vec)
        baseline = even_out.to_numpy()
        results["policies"]["even"] = {
            "critical_path_ns": max(even_times),
            "device_kernel_ns": even_times,
        }

        session.partition = Partition.from_specs(session.specs).quantized()
        prop_times, prop_out = _iteration(session, skel, vec)
        results["policies"]["throughput"] = {
            "critical_path_ns": max(prop_times),
            "device_kernel_ns": prop_times,
            "partition": [round(w, 4) for w in session.partition.weights],
            "bit_exact": bool(np.array_equal(prop_out.to_numpy(), baseline)),
        }

        partitioner = session.use_adaptive(initial="even")
        steady_times = even_times
        adaptive_exact = True
        for _ in range(rounds):
            steady_times, out = _iteration(session, skel, vec)
            adaptive_exact &= bool(np.array_equal(out.to_numpy(), baseline))
        results["policies"]["adaptive"] = {
            "critical_path_ns": max(steady_times),
            "device_kernel_ns": steady_times,
            "partition": [round(w, 4) for w in session.partition.weights],
            "repartitions": partitioner.repartitions,
            "final_imbalance": round(partitioner.last_imbalance, 4),
            "bit_exact": adaptive_exact,
        }

        # Oracle: linear per-device cost fit from the even and a second
        # probe split, then an exhaustive scan of CPU shares (256-element
        # steps, GPUs split evenly); the best candidate is actually run.
        session.partitioner = None
        probe = Partition.of(1, 1, 2)
        session.partition = probe
        probe_times, _probe_out = _iteration(session, skel, vec)
        fits = []
        for index in range(3):
            u1 = Partition.even(3).counts(elements)[index]
            u2 = probe.counts(elements)[index]
            slope = (probe_times[index] - even_times[index]) / (u2 - u1)
            fits.append((even_times[index] - slope * u1, slope))
        best_cpu, best_model = 0, float("inf")
        for cpu_units in range(0, elements + 1, 256):
            gpu_units = -(-(elements - cpu_units) // 2)  # ceil: worst chunk
            model = max(
                fits[0][0] + fits[0][1] * gpu_units,
                fits[1][0] + fits[1][1] * gpu_units,
                fits[2][0] + fits[2][1] * cpu_units,
            )
            if model < best_model:
                best_cpu, best_model = cpu_units, model
        gpu_units = elements - best_cpu
        session.partition = Partition.of(
            gpu_units - gpu_units // 2, gpu_units // 2, best_cpu
        )
        oracle_times, oracle_out = _iteration(session, skel, vec)
        results["policies"]["oracle"] = {
            "critical_path_ns": max(oracle_times),
            "device_kernel_ns": oracle_times,
            "cpu_units": best_cpu,
            "bit_exact": bool(np.array_equal(oracle_out.to_numpy(), baseline)),
        }
    return results


def gate(results: dict) -> bool:
    policies = results["policies"]
    even = policies["even"]["critical_path_ns"]
    prop = policies["throughput"]["critical_path_ns"]
    adaptive = policies["adaptive"]["critical_path_ns"]
    oracle = policies["oracle"]["critical_path_ns"]

    speedup = {
        "throughput_vs_even": round(even / prop, 2),
        "adaptive_vs_even": round(even / adaptive, 2),
        "adaptive_vs_oracle": round(adaptive / oracle, 3),
    }
    results["speedup"] = speedup
    for name, entry in policies.items():
        print(f"{name:>10}: critical path {entry['critical_path_ns']:>10} ns   "
              f"per-device {entry['device_kernel_ns']}")
    print(f"speedup: throughput {speedup['throughput_vs_even']}x, "
          f"adaptive {speedup['adaptive_vs_even']}x vs even; "
          f"adaptive/oracle {speedup['adaptive_vs_oracle']}; "
          f"{policies['adaptive']['repartitions']} re-partition(s)")

    ok = True
    for name in ("throughput", "adaptive", "oracle"):
        if not policies[name]["bit_exact"]:
            print(f"FAIL: {name} output differs from the even baseline")
            ok = False
    if policies["adaptive"]["repartitions"] > 3:
        print("FAIL: adaptive needed more than 3 re-partitions to settle")
        ok = False
    if even < 2.0 * adaptive:
        print("FAIL: adaptive does not beat the even split by >= 2x")
        ok = False
    if adaptive > 1.10 * oracle:
        print("FAIL: adaptive lands more than 10% off the oracle split")
        ok = False
    if ok:
        print("OK: adaptive converges, beats even >= 2x, within 10% of oracle")
    return ok


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
    parser.add_argument("--elements", type=int, default=3 * 32768,
                        help="vector length (default 98304)")
    parser.add_argument("--rounds", type=int, default=6,
                        help="adaptive feedback iterations (default 6)")
    parser.add_argument("--bench-dir", default=_REPO_ROOT,
                        help="directory for the tracked BENCH_hetero.json")
    args = parser.parse_args()

    results = {"schema": "skelcl-bench-v1", "benchmark": "hetero_partition",
               "devices": DEVICES, "elements": args.elements,
               "rounds": args.rounds}
    results.update(run_policies(args.elements, args.rounds))
    ok = gate(results)
    _write_json(os.path.join(args.bench_dir, "BENCH_hetero.json"), results)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
