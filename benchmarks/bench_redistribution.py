"""ABL-DISTR: the cost of runtime redistribution (§3.2).

The paper: "Container's distribution can be changed at runtime: this
implies data exchanges between multiple GPUs and the CPU, which are
performed by the SkelCL implementation implicitly."  This bench
measures the implicit transfer volume and simulated time of every
distribution change on a 4-GPU system, verifying the expected traffic
(download once, upload per target-distribution placement).
"""

import numpy as np
import pytest

import repro.skelcl as skelcl
from repro import ocl
from repro.reporting import render_table

from conftest import full_scale


def _measure_redistributions(n):
    itembytes = 4
    transitions = [
        (skelcl.Single(), skelcl.Block()),
        (skelcl.Block(), skelcl.Copy()),
        (skelcl.Copy(), skelcl.Block()),
        (skelcl.Block(), skelcl.Overlap(n // 64)),
        (skelcl.Overlap(n // 64), skelcl.Single()),
    ]
    rows = []
    for source, target in transitions:
        runtime = skelcl.init(num_devices=4, spec=ocl.TESLA_T10)
        vec = skelcl.Vector(data=np.zeros(n, np.float32))
        vec.ensure_on_devices(source)
        vec.mark_written_on_devices()  # live device data forces the exchange
        # PCIe traffic only: in-place halo refreshes also issue
        # device-local copy_buffer commands, which count into
        # total_transfer_bytes but never cross the host link.
        bytes_before = sum(q.total_pcie_bytes for q in runtime.queues)
        ns_before = runtime.elapsed_ns()
        vec.set_distribution(target)
        moved = sum(q.total_pcie_bytes for q in runtime.queues) - bytes_before
        elapsed = runtime.elapsed_ns() - ns_before
        # Expected PCIe traffic: block -> overlap grows storage in place
        # and exchanges only the halo units (each crosses the link twice,
        # owner -> host -> consumer); every other transition here is a
        # full download-once + upload-per-chunk exchange.
        stored_after = sum(c.stored_size for c in target.chunks(n, runtime.partition))
        if isinstance(source, skelcl.Block) and isinstance(target, skelcl.Overlap):
            # In-place grow: only the halo units cross the link (twice).
            halo_units = stored_after - n
            expected = 2 * halo_units * itembytes
        elif isinstance(source, skelcl.Copy) and isinstance(target, skelcl.Block):
            expected = 0  # ownership shrinks; every device already holds its block
        else:
            expected = n * itembytes + stored_after * itembytes
        rows.append((f"{source!r} -> {target!r}", moved, expected, f"{elapsed / 1e6:.3f} ms"))
        skelcl.terminate()
    return rows


def test_redistribution_cost(benchmark, record_result):
    n = 1 << 22 if full_scale() else 1 << 18
    rows = benchmark.pedantic(_measure_redistributions, args=(n,), iterations=1, rounds=1)
    record_result(
        "redistribution",
        render_table(
            ["transition", "moved (bytes)", "expected", "simulated time"],
            rows,
            title=f"ABL-DISTR: implicit redistribution of {n} floats on 4 GPUs",
        ),
    )
    for _name, moved, expected, _time in rows:
        assert moved == expected
