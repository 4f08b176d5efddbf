#!/usr/bin/env python
"""Data distributions and implicit redistribution (§3.2, Figs. 1-2).

Shows how single/copy/block/overlap place a vector on multiple GPUs,
and how changing the distribution at runtime triggers the implicit
device→host→device exchange the paper describes — with every transfer
accounted by the simulated command queues.

Run:  python examples/distributions.py
"""

import numpy as np

import repro.skelcl as skelcl
from repro import ocl
from repro.reporting import render_table


def transfer_bytes(runtime) -> int:
    # Host-link traffic only: device-local copies issued by in-place
    # redistributions count into total_transfer_bytes but not here.
    return sum(q.total_pcie_bytes for q in runtime.queues)


def main() -> None:
    runtime = skelcl.init(num_devices=4, spec=ocl.TESLA_T10)
    n = 1 << 20  # 1M floats = 4 MiB
    vec = skelcl.Vector(data=np.arange(n, dtype=np.float32))

    rows = []
    for dist in (skelcl.Single(), skelcl.Copy(), skelcl.Block(), skelcl.Overlap(1024)):
        chunks = dist.chunks(n, runtime.partition)
        stored = sum(c.stored_size for c in chunks)
        rows.append((repr(dist), f"{stored * 4 / (1 << 20):.2f} MiB",
                     ", ".join(f"gpu{c.device_index}:{c.stored_size}" for c in chunks)))
    print(render_table(["distribution", "total device memory", "chunks (elements)"], rows,
                       title="How 1M floats are placed on 4 GPUs:"))
    print()

    # Redistribute live device data and watch the implicit transfers.
    vec.ensure_on_devices(skelcl.Block())
    vec.mark_written_on_devices()  # pretend a skeleton wrote it
    before = transfer_bytes(runtime)
    vec.set_distribution(skelcl.Copy())
    moved = transfer_bytes(runtime) - before
    print(f"block -> copy redistribution moved {moved / (1 << 20):.2f} MiB "
          f"(download once, upload to all {runtime.num_devices} GPUs)")

    before = transfer_bytes(runtime)
    vec.set_distribution(skelcl.Overlap(1024))
    moved = transfer_bytes(runtime) - before
    print(f"copy -> overlap(1024) moved {moved / (1 << 20):.2f} MiB")

    print(f"\nsimulated elapsed time: {runtime.elapsed_ns() / 1e6:.2f} ms")
    skelcl.terminate()


if __name__ == "__main__":
    main()
