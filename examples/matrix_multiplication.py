#!/usr/bin/env python
"""Matrix multiplication via the AllPairs skeleton (§3.5, Example 1):
``A × B = allpairs(dotProduct)(A, Bᵀ)`` — scaling over 1-4 GPUs.

Run:  python examples/matrix_multiplication.py
"""

import numpy as np

import repro.skelcl as skelcl
from repro import ocl
from repro.apps.matmul import MatrixMultiplication
from repro.reporting import format_speedups


def main() -> None:
    rng = np.random.RandomState(42)
    a = rng.rand(96, 64).astype(np.float32)
    b = rng.rand(64, 96).astype(np.float32)
    expected = a @ b

    times = {}
    for devices in (1, 2, 3, 4):
        skelcl.init(num_devices=devices, spec=ocl.TESLA_T10)
        app = MatrixMultiplication()
        result = app.compute(a, b)
        assert np.allclose(result, expected, rtol=1e-3), "wrong result!"
        by_device = {}
        for event in app.last_events:
            by_device[event.device_index] = (by_device.get(event.device_index, 0)
                                             + event.duration_ns)
        times[devices] = max(by_device.values())
        skelcl.terminate()

    print("AllPairs matrix multiplication, 96x64 @ 64x96 (simulated kernel time):")
    print(format_speedups(times))
    print("\nThe A matrix is block-distributed by rows, B is copied to every")
    print("GPU, and each device computes its block of C — the multi-GPU")
    print("decomposition the paper's distribution mechanism makes implicit.")


if __name__ == "__main__":
    main()
