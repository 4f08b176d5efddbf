"""NVIDIA-SDK-style OpenCL dot product (the §3.3 comparison point:
"an OpenCL-based implementation of the dot product computation provided
by NVIDIA requires approximately 68 lines of code").

Two-stage: an elementwise-multiply-and-tree-reduce kernel producing one
partial per work-group, then a host-side final sum — the structure of
the SDK's oclDotProduct sample.
"""

from __future__ import annotations

import numpy as np

from .. import ocl

DOT_PRODUCT_KERNEL = """
#define WG 256

__kernel void dot_product(__global const float* a,
                          __global const float* b,
                          __global float* partial,
                          const int n) {
    __local float scratch[WG];
    int gid = get_global_id(0);
    int lid = get_local_id(0);

    float acc = 0.0f;
    for (int i = gid; i < n; i += get_global_size(0)) {
        acc += a[i] * b[i];
    }
    scratch[lid] = acc;
    barrier(CLK_LOCAL_MEM_FENCE);

    for (int s = WG / 2; s > 0; s >>= 1) {
        if (lid < s) {
            scratch[lid] += scratch[lid + s];
        }
        barrier(CLK_LOCAL_MEM_FENCE);
    }
    if (lid == 0) {
        partial[get_group_id(0)] = scratch[0];
    }
}
"""

_WG = 256


class DotProductOpenCL:
    """Verbose OpenCL host program for the dot product."""

    def __init__(self, context: ocl.Context, max_groups: int = 64):
        self.context = context
        self.queue = context.queues[0]
        self.max_groups = max_groups
        self.program = context.create_program(DOT_PRODUCT_KERNEL, "dot_product_cl").build()

    def run(self, a: np.ndarray, b: np.ndarray):
        """Compute the dot product; returns ``(value, kernel_event)``."""
        if a.shape != b.shape:
            raise ValueError("input size mismatch")
        n = a.size
        a32 = a.astype(np.float32)
        b32 = b.astype(np.float32)
        groups = min(self.max_groups, (n + _WG - 1) // _WG)

        buf_a = self.context.create_buffer(a32.nbytes, name="dot_a")
        buf_b = self.context.create_buffer(b32.nbytes, name="dot_b")
        buf_partial = self.context.create_buffer(groups * 4, name="dot_partial")
        self.queue.enqueue_write_buffer(buf_a, a32)
        self.queue.enqueue_write_buffer(buf_b, b32)

        kernel = self.program.create_kernel("dot_product")
        kernel.set_args(buf_a, buf_b, buf_partial, n)
        event = self.queue.enqueue_nd_range_kernel(kernel, (groups * _WG,), (_WG,))
        partials, _ = self.queue.enqueue_read_buffer(buf_partial, np.float32, groups)

        for buffer in (buf_a, buf_b, buf_partial):
            buffer.release()
        return float(partials.sum()), event
