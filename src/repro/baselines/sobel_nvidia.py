"""NVIDIA-SDK-style Sobel baseline: local-memory tiling.

Characteristic of the NVIDIA OpenCL SDK's SobelFilter sample: each
work-group stages an 18×18 tile (16×16 plus halo) of the image in
*local* memory, synchronizes, then computes the operator from the tile —
each pixel is fetched from global memory ~1.3 times instead of 9.
Fig. 5 shows this on par with SkelCL's MapOverlap (which uses the same
technique internally).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .. import ocl

# Work-group geometry is baked into the source (as the SDK sample does).
TILE = 16

SOBEL_NVIDIA_KERNEL = """
#define TILE 16

/* The SDK sample unpacks pixels to float and filters in floating
   point; kept here for fidelity (it costs real operations). */
uchar compute_sobel(uchar ul_u, uchar um_u, uchar ur_u,
                    uchar ml_u,             uchar mr_u,
                    uchar ll_u, uchar lm_u, uchar lr_u) {
    float ul = (float)ul_u;
    float um = (float)um_u;
    float ur = (float)ur_u;
    float ml = (float)ml_u;
    float mr = (float)mr_u;
    float ll = (float)ll_u;
    float lm = (float)lm_u;
    float lr = (float)lr_u;
    float h = -ul + ur - 2.0f * ml + 2.0f * mr - ll + lr;
    float v = -ul - 2.0f * um - ur + ll + 2.0f * lm + lr;
    float magnitude = sqrt(h * h + v * v);
    return (uchar)magnitude;
}

__kernel void sobel_tiled(__global const uchar* img,
                          __global uchar* out_img,
                          const int width,
                          const int height) {
    __local uchar tile[TILE + 2][TILE + 2];

    const int lx = get_local_id(0);
    const int ly = get_local_id(1);
    const int gx = get_global_id(0);
    const int gy = get_global_id(1);
    const int x0 = get_group_id(0) * TILE - 1;
    const int y0 = get_group_id(1) * TILE - 1;

    /* Cooperative load of the (TILE+2)^2 tile, halo included. */
    for (int idx = ly * TILE + lx; idx < (TILE + 2) * (TILE + 2); idx += TILE * TILE) {
        int ty = idx / (TILE + 2);
        int tx = idx % (TILE + 2);
        int sx = x0 + tx;
        int sy = y0 + ty;
        uchar value = 0;
        if (sx >= 0 && sx < width && sy >= 0 && sy < height) {
            value = img[sy * width + sx];
        }
        tile[ty][tx] = value;
    }
    barrier(CLK_LOCAL_MEM_FENCE);

    if (gx < width && gy < height) {
        int tx = lx + 1;
        int ty = ly + 1;
        uchar ul = tile[ty - 1][tx - 1];
        uchar um = tile[ty - 1][tx];
        uchar ur = tile[ty - 1][tx + 1];
        uchar ml = tile[ty][tx - 1];
        uchar mr = tile[ty][tx + 1];
        uchar ll = tile[ty + 1][tx - 1];
        uchar lm = tile[ty + 1][tx];
        uchar lr = tile[ty + 1][tx + 1];
        out_img[gy * width + gx] = compute_sobel(ul, um, ur, ml, mr, ll, lm, lr);
    }
}
"""


class SobelNvidia:
    """Host-side driver for the tiled kernel on one device."""

    def __init__(self, context: ocl.Context):
        self.context = context
        self.queue = context.queues[0]
        self.work_group: Tuple[int, int] = (TILE, TILE)
        self.program = context.create_program(SOBEL_NVIDIA_KERNEL, "sobel_nvidia").build()

    def run(self, image: np.ndarray, sample_fraction: Optional[float] = None):
        """Run Sobel; returns ``(edges, kernel_event)``."""
        height, width = image.shape
        in_buf = self.context.create_buffer(image.nbytes, name="sobel_in")
        out_buf = self.context.create_buffer(image.nbytes, name="sobel_out")
        self.queue.enqueue_write_buffer(in_buf, image.astype(np.uint8))
        kernel = self.program.create_kernel("sobel_tiled")
        kernel.set_args(in_buf, out_buf, width, height)
        global_size = (
            (width + TILE - 1) // TILE * TILE,
            (height + TILE - 1) // TILE * TILE,
        )
        event = self.queue.enqueue_nd_range_kernel(
            kernel, global_size, self.work_group, sample_fraction
        )
        edges = None
        if event.info["groups_executed"] == event.info["groups_total"]:
            # Sampled (timing-only) runs leave the output partial; the
            # runtime forbids reading it back, so skip the transfer.
            data, _ = self.queue.enqueue_read_buffer(out_buf, np.uint8, image.size)
            edges = data.reshape(height, width)
        in_buf.release()
        out_buf.release()
        return edges, event
