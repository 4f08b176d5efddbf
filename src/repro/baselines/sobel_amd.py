"""AMD-SDK-style Sobel baseline (the paper's Listing 1.6).

Characteristic of the AMD APP SDK sample: every work-item performs nine
*global* memory loads with manual index arithmetic and boundary checks —
no local memory.  This is exactly why Fig. 5 shows it clearly slower
than the NVIDIA and SkelCL versions.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .. import ocl

SOBEL_AMD_KERNEL = """
uchar compute_sobel(int ul, int um, int ur,
                    int ml,         int mr,
                    int ll, int lm, int lr) {
    int h = -ul + ur - 2 * ml + 2 * mr - ll + lr;
    int v = -ul - 2 * um - ur + ll + 2 * lm + lr;
    return (uchar)sqrt((float)(h * h + v * v));
}

__kernel void sobel_kernel(__global const uchar* img,
                           __global uchar* out_img) {
    uint i = get_global_id(0);
    uint j = get_global_id(1);
    uint w = get_global_size(0);
    uint h = get_global_size(1);

    /* perform boundary checks */
    if (i >= 1 && i < (w - 1) && j >= 1 && j < (h - 1)) {
        uchar ul = img[((j - 1) * w) + (i - 1)];
        uchar um = img[((j - 1) * w) + (i + 0)];
        uchar ur = img[((j - 1) * w) + (i + 1)];
        uchar ml = img[((j + 0) * w) + (i - 1)];
        uchar mr = img[((j + 0) * w) + (i + 1)];
        uchar ll = img[((j + 1) * w) + (i - 1)];
        uchar lm = img[((j + 1) * w) + (i + 0)];
        uchar lr = img[((j + 1) * w) + (i + 1)];
        out_img[j * w + i] = compute_sobel(ul, um, ur, ml, mr, ll, lm, lr);
    } else if (i < w && j < h) {
        out_img[j * w + i] = 0;
    }
}
"""


class SobelAmd:
    """Host-side driver for the AMD-style kernel on one device."""

    def __init__(self, context: ocl.Context, work_group: Tuple[int, int] = (16, 16)):
        self.context = context
        self.queue = context.queues[0]
        self.work_group = work_group
        self.program = context.create_program(SOBEL_AMD_KERNEL, "sobel_amd").build()

    def run(self, image: np.ndarray, sample_fraction: Optional[float] = None):
        """Run Sobel; returns ``(edges, kernel_event)``."""
        height, width = image.shape
        in_buf = self.context.create_buffer(image.nbytes, name="sobel_in")
        out_buf = self.context.create_buffer(image.nbytes, name="sobel_out")
        self.queue.enqueue_write_buffer(in_buf, image.astype(np.uint8))
        kernel = self.program.create_kernel("sobel_kernel")
        kernel.set_args(in_buf, out_buf)
        event = self.queue.enqueue_nd_range_kernel(
            kernel, (width, height), self.work_group, sample_fraction
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
