"""Hand-written OpenCL Mandelbrot baseline (the paper's §4.1 OpenCL
version): explicit buffers, explicit kernel, 16×16 work-groups."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .. import ocl

MANDELBROT_CL_KERNEL = """
__kernel void mandelbrot(__global uchar* out,
                         const int width,
                         const int height,
                         const float x_min,
                         const float y_min,
                         const float dx,
                         const float dy,
                         const int max_iter) {
    int px = get_global_id(0);
    int py = get_global_id(1);
    if (px >= width || py >= height) {
        return;
    }
    float c_re = x_min + px * dx;
    float c_im = y_min + py * dy;
    float z_re = 0.0f;
    float z_im = 0.0f;
    int iter = 0;
    while (z_re * z_re + z_im * z_im <= 4.0f && iter < max_iter) {
        float t = z_re * z_re - z_im * z_im + c_re;
        z_im = 2.0f * z_re * z_im + c_im;
        z_re = t;
        ++iter;
    }
    out[py * width + px] = (uchar)(iter % 256);
}
"""


class MandelbrotOpenCL:
    """OpenCL host program: 16×16 work-groups as in the paper."""

    def __init__(self, context: ocl.Context, work_group: Tuple[int, int] = (16, 16)):
        self.context = context
        self.queue = context.queues[0]
        self.work_group = work_group
        self.program = context.create_program(MANDELBROT_CL_KERNEL, "mandelbrot_cl").build()

    def run(
        self,
        width: int,
        height: int,
        max_iter: int,
        bounds=(-2.5, 1.0, -1.25, 1.25),
        sample_fraction: Optional[float] = None,
    ):
        """Render; returns ``(image, kernel_event)``."""
        x_min, x_max, y_min, y_max = bounds
        out_buf = self.context.create_buffer(width * height, name="mandelbrot_out")
        kernel = self.program.create_kernel("mandelbrot")
        kernel.set_args(
            out_buf, width, height, x_min, y_min,
            (x_max - x_min) / width, (y_max - y_min) / height, max_iter,
        )
        wg_x, wg_y = self.work_group
        global_size = (
            (width + wg_x - 1) // wg_x * wg_x,
            (height + wg_y - 1) // wg_y * wg_y,
        )
        event = self.queue.enqueue_nd_range_kernel(kernel, global_size, self.work_group, sample_fraction)
        image = None
        if event.info["groups_executed"] == event.info["groups_total"]:
            # Sampled (timing-only) runs leave the output partial; the
            # runtime forbids reading it back, so skip the transfer.
            data, _ = self.queue.enqueue_read_buffer(out_buf, np.uint8, width * height)
            image = data.reshape(height, width)
        out_buf.release()
        return image, event
