"""repro.ocl: a simulated OpenCL runtime.

Faithful in structure to OpenCL 1.x — platforms, devices, contexts,
in-order command queues with profiling events, untyped buffers, programs
built from (OpenCL-C) source, kernels launched over NDRanges — but
executing on simulated devices whose timing comes from an analytic
roofline model over counted operations and memory traffic
(:mod:`repro.ocl.timing`).

Quick example::

    from repro import ocl

    ctx = ocl.Context.create(ocl.TESLA_T10, num_devices=1)
    queue = ctx.queues[0]
    program = ctx.create_program(source).build()
    kernel = program.create_kernel("vec_add")
    kernel.set_args(buf_a, buf_b, buf_out, n)
    event = queue.enqueue_nd_range_kernel(kernel, (n,), (256,))
    print(event.duration_ms)
"""

from ..analysis.races import RaceDetector, RaceError, RaceWarning, SanitizeMode
from .buffer import Buffer
from .context import Context
from .device import Device, Platform
from .errors import (
    BuildError,
    InvalidKernelArgs,
    InvalidValue,
    InvalidWorkGroupSize,
    OclError,
    OutOfResources,
    SampledBufferRead,
)
from .event import Event, EventStatus, wait_for_events
from .executor import ExecutionResult, execute_ndrange
from .kernel import Kernel
from .ndrange import NDRange
from .program import Program, build_cache_size, clear_build_cache
from .queue import CommandQueue
from .spec import (
    CPU_8CORE,
    CPU_16CORE,
    DEVICE_PRESETS,
    DeviceSpec,
    TESLA_FERMI_480,
    TESLA_T10,
    TEST_DEVICE,
    resolve_device_spec,
)
from .timing import kernel_time_ns, peer_transfer_time_ns, transfer_time_ns

__all__ = [
    "Buffer",
    "BuildError",
    "CPU_16CORE",
    "CPU_8CORE",
    "DEVICE_PRESETS",
    "CommandQueue",
    "Context",
    "Device",
    "DeviceSpec",
    "Event",
    "EventStatus",
    "ExecutionResult",
    "InvalidKernelArgs",
    "InvalidValue",
    "InvalidWorkGroupSize",
    "Kernel",
    "NDRange",
    "OclError",
    "OutOfResources",
    "Platform",
    "Program",
    "RaceDetector",
    "RaceError",
    "RaceWarning",
    "SampledBufferRead",
    "SanitizeMode",
    "TESLA_FERMI_480",
    "TESLA_T10",
    "TEST_DEVICE",
    "build_cache_size",
    "clear_build_cache",
    "execute_ndrange",
    "kernel_time_ns",
    "peer_transfer_time_ns",
    "resolve_device_spec",
    "transfer_time_ns",
    "wait_for_events",
]
