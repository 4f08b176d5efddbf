"""A thin CUDA-like runtime over the simulated devices.

The paper compares SkelCL against CUDA implementations; CUDA was
measured ~31% faster than OpenCL on the same hardware (its ref [9]
attributes this to toolchain maturity).  We model that as a device
``efficiency`` factor (:data:`CUDA_EFFICIENCY`) and provide:

* :func:`cuda_to_opencl` — a source-level translator for the CUDA C
  subset the baselines use (``__global__``, ``threadIdx``/``blockIdx``/
  ``blockDim``/``gridDim``, ``__shared__``, ``__syncthreads``), so CUDA
  kernels run through the same kernelc pipeline;
* :class:`CudaRuntime` — a ``cudaMalloc``/``cudaMemcpy``/launch-style
  API in the spirit of the CUDA driver host code the paper's LoC
  comparison measures.
"""

from __future__ import annotations

import re
from typing import Dict, Optional, Tuple

import numpy as np

from .. import ocl

# The CUDA-toolchain advantage over OpenCL measured by the paper's
# reference [9] (Kong et al., GPGPU '10): ~1.3x.
CUDA_EFFICIENCY = 1.3

_DIM_MEMBERS = {"x": 0, "y": 1, "z": 2}

_ID_TRANSLATIONS = [
    (re.compile(r"\bthreadIdx\.([xyz])\b"), lambda m: f"get_local_id({_DIM_MEMBERS[m.group(1)]})"),
    (re.compile(r"\bblockIdx\.([xyz])\b"), lambda m: f"get_group_id({_DIM_MEMBERS[m.group(1)]})"),
    (re.compile(r"\bblockDim\.([xyz])\b"), lambda m: f"get_local_size({_DIM_MEMBERS[m.group(1)]})"),
    (re.compile(r"\bgridDim\.([xyz])\b"), lambda m: f"get_num_groups({_DIM_MEMBERS[m.group(1)]})"),
]

_ADDRESS_SPACE_WORDS = ("__global", "global", "__local", "local", "__constant", "constant")


def _globalize_kernel_params(params: str) -> str:
    """Add ``__global`` to pointer parameters lacking an address space
    (CUDA kernel pointers are device-global by definition)."""
    out = []
    for param in params.split(","):
        stripped = param.strip()
        if "*" in stripped and not any(stripped.startswith(w + " ") or f" {w} " in f" {stripped} "
                                       for w in _ADDRESS_SPACE_WORDS):
            param = param.replace(stripped, "__global " + stripped, 1)
        out.append(param)
    return ",".join(out)


def cuda_to_opencl(source: str) -> str:
    """Translate the supported CUDA C subset to OpenCL C."""
    text = source
    for pattern, replacement in _ID_TRANSLATIONS:
        text = pattern.sub(replacement, text)
    text = re.sub(r"\b__syncthreads\s*\(\s*\)", "barrier(CLK_LOCAL_MEM_FENCE)", text)
    text = re.sub(r"\b__shared__\b", "__local", text)
    text = re.sub(r"\b__device__\b\s*", "", text)
    text = re.sub(r"\b__restrict__\b\s*", "", text)
    text = re.sub(r"\b__forceinline__\b\s*", "", text)

    # __global__ void name(params) -> __kernel void name(globalized params)
    def kernelize(match: re.Match) -> str:
        name, params = match.group(1), match.group(2)
        return f"__kernel void {name}({_globalize_kernel_params(params)})"

    text = re.sub(r"__global__\s+void\s+(\w+)\s*\(([^)]*)\)", kernelize, text)
    return text


class DeviceBuffer:
    """The result of ``cudaMalloc``: an opaque device allocation."""

    def __init__(self, buffer: ocl.Buffer, nbytes: int):
        self._buffer = buffer
        self.nbytes = nbytes

    def free(self) -> None:
        self._buffer.release()


class CudaRuntime:
    """A minimal CUDA-style host API on one simulated device.

    The device runs with :data:`CUDA_EFFICIENCY` applied, modeling the
    measured CUDA-vs-OpenCL toolchain gap.
    """

    def __init__(self, spec: Optional[ocl.DeviceSpec] = None):
        base = spec if spec is not None else ocl.TESLA_T10
        self.spec = base.with_(efficiency=base.efficiency * CUDA_EFFICIENCY)
        self.context = ocl.Context.create(self.spec, 1)
        self.queue = self.context.queues[0]
        self._modules: Dict[str, ocl.Program] = {}

    # -- memory ------------------------------------------------------------

    def malloc(self, nbytes: int, name: str = "") -> DeviceBuffer:
        return DeviceBuffer(self.context.create_buffer(nbytes, name=name), nbytes)

    def memcpy_host_to_device(self, dst: DeviceBuffer, src: np.ndarray) -> ocl.Event:
        return self.queue.enqueue_write_buffer(dst._buffer, src)

    def memcpy_device_to_host(self, src: DeviceBuffer, dtype, count: int) -> Tuple[np.ndarray, ocl.Event]:
        return self.queue.enqueue_read_buffer(src._buffer, dtype, count)

    # -- kernels --------------------------------------------------------------

    def load_module(self, cuda_source: str, name: str = "<cuda module>") -> ocl.Program:
        program = self._modules.get(cuda_source)
        if program is None:
            program = self.context.create_program(cuda_to_opencl(cuda_source), name).build()
            self._modules[cuda_source] = program
        return program

    def launch(
        self,
        cuda_source: str,
        kernel_name: str,
        grid: Tuple[int, ...],
        block: Tuple[int, ...],
        *args,
        sample_fraction: Optional[float] = None,
    ) -> ocl.Event:
        """``kernel<<<grid, block>>>(args)``: grid is in *blocks*."""
        program = self.load_module(cuda_source)
        kernel = program.create_kernel(kernel_name)
        marshaled = [a._buffer if isinstance(a, DeviceBuffer) else a for a in args]
        kernel.set_args(*marshaled)
        global_size = tuple(g * b for g, b in zip(grid, block))
        return self.queue.enqueue_nd_range_kernel(kernel, global_size, block, sample_fraction)

    def synchronize(self) -> int:
        return self.queue.finish()

    def elapsed_ns(self) -> int:
        return self.queue.time_ns

    def release(self) -> None:
        self.context.release()
