"""Device buffers.

A :class:`Buffer` is raw device memory (a byte array).  Kernels view it
through a typed :class:`~repro.kernelc.memory.Pointer` created per
launch, which both applies C value semantics and reports traffic to the
launch's counters — exactly how an OpenCL buffer is untyped until a
kernel argument gives it an element type.
"""

from __future__ import annotations

import itertools
from typing import Optional

import numpy as np

from ..kernelc.ctypes_ import CType, VectorType, numpy_dtype
from ..kernelc.memory import MemoryCounters, Pointer
from .device import Device
from .errors import InvalidValue


class Buffer:
    # Process-wide identity for the race detector: ``id()`` can be
    # reused after garbage collection, a monotonic counter cannot.
    _uid_counter = itertools.count(1)
    # Called with ``uid`` when the buffer is garbage collected; a
    # context with a race detector sets it, so the detector can drop
    # the buffer's access records (no later command can name it).
    _on_collect = None

    def __init__(self, device: Device, nbytes: int, name: str = ""):
        if nbytes <= 0:
            raise InvalidValue(f"buffer size must be positive, got {nbytes}")
        self.device = device
        self.nbytes = int(nbytes)
        self.name = name
        self.uid = next(Buffer._uid_counter)
        device.allocate(self.nbytes)
        self._storage = np.zeros(self.nbytes, dtype=np.uint8)
        self._released = False
        # Sampled-execution taint: set when a sampled kernel launch (or a
        # kernel reading a tainted buffer) wrote this buffer, making its
        # contents partial.  The queue refuses to read tainted buffers
        # back to the host; a full host write clears the taint.
        self.sampled = False

    def release(self) -> None:
        if not self._released:
            self.device.free(self.nbytes)
            self._released = True

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.release()
            if self._on_collect is not None:
                self._on_collect(self.uid)
        except Exception:
            pass

    # -- typed access -----------------------------------------------------

    def typed_view(self, ctype: CType) -> np.ndarray:
        """A numpy view of the buffer as elements of ``ctype``."""
        dtype = numpy_dtype(ctype)
        usable = (self.nbytes // dtype.itemsize) * dtype.itemsize
        return self._storage[:usable].view(dtype)

    def pointer(self, ctype: CType, counters: Optional[MemoryCounters] = None) -> Pointer:
        """A typed device pointer for kernel execution."""
        view = self.typed_view(ctype.element if isinstance(ctype, VectorType) else ctype)
        if isinstance(ctype, VectorType):
            length = len(view) // ctype.width
        else:
            length = len(view)
        return Pointer(view, ctype, "global", 0, counters, length)

    # -- host data movement (raw; the queue adds timing) -------------------

    def write_from_host(self, data: np.ndarray, offset_bytes: int = 0) -> int:
        """Copy ``data`` into the buffer; returns the bytes written."""
        raw = np.ascontiguousarray(data).view(np.uint8).reshape(-1)
        if offset_bytes + raw.nbytes > self.nbytes:
            raise InvalidValue(
                f"write of {raw.nbytes} bytes at offset {offset_bytes} "
                f"overflows buffer of {self.nbytes} bytes"
            )
        self._storage[offset_bytes : offset_bytes + raw.nbytes] = raw
        return raw.nbytes

    def read_to_host(self, dtype, count: Optional[int] = None, offset_bytes: int = 0) -> np.ndarray:
        """Copy out of the buffer as ``count`` elements of ``dtype``."""
        dtype = np.dtype(dtype)
        if count is None:
            count = (self.nbytes - offset_bytes) // dtype.itemsize
        nbytes = count * dtype.itemsize
        if offset_bytes + nbytes > self.nbytes:
            raise InvalidValue("read overflows buffer")
        raw = self._storage[offset_bytes : offset_bytes + nbytes]
        return raw.view(dtype).copy()

    def copy_from(self, src: "Buffer", nbytes: int, src_offset_bytes: int = 0,
                  offset_bytes: int = 0) -> None:
        """Copy ``nbytes`` of ``src`` into this buffer, storage to
        storage: one copy, no temporary (NumPy orders an overlapping
        copy within one buffer like ``memmove``)."""
        if src_offset_bytes + nbytes > src.nbytes:
            raise InvalidValue("read overflows buffer")
        if offset_bytes + nbytes > self.nbytes:
            raise InvalidValue(
                f"write of {nbytes} bytes at offset {offset_bytes} "
                f"overflows buffer of {self.nbytes} bytes"
            )
        self._storage[offset_bytes : offset_bytes + nbytes] = \
            src._storage[src_offset_bytes : src_offset_bytes + nbytes]

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"<Buffer{label} {self.nbytes} bytes on {self.device.name}>"
