"""Host allocator policy: large lane temporaries reuse mapped pages.

The lockstep engine computes on one NumPy array per lane value; at
16,384 lanes an int64/float64 temporary is exactly 128 KiB — glibc's
default ``M_MMAP_THRESHOLD`` and ``M_TRIM_THRESHOLD``.  At the defaults
such a temporary is either its own ``mmap`` (fresh zero pages, unmapped
at the free) or sits at a heap top that is trimmed and regrown around
it, and every launch pays the kernel for pages it had a moment ago
(measured: ~8,000 minor faults and ~12 ms of system time per 45 ms
``stencil_frames`` op).

:func:`keep_heap_mapped` pins both thresholds at the ceilings glibc's
own dynamic rule would converge to (32 MiB / 64 MiB), so freed lane
arrays go back to the heap's free lists and the next ones reuse their
pages.  Both or neither: setting either one switches the dynamic rule
off, and a pinned trim threshold next to the default mmap threshold (or
the reverse) measured *worse* than doing nothing.  The cost is that up
to 64 MiB of freed heap stays with the process instead of returning to
the OS; peak RSS is unchanged.

The first :class:`~repro.ocl.Context` of a process applies the policy;
importing the package does not.  The allocator is the process's, so
there is no setting: where ``mallopt`` is absent (musl accepts and
ignores it, macOS and Windows have none) or refuses, the policy stays
``"default"`` and nothing else changes.  SkelScope reports which one is
in force (``skelcl_host_allocator_info{policy=}``).
"""

from __future__ import annotations

import ctypes
from typing import Optional

# <malloc.h> parameter numbers.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3

#: glibc's ``DEFAULT_MMAP_THRESHOLD_MAX`` on 64-bit, the largest value
#: ``mallopt`` accepts; the dynamic rule sets trim to twice the mmap
#: threshold.
MMAP_THRESHOLD_BYTES = 32 << 20
TRIM_THRESHOLD_BYTES = 64 << 20

PINNED = "glibc-thresholds"
DEFAULT = "default"

#: What :func:`keep_heap_mapped` left in force; None until it ran.
_policy: Optional[str] = None


def _libc():
    return ctypes.CDLL(None)


def _pin_thresholds() -> bool:
    try:
        mallopt = _libc().mallopt
    except (OSError, AttributeError, TypeError):
        # No handle on the running process's C library (Windows raises
        # TypeError for ``CDLL(None)``), or one without ``mallopt``.
        return False
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    # The mmap threshold first: it is the one glibc can refuse, and the
    # trim threshold must not be pinned without it.
    return (mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES) == 1
            and mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES) == 1)


def keep_heap_mapped() -> None:
    """Apply the policy, once per process: later calls do nothing (two
    threads racing through the first set the same two values twice)."""
    global _policy
    if _policy is None:
        _policy = PINNED if _pin_thresholds() else DEFAULT


def policy() -> str:
    """The host allocator policy in force: ``"glibc-thresholds"``, or
    ``"default"`` — until a context was created, and wherever
    ``mallopt`` could not be used."""
    return _policy or DEFAULT
