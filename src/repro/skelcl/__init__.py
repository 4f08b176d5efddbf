"""repro.skelcl: the SkelCL library (the paper's contribution).

The paper's three enhancements over raw OpenCL:

1. **Parallel container data types** — :class:`Vector`, :class:`Matrix`
   (and the :class:`Scalar` result wrapper): transparently accessible
   from host and devices with implicit, lazy memory transfers (§3.1).
2. **Data distributions** — :class:`Single`, :class:`Copy`,
   :class:`Block`, :class:`Overlap` with implicit redistribution (§3.2).
3. **Algorithmic skeletons** — :class:`Map`, :class:`Zip`,
   :class:`Reduce`, :class:`Scan` (§3.3), :class:`MapOverlap` (§3.4) and
   :class:`AllPairs` (§3.5), customized with OpenCL-C function strings
   or with ``@skelcl.jit``-decorated Python functions (``docs/jit.md``).

The dot-product example from Listing 1.1::

    import repro.skelcl as skelcl

    skelcl.init(num_devices=2)
    sum_ = skelcl.Reduce("float func(float x, float y) { return x + y; }")
    mult = skelcl.Zip("float func(float x, float y) { return x * y; }")
    a = skelcl.Vector(data=...)
    b = skelcl.Vector(data=...)
    c = sum_(mult(a, b)).get_value()
"""

from ..jit import (INC, Intent, IntentAnnotation, JitError, JitFunction, READ,
                   RW, WRITE, get, jit)
from .allpairs import AllPairs
from .container import Container
from .distribution import Block, Chunk, Copy, Distribution, Overlap, Single, block, copy, overlap, single
from .index import IndexMatrix, IndexVector
from .map import Map
from .mapoverlap import BoundaryMode, MapOverlap, SCL_NEAREST, SCL_NEUTRAL
from .matrix import Matrix
from .partition import AdaptivePartitioner, Partition, modeled_throughput
from ..scope.profile import profile
from ..settings import PARTITION_POLICIES, Settings, configure, current_settings
from .reduce import Reduce
from .runtime import Session, SkelCLError, get_runtime, init, is_initialized, terminate
from .scalar import Scalar
from .scan import Scan
from .skeleton import DEFAULT_WORK_GROUP_SIZE, Skeleton
from .vector import Vector
from .zip import Zip

__all__ = [
    "AdaptivePartitioner",
    "AllPairs",
    "Block",
    "BoundaryMode",
    "Chunk",
    "Container",
    "Copy",
    "DEFAULT_WORK_GROUP_SIZE",
    "Distribution",
    "INC",
    "IndexMatrix",
    "IndexVector",
    "Intent",
    "IntentAnnotation",
    "JitError",
    "JitFunction",
    "Map",
    "MapOverlap",
    "Matrix",
    "Overlap",
    "PARTITION_POLICIES",
    "Partition",
    "READ",
    "RW",
    "Reduce",
    "SCL_NEAREST",
    "SCL_NEUTRAL",
    "Scalar",
    "Scan",
    "Session",
    "Settings",
    "Single",
    "SkelCLError",
    "Skeleton",
    "Vector",
    "WRITE",
    "Zip",
    "block",
    "configure",
    "copy",
    "current_settings",
    "get",
    "get_runtime",
    "init",
    "jit",
    "is_initialized",
    "modeled_throughput",
    "overlap",
    "profile",
    "single",
    "terminate",
]
