"""Container element types: numpy dtypes <-> OpenCL-C scalar types.

Both directions are read off the one table in
:mod:`repro.kernelc.ctypes_`; a container holds every scalar type it
lists except ``half``.
"""

from __future__ import annotations

import numpy as np

from ..kernelc.ctypes_ import SCALAR_TYPES, ScalarType, ctype_from_numpy, numpy_dtype

_DTYPE_OF_CNAME = {name: numpy_dtype(ctype) for name, ctype in SCALAR_TYPES.items()
                   if name not in ("void", "half")}
_CTYPE_OF_DTYPE = {dtype: ctype_from_numpy(dtype) for dtype in _DTYPE_OF_CNAME.values()}


def ctype_for_dtype(dtype) -> ScalarType:
    dtype = np.dtype(dtype)
    try:
        return _CTYPE_OF_DTYPE[dtype]
    except KeyError:
        raise TypeError(f"unsupported container dtype {dtype}") from None


def dtype_for_ctype(ctype: ScalarType) -> np.dtype:
    try:
        return _DTYPE_OF_CNAME[ctype.name]
    except KeyError:
        raise TypeError(f"no numpy dtype for C type {ctype}") from None


def dtype_for_cname(name: str) -> np.dtype:
    try:
        return _DTYPE_OF_CNAME[name]
    except KeyError:
        raise TypeError(f"no numpy dtype for C type name {name!r}") from None
