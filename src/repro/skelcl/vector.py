"""The SkelCL ``Vector<T>`` container (§3.1).

A one-dimensional contiguous collection transparently accessible from
host code (indexing, iteration, numpy interop) and from skeletons on all
GPUs, with implicit transfers.

    vec = Vector(size)
    for i in range(vec.size):
        vec[i] = i
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from .container import Container


class Vector(Container):
    def __init__(self, size: Optional[int] = None, dtype=np.float32, data=None, name: str = ""):
        if data is not None:
            host = np.ascontiguousarray(data).reshape(-1).copy()
        elif size is not None:
            host = np.zeros(int(size), dtype=np.dtype(dtype))
        else:
            raise ValueError("Vector needs a size or initial data")
        super().__init__(host, units=len(host), unit_elements=1, name=name)

    @staticmethod
    def from_numpy(array: np.ndarray, name: str = "") -> "Vector":
        return Vector(data=array, name=name)

    # -- host access (implicit download / device invalidation) -------------

    @property
    def size(self) -> int:
        return self._units

    def __len__(self) -> int:
        return self._units

    def __getitem__(self, index):
        self.ensure_host()
        return self._host[index]

    def __setitem__(self, index, value) -> None:
        self._host_for_write()[index] = value

    def __iter__(self):
        self.ensure_host()
        return iter(self._host)

    def fill(self, value) -> "Vector":
        self._host_for_write(whole=True)[:] = value
        return self

    def assign(self, values: Iterable) -> "Vector":
        data = np.asarray(list(values) if not isinstance(values, np.ndarray) else values,
                          dtype=self._host.dtype)
        if data.size != self._units:
            raise ValueError(f"assigning {data.size} values to a vector of size {self._units}")
        self._host_for_write(whole=True)[:] = data
        return self

    def to_numpy(self) -> np.ndarray:
        self.ensure_host()
        return self._host.copy()

    def __repr__(self) -> str:
        dist = self._distribution.kind if self._distribution else "none"
        return f"<Vector size={self._units} dtype={self._host.dtype} dist={dist}>"
