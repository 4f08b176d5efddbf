"""The SkelCL ``Matrix<T>`` container (§3.1).

A two-dimensional collection stored row-major; distributed across GPUs
in units of rows (Fig. 2).  Host access uses ``m[i, j]`` or numpy
interop; skeletons see per-device row chunks.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .container import Container


class Matrix(Container):
    def __init__(self, shape: Optional[Tuple[int, int]] = None, dtype=np.float32,
                 data=None, name: str = ""):
        if data is not None:
            array = np.ascontiguousarray(data)
            if array.ndim != 2:
                raise ValueError(f"Matrix data must be 2-D, got {array.ndim}-D")
            self._shape = (array.shape[0], array.shape[1])
            host = array.reshape(-1).copy()
        elif shape is not None:
            rows, cols = int(shape[0]), int(shape[1])
            self._shape = (rows, cols)
            host = np.zeros(rows * cols, dtype=np.dtype(dtype))
        else:
            raise ValueError("Matrix needs a shape or initial data")
        super().__init__(host, units=self._shape[0], unit_elements=self._shape[1], name=name)

    @staticmethod
    def from_numpy(array: np.ndarray, name: str = "") -> "Matrix":
        return Matrix(data=array, name=name)

    # -- geometry -----------------------------------------------------------

    @property
    def shape(self) -> Tuple[int, int]:
        return self._shape

    @property
    def rows(self) -> int:
        return self._shape[0]

    @property
    def cols(self) -> int:
        return self._shape[1]

    @property
    def size(self) -> int:
        return self._shape[0] * self._shape[1]

    def __len__(self) -> int:
        return self._shape[0]

    # -- host access ----------------------------------------------------------

    def _flat_index(self, key) -> int:
        row, col = key
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise IndexError(f"matrix index {key} out of range for shape {self._shape}")
        return row * self.cols + col

    def __getitem__(self, key):
        self.ensure_host()
        if isinstance(key, tuple):
            return self._host[self._flat_index(key)]
        return self._host[key * self.cols : (key + 1) * self.cols].copy()

    def __setitem__(self, key, value) -> None:
        index = (self._flat_index(key) if isinstance(key, tuple)
                 else slice(key * self.cols, (key + 1) * self.cols))
        self._host_for_write()[index] = value

    def fill(self, value) -> "Matrix":
        self._host_for_write(whole=True)[:] = value
        return self

    def assign(self, array: np.ndarray) -> "Matrix":
        array = np.asarray(array, dtype=self._host.dtype)
        if array.shape != self._shape:
            raise ValueError(f"assigning shape {array.shape} to matrix of shape {self._shape}")
        self._host_for_write(whole=True)[:] = array.reshape(-1)
        return self

    def to_numpy(self) -> np.ndarray:
        self.ensure_host()
        return self._host.copy().reshape(self._shape)

    def __repr__(self) -> str:
        dist = self._distribution.kind if self._distribution else "none"
        return f"<Matrix shape={self._shape} dtype={self._host.dtype} dist={dist}>"
