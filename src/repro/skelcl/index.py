"""Index containers: virtual vectors of their own indices.

Real SkelCL provides ``IndexVector``/``IndexMatrix``: containers whose
element *is* its index.  They occupy no memory and transfer nothing —
a Map over one computes its elements from ``get_global_id`` directly.
This is how the SkelCL Mandelbrot passes "a vector with one entry per
pixel" without uploading anything.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from .distribution import Block, Chunk, Distribution
from .partition import Partition


class IndexVector:
    """A virtual vector ``[0, 1, ..., size-1]`` (no storage, no transfers)."""

    def __init__(self, size: int):
        if size <= 0:
            raise ValueError(f"IndexVector size must be positive, got {size}")
        self._size = int(size)
        self._distribution: Distribution = Block()

    @property
    def size(self) -> int:
        return self._size

    def __len__(self) -> int:
        return self._size

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(np.int32)

    @property
    def distribution(self) -> Distribution:
        return self._distribution

    def set_distribution(self, distribution: Distribution) -> None:
        self._distribution = distribution

    def chunks(self, split: Partition) -> List[Chunk]:
        """The index ranges each device computes under the session
        partition ``split`` (no buffers involved)."""
        return self._distribution.chunks(self._size, split)

    def __getitem__(self, index: int) -> int:
        if not 0 <= index < self._size:
            raise IndexError(f"index {index} out of range for IndexVector({self._size})")
        return index

    def __iter__(self):
        return iter(range(self._size))

    def __repr__(self) -> str:
        return f"<IndexVector size={self._size}>"


class IndexMatrix:
    """A virtual matrix whose element is its flat row-major index."""

    def __init__(self, shape: Tuple[int, int]):
        rows, cols = int(shape[0]), int(shape[1])
        if rows <= 0 or cols <= 0:
            raise ValueError(f"IndexMatrix shape must be positive, got {shape}")
        self._shape = (rows, cols)
        self._distribution: Distribution = Block()

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

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(np.int32)

    @property
    def distribution(self) -> Distribution:
        return self._distribution

    def chunks(self, split: Partition) -> List[Chunk]:
        """Row-granular chunks under the session partition ``split``,
        as for a real Matrix."""
        return self._distribution.chunks(self._shape[0], split)

    def __getitem__(self, key) -> int:
        row, col = key
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise IndexError(f"index {key} out of range for IndexMatrix{self._shape}")
        return row * self.cols + col

    def __repr__(self) -> str:
        return f"<IndexMatrix shape={self._shape}>"
