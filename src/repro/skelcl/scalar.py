"""The ``Scalar<T>`` result wrapper (used by Reduce, cf. Listing 1.1)."""

from __future__ import annotations

import numpy as np


class Scalar:
    """A single value returned by a skeleton (e.g. a reduction result)."""

    #: A recorded-but-unexecuted Reduce producing this value (set by the
    #: lazy planner); any read forces it first.
    _pending = None
    _pending_readers = ()  # nothing consumes a Scalar

    def __init__(self, value, dtype=np.float32):
        self._dtype = np.dtype(dtype)
        self._value = self._dtype.type(value)

    def _force(self) -> None:
        node = self._pending
        if node is not None:
            node.planner.force_node(node)

    def get_value(self):
        """The host value (``C.getValue()`` in the paper's listing)."""
        self._force()
        return self._value.item()

    def assign(self, value, dtype=None) -> "Scalar":
        """Overwrite the held value (fills a preallocated ``out=`` Scalar)."""
        if dtype is not None:
            self._dtype = np.dtype(dtype)
        self._value = self._dtype.type(value)
        return self

    @property
    def value(self):
        self._force()
        return self._value.item()

    def to_numpy(self):
        """The typed value (a NumPy scalar of :attr:`dtype`)."""
        self._force()
        return self._value

    @property
    def dtype(self) -> np.dtype:
        return self._dtype

    def __float__(self) -> float:
        self._force()
        return float(self._value)

    def __int__(self) -> int:
        self._force()
        return int(self._value)

    def __repr__(self) -> str:
        self._force()
        return f"Scalar({self._value!r})"
