"""The ``Scalar<T>`` result wrapper (used by Reduce, cf. Listing 1.1)."""

from __future__ import annotations

import numpy as np

from ..plan.ir import Produced


class Scalar(Produced):
    """A single value returned by a skeleton (e.g. a reduction result).
    Under the lazy planner a recorded-but-unexecuted Reduce may still be
    its producer; every read goes through :meth:`to_numpy`, which forces
    it first."""

    def __init__(self, value, dtype=np.float32):
        self._dtype = np.dtype(dtype)
        self._value = self._dtype.type(value)

    def to_numpy(self):
        """The typed value (a NumPy scalar of :attr:`dtype`)."""
        self._force_pending()
        return self._value

    def get_value(self):
        """The host value (``C.getValue()`` in the paper's listing)."""
        return self.to_numpy().item()

    value = property(get_value)

    def assign(self, value, dtype=None) -> "Scalar":
        """Overwrite the held value (fills a preallocated ``out=`` Scalar)."""
        if dtype is not None:
            self._dtype = np.dtype(dtype)
        self._value = self._dtype.type(value)
        return self

    @property
    def dtype(self) -> np.dtype:
        return self._dtype

    def __float__(self) -> float:
        return float(self.to_numpy())

    def __int__(self) -> int:
        return int(self.to_numpy())

    def __repr__(self) -> str:
        return f"Scalar({self.to_numpy()!r})"
