"""Data distributions over multiple GPUs (§3.2 of the paper).

Four distributions describe how a container's elements are placed on the
devices of the system (Fig. 1 / Fig. 2):

* :class:`Single` — all data on one GPU,
* :class:`Copy` — the entire data on every GPU,
* :class:`Block` — contiguous disjoint chunks, one per GPU,
* :class:`Overlap` — block plus a halo of border elements (vector) or
  rows (matrix) replicated from the neighbouring chunks.

A distribution turns a container length (elements for vectors, rows for
matrices) into a list of :class:`Chunk`: the *owned* range a device is
responsible for plus the *stored* range (owned + halo) it keeps in its
buffer.

A distribution says *how* data is placed, never *how much* each device
gets: the split of the devices is a
:class:`~repro.skelcl.partition.Partition` — an immutable per-device
weight vector — owned by the session (``session.partition``), and
``chunks(size, split)`` takes the one the chunks are staged under.
``Block`` and ``Overlap`` size their owned ranges by it, so a
heterogeneous pool gives a 4x-faster GPU a 4x-larger chunk;
`Single`/`Copy` read only its device count.
"""

from __future__ import annotations

from typing import List, NamedTuple

from .partition import Partition


class Chunk(NamedTuple):
    """One device's part of a distributed container (in element/row
    units); a named tuple: every staging makes a few and every skeleton
    call's launch recipe is keyed by them."""

    device_index: int
    owned_start: int
    owned_end: int
    stored_start: int
    stored_end: int

    @property
    def owned_size(self) -> int:
        return self.owned_end - self.owned_start

    @property
    def stored_size(self) -> int:
        return self.stored_end - self.stored_start

    @property
    def halo_before(self) -> int:
        return self.owned_start - self.stored_start

    @property
    def halo_after(self) -> int:
        return self.stored_end - self.owned_end


class Distribution:
    """Base class; instances are immutable and compared by value."""

    kind = "abstract"

    def chunks(self, size: int, split: Partition) -> List[Chunk]:
        """The chunks of ``size`` units on the devices ``split`` sizes."""
        raise NotImplementedError

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and vars(self) == vars(other)

    def __hash__(self) -> int:
        return hash((type(self).__name__, tuple(sorted(vars(self).items()))))

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class Single(Distribution):
    """All data on one device (the first, unless specified otherwise)."""

    kind = "single"

    def __init__(self, device_index: int = 0):
        self.device_index = device_index

    def chunks(self, size: int, split: Partition) -> List[Chunk]:
        if not 0 <= self.device_index < split.num_devices:
            raise ValueError(
                f"single distribution on device {self.device_index}, "
                f"but only {split.num_devices} device(s) available"
            )
        return [Chunk(self.device_index, 0, size, 0, size)]

    def __repr__(self) -> str:
        return f"Single(device_index={self.device_index})"


class Copy(Distribution):
    """The entire data replicated on every device."""

    kind = "copy"

    def chunks(self, size: int, split: Partition) -> List[Chunk]:
        return [Chunk(index, 0, size, 0, size) for index in range(split.num_devices)]


class Block(Distribution):
    """Contiguous disjoint chunks, one per device.

    Under the even split the chunks are as equal as possible (the
    paper's homogeneous case); otherwise each device's chunk is sized
    by its weight — including zero-length chunks for zero weights.
    """

    kind = "block"

    def chunks(self, size: int, split: Partition) -> List[Chunk]:
        return [Chunk(index, start, end, start, end)
                for index, (start, end) in enumerate(split.ranges(size))]


class Overlap(Distribution):
    """Block distribution plus ``overlap`` halo elements/rows per border.

    Each device stores its block and, additionally, ``overlap``
    elements (vector) or rows (matrix) of the neighbouring blocks, so a
    MapOverlap skeleton can read across chunk borders without inter-GPU
    communication (Fig. 1d / Fig. 2d).  The owned ranges are `Block`'s;
    a device whose owned range is empty stores nothing at all — no
    halo — so fully-skewed partitions enqueue no work for the starved
    device.
    """

    kind = "overlap"

    def __init__(self, overlap: int = 1):
        if overlap < 0:
            raise ValueError(f"overlap must be non-negative, got {overlap}")
        self.overlap = overlap

    def chunks(self, size: int, split: Partition) -> List[Chunk]:
        result: List[Chunk] = []
        for index, (start, end) in enumerate(split.ranges(size)):
            if start == end:
                # An empty owned range keeps no halo either: the device
                # holds no data and no commands are enqueued for it.
                result.append(Chunk(index, start, end, start, end))
                continue
            stored_start = max(0, start - self.overlap)
            stored_end = min(size, end + self.overlap)
            result.append(Chunk(index, start, end, stored_start, stored_end))
        return result

    def __repr__(self) -> str:
        return f"Overlap(overlap={self.overlap})"


# Convenience singletons mirroring the paper's notation.
single = Single()
copy = Copy()
block = Block()


def overlap(width: int = 1) -> Overlap:
    return Overlap(width)
