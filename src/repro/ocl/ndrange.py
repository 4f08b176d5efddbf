"""NDRange geometry: global/local sizes and work-group enumeration."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional, Sequence, Tuple

from .errors import InvalidValue, InvalidWorkGroupSize


def _as_tuple(value) -> Tuple[int, ...]:
    if isinstance(value, int):
        return (value,)
    return tuple(int(v) for v in value)


@dataclass(frozen=True)
class NDRange:
    """A validated NDRange: 1-3 dimensions, local divides global.  Its
    derived sizes are computed once: a launch plan keeps its NDRange for
    every launch it makes."""

    global_size: Tuple[int, ...]
    local_size: Tuple[int, ...]

    @staticmethod
    def create(global_size, local_size=None, max_work_group_size: int = 1024) -> "NDRange":
        gsize = _as_tuple(global_size)
        if not 1 <= len(gsize) <= 3:
            raise InvalidValue(f"NDRange must have 1-3 dimensions, got {len(gsize)}")
        if any(g <= 0 for g in gsize):
            raise InvalidValue(f"global size must be positive, got {gsize}")
        if local_size is None:
            lsize = tuple(_default_local(g, max_work_group_size if i == 0 else 1) if len(gsize) == 1
                          else _default_local(g, 16) for i, g in enumerate(gsize))
            # Shrink until the group fits the device limit.
            lsize = list(lsize)
            while _product(lsize) > max_work_group_size:
                dim = lsize.index(max(lsize))
                lsize[dim] = max(1, lsize[dim] // 2)
            lsize = tuple(lsize)
        else:
            lsize = _as_tuple(local_size)
        if len(lsize) != len(gsize):
            raise InvalidWorkGroupSize(
                f"local size has {len(lsize)} dimension(s), global has {len(gsize)}"
            )
        if any(l <= 0 for l in lsize):
            raise InvalidWorkGroupSize(f"local size must be positive, got {lsize}")
        if any(g % l != 0 for g, l in zip(gsize, lsize)):
            raise InvalidWorkGroupSize(
                f"global size {gsize} is not divisible by local size {lsize}"
            )
        if _product(lsize) > max_work_group_size:
            raise InvalidWorkGroupSize(
                f"work-group size {_product(lsize)} exceeds the device limit {max_work_group_size}"
            )
        return NDRange(gsize, lsize)

    @cached_property
    def work_dim(self) -> int:
        return len(self.global_size)

    @cached_property
    def total_work_items(self) -> int:
        return _product(self.global_size)

    @cached_property
    def work_group_size(self) -> int:
        return _product(self.local_size)

    @cached_property
    def num_groups(self) -> Tuple[int, ...]:
        return tuple(g // l for g, l in zip(self.global_size, self.local_size))

    @cached_property
    def total_groups(self) -> int:
        return _product(self.num_groups)

    def group_ids(self) -> Iterator[Tuple[int, ...]]:
        """All work-group ids in row-major order (dim 0 fastest)."""
        ranges = [range(n) for n in reversed(self.num_groups)]
        for combo in itertools.product(*ranges):
            yield tuple(reversed(combo))

    def sample_groups(self, fraction: float) -> Optional[Tuple[Tuple[int, ...], ...]]:
        """The work-groups a launch sampled at ``fraction`` executes: a
        deterministic, evenly spread subset, or None for every group (a
        fraction outside (0, 1), or one that keeps them all)."""
        if not 0 < fraction < 1:
            return None
        groups = list(self.group_ids())
        count = max(1, round(len(groups) * fraction))
        if count >= len(groups):
            return None
        step = len(groups) / count
        return tuple(groups[min(int(i * step), len(groups) - 1)] for i in range(count))

    def local_ids(self) -> Iterator[Tuple[int, ...]]:
        ranges = [range(n) for n in reversed(self.local_size)]
        for combo in itertools.product(*ranges):
            yield tuple(reversed(combo))


def _product(values: Sequence[int]) -> int:
    result = 1
    for value in values:
        result *= value
    return result


def _default_local(global_dim: int, preferred: int) -> int:
    size = preferred
    while size > 1 and global_dim % size != 0:
        size //= 2
    return max(size, 1)
