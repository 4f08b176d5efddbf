"""Simulated compute devices."""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from .errors import OutOfResources
from .spec import DeviceSpec


class Device:
    """One simulated GPU: a spec plus allocation bookkeeping."""

    def __init__(self, spec: DeviceSpec, index: int = 0):
        self.spec = spec
        self.index = index
        self.allocated_bytes = 0

    @property
    def name(self) -> str:
        return f"{self.spec.name} #{self.index}"

    @property
    def global_mem_size(self) -> int:
        return self.spec.global_mem_bytes

    @property
    def max_work_group_size(self) -> int:
        return self.spec.max_work_group_size

    def allocate(self, nbytes: int) -> None:
        if self.allocated_bytes + nbytes > self.spec.global_mem_bytes:
            raise OutOfResources(
                f"{self.name}: allocating {nbytes} bytes exceeds device memory "
                f"({self.allocated_bytes} of {self.spec.global_mem_bytes} in use)"
            )
        self.allocated_bytes += nbytes

    def free(self, nbytes: int) -> None:
        self.allocated_bytes = max(0, self.allocated_bytes - nbytes)

    def __repr__(self) -> str:
        return f"<Device {self.name}>"


class Platform:
    """A simulated OpenCL platform.

    ``Platform(spec, n)`` builds N identical devices (the historic,
    homogeneous form).  ``Platform([spec_a, spec_b, ...])`` builds one
    device per spec, so heterogeneous CPU+GPU pools are expressible;
    device indices follow the sequence order.
    """

    def __init__(self, spec: Union[DeviceSpec, Sequence[DeviceSpec]],
                 num_devices: int = 1, name: Optional[str] = None):
        if isinstance(spec, DeviceSpec):
            if num_devices < 1:
                raise ValueError("a platform needs at least one device")
            specs: List[DeviceSpec] = [spec] * num_devices
        else:
            specs = list(spec)
            if not specs:
                raise ValueError("a platform needs at least one device")
            for candidate in specs:
                if not isinstance(candidate, DeviceSpec):
                    raise TypeError(
                        f"expected DeviceSpec instances, got {type(candidate).__name__}"
                    )
        self.specs = specs
        if name is not None:
            self.name = name
        elif len(set(s.name for s in specs)) == 1:
            self.name = f"Simulated platform ({specs[0].name})"
        else:
            self.name = "Simulated platform (mixed: " + " + ".join(
                s.name for s in specs
            ) + ")"
        self.devices = [Device(s, index) for index, s in enumerate(specs)]

    def __repr__(self) -> str:
        return f"<Platform {self.name!r} devices={len(self.devices)}>"
