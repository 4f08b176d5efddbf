"""Kernel objects: argument marshaling for NDRange launches."""

from __future__ import annotations

from typing import List

from ..kernelc import ast
from ..kernelc.compiler import CompiledKernel
from ..kernelc.ctypes_ import PointerType, ScalarType, VectorType, convert_scalar
from ..kernelc.execmodel import ExecutionCounters
from ..kernelc.values import VecValue
from .buffer import Buffer
from .errors import InvalidKernelArgs
from .program import Program


class Kernel:
    """A launchable kernel: program + entry point + bound arguments."""

    def __init__(self, program: Program, compiled: CompiledKernel):
        self.program = program
        self.compiled = compiled
        self._args: List = [None] * len(compiled.definition.params)
        self._args_set: List[bool] = [False] * len(compiled.definition.params)

    @property
    def name(self) -> str:
        return self.compiled.name

    @property
    def params(self) -> List[ast.Param]:
        return self.compiled.definition.params

    def set_arg(self, index: int, value) -> None:
        if not 0 <= index < len(self._args):
            raise InvalidKernelArgs(
                f"kernel {self.name!r} has {len(self._args)} argument(s), index {index} is invalid"
            )
        self._args[index] = value
        self._args_set[index] = True

    def set_args(self, *values) -> "Kernel":
        if len(values) != len(self._args):
            raise InvalidKernelArgs(
                f"kernel {self.name!r} expects {len(self._args)} argument(s), got {len(values)}"
            )
        for index, value in enumerate(values):
            self.set_arg(index, value)
        return self

    def marshal_args(self, counters: ExecutionCounters, device) -> List:
        """Convert bound arguments to runtime values for execution."""
        if not all(self._args_set):
            missing = [
                param.name for param, is_set in zip(self.params, self._args_set) if not is_set
            ]
            raise InvalidKernelArgs(f"kernel {self.name!r}: unset argument(s) {missing}")
        runtime: List = []
        for param, value in zip(self.params, self._args):
            ctype = param.declared_type
            if isinstance(ctype, PointerType):
                if not isinstance(value, Buffer):
                    raise InvalidKernelArgs(
                        f"argument {param.name!r} of kernel {self.name!r} needs a Buffer, "
                        f"got {type(value).__name__}"
                    )
                if value.device is not device:
                    raise InvalidKernelArgs(
                        f"buffer for argument {param.name!r} lives on {value.device.name}, "
                        f"but the kernel launches on {device.name}"
                    )
                pointer = value.pointer(ctype.pointee, counters.memory)
                pointer.address_space = ctype.address_space if ctype.address_space != "private" else "global"
                runtime.append(pointer)
            elif isinstance(ctype, VectorType):
                if isinstance(value, VecValue):
                    runtime.append(VecValue(ctype.element, value.components))
                elif isinstance(value, (list, tuple)):
                    runtime.append(VecValue(ctype.element, list(value)))
                else:
                    raise InvalidKernelArgs(
                        f"argument {param.name!r} needs a vector value, got {type(value).__name__}"
                    )
            elif isinstance(ctype, ScalarType):
                if isinstance(value, Buffer):
                    raise InvalidKernelArgs(
                        f"argument {param.name!r} of kernel {self.name!r} is scalar, got a Buffer"
                    )
                runtime.append(convert_scalar(value, ctype))
            else:  # pragma: no cover
                raise InvalidKernelArgs(f"unsupported parameter type {ctype}")
        return runtime

    def __call__(self, *args) -> "Kernel":
        """Bind arguments fluently: ``kernel(a, b, n)``."""
        return self.set_args(*args)

    def __repr__(self) -> str:
        return f"<Kernel {self.name!r} of {self.program.name!r}>"
