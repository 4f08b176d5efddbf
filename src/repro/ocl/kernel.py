"""Kernel objects: argument marshaling for NDRange launches."""

from __future__ import annotations

from typing import List, Tuple

from ..kernelc import ast
from ..kernelc.compiler import CompiledKernel
from ..kernelc.ctypes_ import PointerType, ScalarType, VectorType, convert_scalar
from ..kernelc.values import VecValue
from .buffer import Buffer
from .errors import InvalidKernelArgs
from .program import Program


#: The value of an argument no ``set_arg`` has bound yet.
_UNSET = object()


class Kernel:
    """A launchable kernel: program + entry point + bound arguments."""

    def __init__(self, program: Program, compiled: CompiledKernel):
        self.program = program
        self.compiled = compiled
        self._args: List = [_UNSET] * len(compiled.definition.params)

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

    def set_args(self, *values) -> "Kernel":
        if len(values) != len(self._args):
            raise InvalidKernelArgs(
                f"kernel {self.name!r} expects {len(self._args)} argument(s), got {len(values)}"
            )
        for index, value in enumerate(values):
            self.set_arg(index, value)
        return self

    def marshal(self, device) -> Tuple[List, List[tuple]]:
        """Check the bound arguments for a launch on ``device`` and
        convert them to runtime values: the value of every scalar and
        vector argument (None in a pointer slot), and per pointer slot
        ``(index, pointee type, address space)`` — a launch views the
        slot's Buffer through a typed pointer of its own."""
        missing = [param.name for param, value in zip(self.params, self._args)
                   if value is _UNSET]
        if missing:
            raise InvalidKernelArgs(f"kernel {self.name!r}: unset argument(s) {missing}")
        values: List = []
        pointers: List[tuple] = []
        for index, (param, value) in enumerate(zip(self.params, self._args)):
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
                space = ctype.address_space if ctype.address_space != "private" else "global"
                pointers.append((index, ctype.pointee, space))
                values.append(None)
            elif isinstance(ctype, VectorType):
                if isinstance(value, VecValue):
                    values.append(VecValue(ctype.element, value.components))
                elif isinstance(value, (list, tuple)):
                    values.append(VecValue(ctype.element, list(value)))
                else:
                    raise InvalidKernelArgs(
                        f"argument {param.name!r} needs a vector value, got {type(value).__name__}"
                    )
            elif isinstance(ctype, ScalarType):
                if isinstance(value, Buffer):
                    raise InvalidKernelArgs(
                        f"argument {param.name!r} of kernel {self.name!r} is scalar, got a Buffer"
                    )
                values.append(convert_scalar(value, ctype))
            else:  # pragma: no cover
                raise InvalidKernelArgs(f"unsupported parameter type {ctype}")
        return values, pointers

    def __call__(self, *args) -> "Kernel":
        """Bind arguments fluently: ``kernel(a, b, n)``."""
        return self.set_args(*args)

    def __repr__(self) -> str:
        return f"<Kernel {self.name!r} of {self.program.name!r}>"
