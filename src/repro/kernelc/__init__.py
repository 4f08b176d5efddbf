"""kernelc: an OpenCL-C subset front-end and execution engine.

This package implements the "compiler" half of the SkelCL reproduction:
kernel sources (including those generated by the skeleton library) are
preprocessed, lexed, parsed and type-checked, then lowered *once*
(:mod:`.compiler`) to the Python of the lockstep NumPy engine every
launch runs on (:mod:`.vectorize`), with operation and memory-traffic
accounting that drives the simulated device timing model.  It runs on
one runtime value library (:mod:`.values`, :mod:`.memory`,
:mod:`.execmodel`, :mod:`.builtins`), as do the two oracles the tests
hold it against (``tests/kernelc/peritem.py``, the per-work-item module
of the same lowering, and ``tests/kernelc/interp.py``, a tree-walking
interpreter; neither is part of this package).

Public API (this module's ``__all__``):

* :func:`compile_source` — full front-end, returns a checked Program;
  :func:`lint_program`, :func:`preprocess` / :class:`Preprocessor`
* :class:`CompileError`, :class:`Diagnostic`, :class:`KernelFault` — what
  building and running a kernel can raise
* :class:`WorkItemContext`, :class:`ExecutionCounters`,
  :class:`MemoryCounters` — execution model
* :class:`Pointer`, :class:`ArrayRef`, :class:`VecValue`,
  :func:`allocate` — device memory and value model

The engines are reached through their modules:
``repro.kernelc.compiler.compile_program`` and
``repro.kernelc.vectorize.plan_for`` / ``execute``.
"""

from .builtins import CLK_GLOBAL_MEM_FENCE, CLK_LOCAL_MEM_FENCE
from .diagnostics import CompileError, Diagnostic, DiagnosticSink, Severity
from .execmodel import ExecutionCounters, WorkItemContext
from .frontend import compile_source
from .lint import lint_program
from .memory import ArrayRef, KernelFault, MemoryCounters, Pointer, allocate
from .preprocessor import Preprocessor, PreprocessorError, preprocess
from .values import VecValue

__all__ = [
    "ArrayRef",
    "CLK_GLOBAL_MEM_FENCE",
    "CLK_LOCAL_MEM_FENCE",
    "CompileError",
    "Diagnostic",
    "DiagnosticSink",
    "ExecutionCounters",
    "KernelFault",
    "MemoryCounters",
    "Pointer",
    "Preprocessor",
    "PreprocessorError",
    "Severity",
    "VecValue",
    "WorkItemContext",
    "allocate",
    "compile_source",
    "lint_program",
    "preprocess",
]
