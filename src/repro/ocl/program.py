"""Programs: kernel source → checked AST → compiled kernels.

``Program.build()`` runs the full kernelc front-end, the lint pass and
the lowering (:func:`~repro.kernelc.compiler.compile_program`, which
records each statement's charge on the checked AST and generates no
module: the lockstep plan of a kernel is made at its first launch, the
per-item module at a program's first per-item launch).  Builds are
cached per ``(source, defines)`` so that skeleton libraries repeatedly
instantiating the same generated source (as SkelCL does) only pay the
build once per process, and in the persistent program cache
(:mod:`repro.kernelc.progcache`) so that a later process pays neither
front end nor lowering: a disk hit unpickles the checked AST.  A
program made by ``Context.create_program`` counts how its build was
served — ``skelcl_program_builds_total{result=memory|disk|compiled}``
and the cache's own ``skelcl_program_cache_total`` — on that context's
metrics; a bare ``Program`` counts nowhere.

Lint findings (:mod:`repro.kernelc.lint`) are recorded on the program
(``lint_diagnostics``) and rendered into the build log; lint *errors*
fail the build under the SkelSan strict mode — the mode its context
resolved (``Context(detect_races=...)`` first, then the configuration
chain) for a program made by ``Context.create_program``, the
process-wide links of the chain (``skelcl.configure(sanitize=...)``,
``SKELCL_SANITIZE``) for a bare ``Program``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..analysis.races import SanitizeMode, resolve_sanitize_mode
from ..kernelc import progcache
from ..kernelc.compiler import CompiledProgram, compile_program, restore_program
from ..kernelc.diagnostics import CompileError, Diagnostic, Severity
from ..kernelc.frontend import compile_preprocessed, preprocess_source
from ..kernelc.lint import lint_program
from ..kernelc.preprocessor import PreprocessorError
from .errors import BuildError

_BUILD_CACHE: Dict[
    Tuple[str, Tuple[Tuple[str, str], ...]],
    Tuple[CompiledProgram, List[Diagnostic]],
] = {}


def clear_build_cache() -> None:
    _BUILD_CACHE.clear()


def build_cache_size() -> int:
    return len(_BUILD_CACHE)


class Program:
    def __init__(self, source: str, name: str = "<kernel>",
                 defines: Optional[Dict[str, str]] = None, metrics=None,
                 sanitize=None):
        self.source = source
        self.name = name
        self.defines = dict(defines) if defines else {}
        self._metrics = metrics  # the creating context's registry, if any
        self._sanitize = sanitize  # ... and its resolved SkelSan mode
        self.build_log = ""
        self.lint_diagnostics: List[Diagnostic] = []
        self._compiled: Optional[CompiledProgram] = None

    @property
    def is_built(self) -> bool:
        return self._compiled is not None

    def _count_build(self, result: str) -> None:
        """``result``: ``"memory"`` (in-process build-cache hit),
        ``"disk"`` (served from the persistent program cache) or
        ``"compiled"`` (cold front end and lowering run)."""
        if self._metrics is not None:
            self._metrics.counter("skelcl_program_builds_total", result=result).inc()

    def build(self) -> "Program":
        key = (self.source, tuple(sorted(self.defines.items())))
        cached = _BUILD_CACHE.get(key)
        if cached is not None:
            self._count_build("memory")
            self._compiled, self.lint_diagnostics = cached
            self.build_log = "(cached)"
            self._enforce_lint()
            return self
        try:
            preprocessed = preprocess_source(self.source, self.name, self.defines)
        except PreprocessorError as exc:
            self.build_log = str(exc)
            raise BuildError(self.build_log) from exc

        # On-disk level: a prior process built this exact preprocessed
        # source — take its checked AST (lowered: the charges are on its
        # nodes) and lint findings.
        checked = None
        entry_path = progcache.entry_path(preprocessed)
        compiled, lint = progcache.load(
            entry_path, lambda program, lint: (restore_program(program), lint),
            self._metrics) or (None, None)
        if compiled is not None:
            self._count_build("disk")
            self.build_log = "(disk cache)"
        else:
            try:
                checked = compile_preprocessed(preprocessed, self.name)
                lint = lint_program(checked)
                compiled = compile_program(checked)
            except CompileError as exc:
                self.build_log = str(exc)
                raise BuildError(self.build_log) from exc
            self._count_build("compiled")
            progcache.store(entry_path, checked, lint, self._metrics)
            self.build_log = "build successful"
        # Each kernel's lockstep plan is kept beside the entry, written by
        # whichever process first launches it.
        for kernel in compiled.kernels.values():
            kernel.plan_path = progcache.plan_path(entry_path, kernel.name)
        _BUILD_CACHE[key] = (compiled, lint)
        self._compiled = compiled
        self.lint_diagnostics = lint
        if lint:
            source = getattr(checked, "source", None)
            rendered = "\n".join(d.render(source) for d in lint)
            self.build_log += "\n" + rendered
        self._enforce_lint()
        return self

    def _enforce_lint(self) -> None:
        """Under the strict SkelSan mode, lint errors fail the build."""
        if resolve_sanitize_mode(self._sanitize) is SanitizeMode.STRICT:
            self.fail_on_lint_errors()

    def fail_on_lint_errors(self) -> None:
        """Raise :class:`BuildError` with the lint errors of this (built)
        program, if it has any — what a strict build does."""
        errors = [d for d in self.lint_diagnostics if d.severity is Severity.ERROR]
        if errors:
            source = getattr(getattr(self._compiled, "program", None), "source", None)
            rendered = "\n".join(d.render(source) for d in errors)
            self.build_log = rendered
            raise BuildError(rendered)

    @property
    def compiled(self) -> CompiledProgram:
        if self._compiled is None:
            self.build()
        return self._compiled

    def kernel_names(self):
        return sorted(self.compiled.kernels)

    def create_kernel(self, name: str) -> "Kernel":
        from .kernel import Kernel

        return Kernel(self, self.compiled.kernel(name))

    def __repr__(self) -> str:
        state = "built" if self.is_built else "source"
        return f"<Program {self.name!r} ({state})>"
