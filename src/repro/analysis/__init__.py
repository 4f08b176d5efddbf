"""repro.analysis: correctness tooling for the simulated runtime ("SkelSan").

Two fronts:

* **Dynamic-graph race detection** (:mod:`repro.analysis.races`): every
  command enqueued on a :class:`repro.ocl.CommandQueue` records the set
  of buffer byte ranges it reads and writes
  (:mod:`repro.analysis.access`) plus its wait-list edges; the
  :class:`RaceDetector` runs a happens-before analysis over the
  recorded command graph and reports every pair of commands that
  conflict (at least one write, overlapping byte ranges) without an
  ordering path — with full provenance (device, command, enqueue site).

* **The analysis engine** (:mod:`repro.analysis.affine`, "SkelAccess"):
  the one abstract interpreter of kernelc statements.  It summarizes a
  function — every ``__global``/``__constant`` pointer access as guarded
  affine forms over work-item ids and scalar parameters, every
  fixed-size-array site, per-parameter access modes, which barrier
  conditions depend on a work-item id — once per definition.
  Evaluated at enqueue time against the concrete NDRange, the summaries
  give the race detector exact (strided) byte ranges; statically they
  answer the out-of-bounds, barrier-divergence and coalescing lint
  rules, the planner's fusion legality check and MapOverlap's bounds
  proof.

* **Kernel-source linting** lives in :mod:`repro.kernelc.lint`;
  :func:`lint_program` is re-exported here for convenience.

Enable the sanitizer per context (``Context(devices,
detect_races="strict")``) or process-wide via the ``SKELCL_SANITIZE``
environment variable (``off`` / ``report`` / ``strict``).
"""

from .access import BufferAccess, kernel_buffer_accesses, pointer_param_modes
from .affine import (
    AffineForm,
    Footprint,
    KernelSummary,
    UExpr,
    make_eval_env,
    resolve_footprint,
    summarize_kernel,
)
from .races import (
    Race,
    RaceDetector,
    RaceError,
    RaceWarning,
    SanitizeMode,
    resolve_sanitize_mode,
)

__all__ = [
    "AffineForm",
    "BufferAccess",
    "Footprint",
    "KernelSummary",
    "UExpr",
    "make_eval_env",
    "resolve_footprint",
    "summarize_kernel",
    "Race",
    "RaceDetector",
    "RaceError",
    "RaceWarning",
    "SanitizeMode",
    "kernel_buffer_accesses",
    "lint_program",
    "pointer_param_modes",
    "resolve_sanitize_mode",
]


def lint_program(program, sink=None):
    """Re-export of :func:`repro.kernelc.lint.lint_program` (lazy import
    so that ``repro.analysis`` stays importable on its own)."""
    from ..kernelc.lint import lint_program as _lint

    return _lint(program, sink)
