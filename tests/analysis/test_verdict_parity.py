"""Verdict parity: every answer the kernel analyses give on the corpus
of ``workloads.py`` — per-parameter access mode, affine/fallback and
reason, footprints with guards, array sites, every lint diagnostic, and
for MapOverlap customizers the bounds proof and the effective overlap —
is pinned in ``golden/verdict_parity.json``.

The golden file is written by the tree it is checked into::

    PYTHONPATH=src python -m tests.analysis.test_verdict_parity

A refactoring of the analyses must leave it byte-identical; a change
that moves a verdict on purpose regenerates it and lists the moved
entries in CHANGES.md.
"""

import hashlib
import json
import os
import re

from repro.analysis import affine
from repro.analysis.access import pointer_param_modes
from repro.kernelc.frontend import compile_source
from repro.kernelc.lint import lint_program
from repro.skelcl.mapoverlap import MapOverlap

from . import workloads

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "verdict_parity.json")

_PY_ORIGIN = re.compile(r"/\*@py:[^*]*\*/")


def _digest(text):
    # jit origin markers carry absolute paths: not part of the identity.
    return hashlib.sha1(_PY_ORIGIN.sub("", text).encode()).hexdigest()[:10]


def _when(guards):
    if not guards:
        return ""
    return " when " + "; ".join(f"{g.format()} <= 0" for g in guards)


def describe_program(source, defines=None):
    program = compile_source(source, "<parity>", defines)
    kernels = {}
    for fn in program.kernels():
        summary = affine.summarize_kernel(program, fn)
        params = {}
        for name, mode in pointer_param_modes(program, fn).items():
            entry = {"mode": mode}
            psum = summary.params.get(name)
            if psum is not None:
                entry["summary"] = ("affine" if psum.affine
                                    else f"fallback: {psum.fallback_reason}")
                entry["footprints"] = [
                    f"{fp.mode} [{fp.index.format()}]{_when(fp.guards)}"
                    for fp in psum.footprints]
            params[name] = entry
        kernels[fn.name] = {
            "params": params,
            "array_sites": [
                f"{s.mode} {s.name}[{s.length}] "
                f"[{'?' if s.index is None else s.index.format()}]"
                f"{_when(s.guards)}"
                for s in summary.array_sites],
        }
    lint = [f"{d.span.start if d.span is not None else '-'} "
            f"{d.severity.value}: {d.message}" for d in lint_program(program)]
    return {"kernels": kernels, "lint": lint}


def describe_stencil(stencil):
    return {
        "proven": stencil.bounds_proof.proven,
        "checks_elided": stencil.checks_elided,
        "reason": stencil.bounds_proof.reason,
        "effective_overlap": stencil.effective_overlap,
    }


def collect():
    """Run the corpus and describe everything that was built."""
    stencils = []
    original_init = MapOverlap.__init__

    def recording_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        static = kwargs.get("static_bounds", args[4] if len(args) > 4 else True)
        stencils.append((self, static))

    MapOverlap.__init__ = recording_init
    try:
        built = workloads.built_programs()
    finally:
        MapOverlap.__init__ = original_init

    programs = {}
    for source, defines in built:
        entry = describe_program(source, dict(defines))
        label = "+".join(sorted(entry["kernels"])) + "#" + _digest(source)
        programs[label] = entry
    for label, source in workloads.kernel_strings():
        programs[label] = describe_program(source)
    overlaps = {}
    for stencil, static in stencils:
        label = (f"{stencil.user.name}#{_digest(stencil.user.source)}"
                 f"/d={stencil.overlap}/static_bounds={static}")
        overlaps[label] = describe_stencil(stencil)
    return {"programs": programs, "mapoverlap": overlaps}


def test_verdicts_match_golden():
    with open(GOLDEN) as handle:
        golden = json.load(handle)
    current = collect()
    for section in ("programs", "mapoverlap"):
        assert sorted(current[section]) == sorted(golden[section]), (
            f"the {section} corpus changed; regenerate the golden file")
        for label, entry in current[section].items():
            assert entry == golden[section][label], (
                f"{section} verdict moved for {label}")


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as handle:
        json.dump(collect(), handle, indent=1, sort_keys=True)
        handle.write("\n")
