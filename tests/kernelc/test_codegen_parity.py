"""Generated-code parity: the Python both code generators emit for the
shared kernel corpus is pinned in ``golden/codegen_parity.json``.

For every program ``tests/analysis/workloads.run_all()`` builds, every
``kernel_strings()`` source and the seed corpus of
``test_vectorize_differential``, the golden file holds the sha256 of the
per-item module (``CompiledProgram.source_code``) and, per kernel, of
the lockstep module (``plan.source``) or the reason there is none.

The golden file is written by the tree it is checked into::

    PYTHONPATH=src python -m tests.kernelc.test_codegen_parity

A refactoring of the generators must leave it byte-identical; a change
that moves generated code on purpose regenerates it and gives the count
of moved entries in CHANGES.md.
"""

import hashlib
import json
import os

from repro.kernelc import compile_source, vectorize
from repro.kernelc.compiler import compile_program

from tests.analysis import workloads
from tests.analysis.test_verdict_parity import _digest
from tests.kernelc.test_vectorize_differential import _corpus_cases

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "codegen_parity.json")


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def describe(source, defines=None):
    """``(kernel names, entry)``: the hashes of what both generators emit."""
    compiled = compile_program(compile_source(source, "<parity>", defines))
    lockstep = {}
    for name, kernel in compiled.kernels.items():
        plan = vectorize.plan_for(kernel)
        lockstep[name] = _sha(plan.source) if plan is not None \
            else "rejected: " + vectorize.reject_reason(kernel)
    return sorted(compiled.kernels), {"per_item": _sha(compiled.source_code),
                                      "lockstep": lockstep}


def collect():
    entries = {}
    for source, defines in workloads.built_programs():
        kernels, entry = describe(source, dict(defines))
        entries["+".join(kernels) + "#" + _digest(source + repr(defines))] = entry
    for label, source in workloads.kernel_strings():
        entries[label] = describe(source)[1]
    for case in _corpus_cases():
        entries["seed:" + case.id] = describe(case.values[0])[1]
    return entries


def test_generated_code_matches_golden():
    with open(GOLDEN) as handle:
        golden = json.load(handle)
    current = collect()
    assert sorted(current) == sorted(golden), (
        "the kernel corpus changed; regenerate the golden file")
    moved = [label for label, entry in current.items() if entry != golden[label]]
    assert not moved, f"generated code moved for {len(moved)} entries: {moved}"


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as handle:
        json.dump(collect(), handle, indent=1, sort_keys=True)
        handle.write("\n")
