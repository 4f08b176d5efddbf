"""One walk per kernel definition.

Lint (at build), SkelSan (at every enqueue) and the planner's fusion
gate all read the same memoized summary: across build → first enqueue →
gate → repeated calls the scanner runs exactly once for every kernel
that was built, and never twice for any function."""

from collections import Counter

import numpy as np

import repro.skelcl as skelcl
from repro import ocl
from repro.analysis import affine
from repro.plan import compose
from repro.skelcl import Map, Reduce, Vector, Zip


def test_scanner_runs_once_per_kernel_definition(monkeypatch, tmp_path):
    runs = Counter()
    walked = []  # keeps the definitions alive so ids stay unique
    real = affine.summarize_kernel

    def counting(program, fn):
        runs[id(fn)] += 1
        walked.append(fn)
        return real(program, fn)

    monkeypatch.setattr(affine, "summarize_kernel", counting)
    # A warm disk entry would carry its summary along: start cold.
    monkeypatch.setenv("SKELCL_DIR", str(tmp_path))
    ocl.clear_build_cache()
    compose._FOOTPRINT_CACHE.clear()

    double = Map("float once_dbl(float x) { return 2.0f * x; }")
    inc = Map("float once_inc(float x) { return x + 1.0f; }")
    add = Zip("float once_add(float x, float y) { return x + y; }")
    total = Reduce("float once_sum(float x, float y) { return x + y; }", "0")
    data = np.arange(300, dtype=np.float32)

    session = skelcl.init(num_devices=2, spec=ocl.TEST_DEVICE)
    try:
        for _ in range(3):  # build, then enqueue after enqueue
            doubled = double(Vector(data=data))
            total(add(doubled, inc(doubled))).to_numpy()
    finally:
        session.close()
    session = skelcl.init(num_devices=2, spec=ocl.TEST_DEVICE, lazy=True)
    try:
        for _ in range(2):  # gate on built skeletons, then a fused kernel
            inc(double(Vector(data=data))).to_numpy()
    finally:
        session.close()

    assert runs and set(runs.values()) == {1}
    kernels = [fn for fn in walked if fn.is_kernel]
    assert len(kernels) == ocl.build_cache_size()
    ocl.clear_build_cache()
