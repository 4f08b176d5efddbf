"""The kernel corpus the analysis tests share.

:func:`run_all` drives every way this repository generates kernels —
the six skeletons with string customizers (vector and matrix
MapOverlap, both boundary modes, index containers, generic and
zip/reduce AllPairs, the planner's fused kernels), the ``@skelcl.jit``
corpus of ``tests/jit`` through its skeletons, ``repro.apps`` and the
``examples/`` scripts — on small inputs.  Callers observe the run from
outside: ``test_verdict_parity`` reads back every program that was
built and every MapOverlap that was constructed, ``test_differential``
replays every launch against the interpreter's memory trace.

:func:`kernel_strings` adds the literal ``__kernel`` sources of
``repro.baselines``, ``repro.apps`` and ``examples/``.
"""

import glob
import os
import runpy
import sys

import numpy as np

import repro.skelcl as skelcl
from repro import ocl
from repro.skelcl import (AllPairs, BoundaryMode, IndexMatrix, IndexVector,
                          Map, MapOverlap, Matrix, Reduce, Scan, Vector, Zip)

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

EXAMPLES = [
    ("quickstart.py",), ("mandelbrot.py", "48", "32"),
    ("sobel_edge_detection.py", "64"), ("matrix_multiplication.py",),
    ("distributions.py",), ("nbody.py", "16", "2"),
    ("heat_diffusion.py", "24", "4"), ("game_of_life.py", "2"),
    ("image_pipeline.py", "48"),
]

STENCILS_1D = [
    ("float func(float* v) { return get(v, -1) + get(v, 0) + get(v, 1); }", 1),
    ("float func(float* v) { return v[-1] + v[0] + v[1]; }", 1),
    ("float func(float* v) { float s = 0.0f;"
     " for (int i = -2; i <= 2; ++i) s += get(v, i); return s; }", 3),
    ("float func(float* v) { return *(v + 1) - *v; }", 2),
    ("int func(int* v) { return get(v, v[0] & 1); }", 1),
]

STENCILS_2D = [
    ("float func(float* m) { return get(m, -1, 0) + get(m, 1, 0)"
     " + get(m, 0, -1) + get(m, 0, 1); }", 1),
    ("float func(float* m) { float s = 0.0f;"
     " for (int i = -1; i <= 1; ++i) for (int j = -1; j <= 1; ++j)"
     " s += get(m, i, j); return s / 9.0f; }", 2),
]


# Two sources whose verdicts the shared engine moved on purpose: a loop
# body that resets its counter (the interval analyzer trusted the loop
# header and elided the range check) and a work-item id that reaches a
# barrier's condition through a helper call (the taint pass only knew the
# builtins by name).  The stencil is constructed, never launched.
COUNTER_RESET_STENCIL = (
    "float func(float* v) { float s = 0.0f; int once = 0;"
    " for (int i = -1; i <= 1; ++i) { s += get(v, i);"
    " if (i == 0 && !once) { i = -5; once = 1; } } return s; }")

# MapOverlap verdicts outside the rest of the corpus that differ from
# the interval analyzer's (all constructed, never launched), d = 1:
# a product of two counters is no longer bounded (was proven); a reach
# limited by an if/else or a ternary on the counter now is (was
# rejected); and what a switch assigns — cases fall through, break
# early, match nothing — is no longer trusted, nor does an early return
# in one case narrow anything after it (the first three were proven).
MOVED_STENCILS = [
    "float counter_product(float* v) { float s = 0.0f;"
    " for (int i = 0; i < 2; ++i) for (int j = 0; j < 2; ++j)"
    " s += get(v, i * j); return s; }",
    "float guarded_reach(float* v) { float s = 0.0f;"
    " for (int i = 0; i < 5; ++i) { if (i > 1) { s += 1.0f; }"
    " else { s += get(v, i); } } return s; }",
    "float ternary_reach(float* v) { float s = 0.0f;"
    " for (int i = 0; i < 5; ++i) s += get(v, i > 1 ? 1 : i); return s; }",
    "float switch_fallthrough(float* v) { int x = 0; int y = 0;"
    " switch ((int)v[0]) { case 0: y = 5; case 1: x = y; }"
    " return get(v, x); }",
    "float switch_early_break(float* v) { int x = 0;"
    " switch ((int)v[0]) { case 0: x = 5; if (v[1] > 0.0f) break;"
    " x = 0; break; default: x = 1; } return get(v, x); }",
    "float switch_no_match(float* v) { int x = 5;"
    " switch ((int)v[0]) { case 0: x = 0; } return get(v, x); }",
    "float switch_case_return(float* v) { float s = 0.0f;"
    " for (int i = 0; i < 5; ++i) {"
    " switch (i) { case 0: if (i > 1) return s; break; }"
    " s += get(v, i); } return s; }",
]

HELPER_ID_BARRIER = """
int my_id() { return get_local_id(0); }
__kernel void k(__global float* a, __local float* t) {
    int id = my_id();
    t[id] = a[id];
    if (id < 4) { barrier(CLK_LOCAL_MEM_FENCE); }
    a[id] = t[0];
}
"""


def _vec(n, dtype=np.float32, seed=0):
    rng = np.random.RandomState(seed)
    return Vector(data=rng.randint(-8, 8, n).astype(dtype))


def _mat(rows, cols, dtype=np.float32, seed=0):
    rng = np.random.RandomState(seed)
    return Matrix(data=rng.randint(-8, 8, (rows, cols)).astype(dtype))


def string_skeletons():
    """All six skeletons, every kernel template, string customizers."""
    skelcl.init(num_devices=2, spec=ocl.TEST_DEVICE, lazy=False)
    try:
        Map("float func(float x) { return 2.0f * x; }")(_vec(70)).to_numpy()
        Map("float func(float x, float a, int k) { return a * x + k; }")(
            _mat(5, 9), 0.5, 3).to_numpy()
        Map("int func(int i) { return i * i; }")(IndexVector(37)).to_numpy()
        Map("int func(int r, int c) { return r * 100 + c; }")(
            IndexMatrix((6, 7))).to_numpy()
        Zip("float func(float x, float y) { return x + y; }")(
            _vec(70), _vec(70, seed=1)).to_numpy()
        Zip("int func(int x, int y, int s) { return x * s - y; }")(
            _vec(33, np.int32), _vec(33, np.int32, 1), 3).to_numpy()
        Reduce("float func(float x, float y) { return x + y; }", "0")(
            _vec(301)).to_numpy()
        Reduce("int func(int x, int y) { return x > y ? x : y; }", "-100")(
            _vec(1000, np.int32)).to_numpy()
        Scan("float func(float x, float y) { return x + y; }", "0")(
            _vec(300)).to_numpy()
        Scan("int func(int x, int y) { return x + y; }", "0")(
            _vec(1030, np.int32)).to_numpy()
        for boundary in (BoundaryMode.NEUTRAL, BoundaryMode.NEAREST):
            for source, overlap in STENCILS_1D:
                dtype = np.int32 if source.startswith("int") else np.float32
                for static in (True, False):
                    MapOverlap(source, overlap, boundary, 0,
                               static_bounds=static)(
                        _vec(97, dtype)).to_numpy()
            for source, overlap in STENCILS_2D:
                MapOverlap(source, overlap, boundary, 0)(
                    _mat(12, 17)).to_numpy()
        for source in [COUNTER_RESET_STENCIL] + MOVED_STENCILS:
            MapOverlap(source, 1, BoundaryMode.NEUTRAL, 0)
        AllPairs(
            Reduce("float add(float x, float y) { return x + y; }"),
            Zip("float mul(float x, float y) { return x * y; }"),
        )(_mat(6, 8), _mat(5, 8, seed=1)).to_numpy()
        AllPairs(source="float func(const float* a, const float* b, int d) {"
                        " float s = 0.0f; for (int i = 0; i < d; ++i)"
                        " { s += fabs(a[i] - b[i]); } return s; }")(
            _mat(6, 8), _mat(5, 8, seed=1)).to_numpy()
    finally:
        skelcl.terminate()


def fused_pipelines():
    """The planner's generated kernels: map∘map, zip∘(map, map) and a
    map chain folded into Reduce's first pass."""
    skelcl.init(num_devices=2, spec=ocl.TEST_DEVICE, lazy=True)
    try:
        double = Map("float dbl(float x) { return 2.0f * x; }")
        inc = Map("float inc(float x, float a) { return x + a; }")
        add = Zip("float add(float x, float y) { return x + y; }")
        total = Reduce("float sum(float x, float y) { return x + y; }", "0")
        inc(double(_vec(90)), 1.5).to_numpy()
        add(double(_vec(90)), inc(_vec(90, seed=1), 2.0)).to_numpy()
        total(inc(double(_vec(200)), 0.5)).to_numpy()
    finally:
        skelcl.terminate()


def jit_corpus():
    """Every hand-written ``@skelcl.jit`` case of tests/jit through its
    skeleton (first dtype of each case)."""
    from ..jit import corpus

    rng = np.random.RandomState(12345)
    skelcl.init(num_devices=1, spec=ocl.TEST_DEVICE, lazy=False)
    try:
        for case in corpus.MAP_CASES:
            data = corpus.make_data(case.dtypes[0], case.domain, rng)
            Map(case.fn)(Vector(data=data), *case.extras).to_numpy()
        for case in corpus.ZIP_CASES:
            left = corpus.make_data(case.dtypes[0], case.domain, rng)
            right = corpus.make_data(case.dtypes[1], case.domain, rng)
            Zip(case.fn)(Vector(data=left), Vector(data=right),
                         *case.extras).to_numpy()
        for fn, identity, dtype, domain in corpus.REDUCE_CASES:
            data = corpus.make_data(dtype, domain, rng, n=301)
            Reduce(fn, identity)(Vector(data=data)).to_numpy()
        for fn, identity, dtype, domain in corpus.SCAN_CASES:
            data = corpus.make_data(dtype, domain, rng, n=300)
            Scan(fn, identity)(Vector(data=data)).to_numpy()
        for fn, overlap, two_d, dtype in corpus.STENCIL_CASES:
            for boundary in (BoundaryMode.NEUTRAL, BoundaryMode.NEAREST):
                stencil = MapOverlap(fn, overlap, boundary, 0)
                if two_d:
                    data = corpus.make_data(dtype, "any", rng, n=12 * 17)
                    stencil(Matrix(data=data.reshape(12, 17))).to_numpy()
                else:
                    data = corpus.make_data(dtype, "any", rng, n=97)
                    stencil(Vector(data=data)).to_numpy()
        Map(corpus.m_int_arith)(IndexVector(41)).to_numpy()
    finally:
        skelcl.terminate()


def apps():
    from repro.apps.dotproduct import DotProduct
    from repro.apps.gaussian import GaussianBlur
    from repro.apps.heat import HeatDiffusion, hot_spot_grid
    from repro.apps.images import synthetic_image
    from repro.apps.mandelbrot import Mandelbrot
    from repro.apps.manhattan import ManhattanDistance
    from repro.apps.matmul import MatrixMultiplication
    from repro.apps.nbody import NBodySimulation, plummer_sphere
    from repro.apps.sobel import SobelEdgeDetection, sobel_py

    rng = np.random.RandomState(7)
    skelcl.init(num_devices=2, spec=ocl.TEST_DEVICE, lazy=False)
    try:
        a = rng.rand(100).astype(np.float32)
        DotProduct().compute(a, a)
        image = synthetic_image(24, 32)
        GaussianBlur().blur(image.astype(np.float32))
        SobelEdgeDetection().detect(image)
        SobelEdgeDetection(sobel_py).detect(image)
        HeatDiffusion().run(hot_spot_grid(16), max_iterations=3)
        Mandelbrot(max_iterations=20).render_image(32, 24)
        points = rng.rand(6, 4).astype(np.float32)
        ManhattanDistance().compute(points, points)
        MatrixMultiplication().compute(points, points.T.copy())
        NBodySimulation(plummer_sphere(12)).run(2)
    finally:
        skelcl.terminate()


def examples(workdir):
    """Run every example script on small arguments, in ``workdir`` (they
    write image files into the cwd).  The scripts call ``init()``
    themselves; the corpus means their eager kernels whatever
    ``SKELCL_LAZY`` says."""
    old_argv, old_cwd = sys.argv, os.getcwd()
    os.chdir(workdir)
    skelcl.configure(lazy=False)
    try:
        for name, *argv in EXAMPLES:
            script = os.path.join(REPO, "examples", name)
            sys.argv = [script, *argv]
            try:
                runpy.run_path(script, run_name="__main__")
            finally:
                if skelcl.is_initialized():
                    skelcl.terminate()
    finally:
        skelcl.configure(lazy=None)
        sys.argv = old_argv
        os.chdir(old_cwd)


def run_all(workdir):
    string_skeletons()
    fused_pipelines()
    jit_corpus()
    apps()
    examples(workdir)


def built_programs():
    """Run the whole corpus from cold caches (what gets built must not
    depend on which tests ran earlier in the process); returns the sorted
    ``(source, defines)`` of every program it built."""
    import contextlib
    import io
    import tempfile

    from repro.ocl import program as ocl_program
    from repro.plan import compose

    ocl_program.clear_build_cache()
    for cache in (compose._COMPOSED, compose._FOOTPRINT_CACHE):
        cache.clear()
    with tempfile.TemporaryDirectory() as workdir, \
            contextlib.redirect_stdout(io.StringIO()):
        run_all(workdir)
    built = sorted(ocl_program._BUILD_CACHE)
    ocl_program.clear_build_cache()
    return built


def kernel_strings():
    """``(label, source)`` for every literal kernel source shipped in
    ``repro.baselines``, ``repro.apps`` and ``examples/``, plus
    :data:`HELPER_ID_BARRIER`."""
    from repro.kernelc.__main__ import _extract_kernel_strings

    yield "tests/analysis/workloads.py:HELPER_ID_BARRIER", HELPER_ID_BARRIER
    paths = []
    for pattern in ("src/repro/baselines/*.py", "src/repro/apps/*.py",
                    "examples/*.py"):
        paths += sorted(glob.glob(os.path.join(REPO, pattern)))
    for path in paths:
        for line, text in _extract_kernel_strings(path):
            yield f"{os.path.relpath(path, REPO)}:{line}", text
