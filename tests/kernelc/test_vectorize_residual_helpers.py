"""Which lane helpers the skeletons' generated kernels still call.

The lockstep generator spells an operation directly where it knows the
kind of every operand; it calls a helper that decides at run time
(``_i_*``/``_u_*``/``_f_*``, ``_um64``, ``_truthy``, ``_merge``) only where
a launch decides.  This guard runs the ``skelcl_*`` kernels of the six
skeletons — Map, Zip, Reduce with its fused form, Scan's three kernels,
MapOverlap on vectors and matrices, AllPairs — with the customizing
functions of the benchmark's workloads (``bench/workloads.py``), and pins
how many call sites of those helpers their generated sources keep: none.
It also pins the wider count of helper call sites (conversions, ``_b2i``,
``_sw`` …), the residual share ``docs/kernelc.md`` reports.
"""

import re
from collections import Counter

import numpy as np
import pytest

import repro.skelcl as skelcl
from repro.kernelc import vectorize

#: Helpers that decide an operand's kind at run time.
_DECIDING = re.compile(r"\b(_[iuf]_[a-z_]+|_um64|_truthy|_merge)\(")
#: Every helper call of the lane library an operation may lower to.
_HELPERS = re.compile(r"\b(_[iuf]_[a-z_]+|_um64|_truthy|_merge|_b2i|_to_bool|_sw|_i2f|_f2i|"
                      r"_cast|_u2f|_lanes|_as_int_operand|_wrap_to_i64|_float_lanes_to_int|"
                      r"_fdiv_l|_divide_l|_shift_l)\(")
#: What the plans below still call: integer division (``_divide_l``, which
#: faults where a lane divides by zero), a float's conversion to an
#: integer (``_float_lanes_to_int``, which faults on NaN and infinity) and
#: ``_as_int_operand`` where a uniform int of any size or a value only a
#: launch knows becomes an operand beside lanes.  With a helper per
#: operation, before the generator knew operand kinds, the same plans
#: called 1,082, 992 of them helpers that decide kinds.
_RESIDUAL = 58

_N = 1024  # elements: Scan's add-blocks pass runs from two blocks per device on


@pytest.fixture
def generated(monkeypatch):
    """``{kernel label: lockstep source}`` of every plan a launch asks for."""
    sources = {}
    plan_for = vectorize.plan_for

    def recording(kernel, metrics=None):
        plan = plan_for(kernel, metrics)
        sources[f"{kernel.name}:{len(sources)}"] = plan.source
        return plan

    monkeypatch.setattr(vectorize, "plan_for", recording)
    return sources


def _run_every_skeleton(lazy):
    rng = np.random.RandomState(0)
    a, b = (rng.randint(-64, 64, _N).astype(np.float32) / 8 for _ in range(2))
    image = rng.randint(0, 256, (16, 16)).astype(np.uint8)
    signal = rng.randint(0, 256, _N).astype(np.int32)
    vector, matrix = skelcl.Vector, skelcl.Matrix
    reduce = skelcl.Reduce("float f(float x, float y) { return x + y; }")
    zip_ = skelcl.Zip("float h(float x, float y) { return x * y; }")
    scale = skelcl.Map("float f(float x) { return x * 2.0f + 1.0f; }")

    @skelcl.jit
    def scale_shift(x: np.float32) -> np.float32:
        return x * 1.5 + 2.0

    # dispatch_small
    scale(vector(data=a)).to_numpy()
    skelcl.Zip("float f(float x, float y) { return x * y + 1.0f; }")(
        vector(data=a), vector(data=b)).to_numpy()
    reduce(vector(data=a)).get_value()
    skelcl.Scan("float f(float x, float y) { return x + y; }")(vector(data=a)).to_numpy()
    skelcl.MapOverlap("float f(const float* v) { return 0.25f * get(v, -1) + 0.5f * get(v, 0)"
                      " + 0.25f * get(v, 1); }", 1, skelcl.BoundaryMode.NEAREST)(
        vector(data=a)).to_numpy()
    skelcl.AllPairs(reduce, skelcl.Zip("float g(float x, float y) { return x * y; }"))(
        matrix(data=a[:64].reshape(8, 8)), matrix(data=b[:64].reshape(8, 8))).to_numpy()
    skelcl.Map("float f(float x, float s) { return x * s; }")(vector(data=a), 3.0).to_numpy()
    skelcl.Map(scale_shift)(vector(data=a)).to_numpy()
    # fused_pipeline, in a lazy session: a Reduce over a Map and over a Zip
    with lazy.activate():
        reduce(scale(vector(data=a))).get_value()
        reduce(zip_(vector(data=a), vector(data=b))).get_value()
    # stencil_frames
    blur = skelcl.MapOverlap("""
        uchar func(const uchar* img) {
            int sum = 1 * get(img, -1, -1) + 2 * get(img, 0, -1) + 1 * get(img, +1, -1)
                    + 2 * get(img, -1,  0) + 4 * get(img, 0,  0) + 2 * get(img, +1,  0)
                    + 1 * get(img, -1, +1) + 2 * get(img, 0, +1) + 1 * get(img, +1, +1);
            return (uchar)(sum / 16);
        }""", 1, skelcl.BoundaryMode.NEAREST)
    sobel = skelcl.MapOverlap("""
        uchar func(const uchar* img) {
            short h = -1*get(img,-1,-1) +1*get(img,+1,-1)
                      -2*get(img,-1, 0) +2*get(img,+1, 0)
                      -1*get(img,-1,+1) +1*get(img,+1,+1);
            short v = -1*get(img,-1,-1) -2*get(img, 0,-1) -1*get(img,+1,-1)
                      +1*get(img,-1,+1) +2*get(img, 0,+1) +1*get(img,+1,+1);
            return (uchar)sqrt((float)(h*h + v*v));
        }""", 1, skelcl.BoundaryMode.NEUTRAL, 0)
    binary = skelcl.Map("uchar func(uchar x, int t) { return x > t ? 1 : 0; }")(
        sobel(blur(matrix(data=image))), 16)
    skelcl.Reduce("int func(int a, int b) { return a + b; }")(
        skelcl.Map("int func(uchar x) { return x; }")(binary)).get_value()
    # serve_mixed
    gradient = skelcl.MapOverlap("int f(const int* v) { int g = get(v, 1) - get(v, -1);"
                                 " return g < 0 ? -g : g; }", 1, skelcl.BoundaryMode.NEUTRAL, 0)
    skelcl.Map("int t(int x) { return x > 16 ? 1 : 0; }")(
        gradient(vector(data=signal))).to_numpy()
    skelcl.Map("int e(int c) { int z = 0; int it = 0;"
               " while (it < 24 && z < 900) { z = (z * z + c) & 1023; ++it; } return it; }")(
        vector(data=signal)).to_numpy()


def test_skeleton_kernels_call_no_helper_that_decides_kinds(generated):
    eager = skelcl.init(num_devices=2)
    lazy = skelcl.init(num_devices=2, lazy=True)
    try:
        with eager.activate():
            _run_every_skeleton(lazy)
    finally:
        lazy.close()
        eager.close()
    kernels = Counter(label.split(":")[0] for label in generated)
    assert {"skelcl_map", "skelcl_zip", "skelcl_reduce", "skelcl_reduce_fused",
            "skelcl_scan_block", "skelcl_scan_add_blocks", "skelcl_mapoverlap_v",
            "skelcl_mapoverlap_m", "skelcl_allpairs"} <= set(kernels), kernels
    deciding = {label: _DECIDING.findall(source) for label, source in generated.items()}
    assert not any(deciding.values()), deciding
    residual = sum(len(_HELPERS.findall(source)) for source in generated.values())
    assert residual == _RESIDUAL, residual
