"""Jit-lowered kernels versus their hand-written OpenCL-C twins.

For each pair the tests prove three things:

1. **Same source** — stripping the ``/*@py:...*/`` and
   ``/*@intent:...*/`` markers from the lowered kernel yields exactly
   the bytes of the hand-written twin.
2. **Same execution** — running both through the same skeleton on the
   same data produces bit-identical results and identical summed
   :class:`~repro.ocl.event.Event` execution counters (ops, loads,
   stores, bytes, barriers, ...): the jit adds zero overhead.
3. **Race-free** — both versions run clean under the strict SkelSan
   sanitizer.
"""

import textwrap

import numpy as np
import pytest

import repro.skelcl as skelcl
from repro import ocl
from repro.jit import strip_markers
from repro.skelcl import BoundaryMode, Map, MapOverlap, Reduce, Vector, Zip


# --- the jitted functions and their hand-written twins ---------------

@skelcl.jit
def square(x: np.float32) -> np.float32:
    return x * x


SQUARE_TWIN = """\
float square(float x)
{
    return (float)(x * x);
}"""


@skelcl.jit
def saxpy(x: np.float32, y: np.float32, a: np.float32) -> np.float32:
    return a * x + y


SAXPY_TWIN = """\
float saxpy(float x, float y, float a)
{
    return (float)((float)(a * x) + y);
}"""


@skelcl.jit
def add(x: np.float32, y: np.float32) -> np.float32:
    return x + y


ADD_TWIN = """\
float add(float x, float y)
{
    return (float)(x + y);
}"""


@skelcl.jit
def blur(v: skelcl.READ[np.float32]) -> np.float32:
    return (skelcl.get(v, -1) + skelcl.get(v, 0) + skelcl.get(v, 1)) / 3.0


BLUR_TWIN = """\
float blur(const float* v)
{
    return (float)((float)((float)(get(v, -1) + get(v, 0)) + get(v, 1)) / 3.0f);
}"""


# --- helpers ---------------------------------------------------------

def lowered(fn):
    return fn.lower_source(fn.resolve_param_ctypes())


def summed_counters(skeleton):
    """Sum the execution counters over the skeleton's kernel launches."""
    totals = {}
    for event in skeleton.last_events:
        if event.command_type != "ndrange_kernel":
            continue
        for key, value in event.info.items():
            if key != "run":  # which lockstep run: an id, not a count
                totals[key] = totals.get(key, 0) + value
    return totals


@pytest.fixture
def strict_runtime():
    runtime = skelcl.init(num_devices=1, spec=ocl.TEST_DEVICE,
                          detect_races="strict")
    yield runtime
    skelcl.terminate()


def assert_clean(runtime):
    runtime.finish_all()
    assert runtime.context.check_races() == []


# --- 1. byte equality ------------------------------------------------

class TestSourceBytes:
    @pytest.mark.parametrize("fn,twin", [
        (square, SQUARE_TWIN),
        (saxpy, SAXPY_TWIN),
        (add, ADD_TWIN),
        (blur, BLUR_TWIN),
    ], ids=lambda v: v if isinstance(v, str) else v.__name__)
    def test_stripped_source_equals_twin(self, fn, twin):
        assert strip_markers(lowered(fn)).strip() == twin.strip()

    def test_markers_present_before_stripping(self):
        source = lowered(blur)
        assert "/*@py:" in source
        assert "/*@intent:blur.v=r*/" in source


# --- 2. identical execution ------------------------------------------

class TestExecutionParity:
    def _parity(self, run_jit, run_twin, runtime):
        jit_result, jit_skel = run_jit()
        jit_counters = summed_counters(jit_skel)
        twin_result, twin_skel = run_twin()
        twin_counters = summed_counters(twin_skel)
        np.testing.assert_array_equal(np.asarray(jit_result),
                                      np.asarray(twin_result))
        assert np.asarray(jit_result).dtype == np.asarray(twin_result).dtype
        assert jit_counters == twin_counters and jit_counters
        assert_clean(runtime)

    def test_map_square(self, strict_runtime, rng):
        data = rng.rand(513).astype(np.float32)

        def run(skel):
            out = skel(Vector(data=data)).to_numpy()
            return out, skel

        self._parity(lambda: run(Map(square)),
                     lambda: run(Map(SQUARE_TWIN)), strict_runtime)

    def test_zip_saxpy_with_extra_argument(self, strict_runtime, rng):
        x = rng.rand(257).astype(np.float32)
        y = rng.rand(257).astype(np.float32)

        def run(skel):
            out = skel(Vector(data=x), Vector(data=y), np.float32(2.5))
            return out.to_numpy(), skel

        self._parity(lambda: run(Zip(saxpy)),
                     lambda: run(Zip(SAXPY_TWIN)), strict_runtime)

    def test_reduce_add(self, strict_runtime, rng):
        data = rng.randint(-40, 40, 301).astype(np.float32)

        def run(skel):
            out = skel(Vector(data=data)).to_numpy()
            return out, skel

        self._parity(lambda: run(Reduce(add, "0.0")),
                     lambda: run(Reduce(ADD_TWIN, "0.0")), strict_runtime)

    def test_mapoverlap_blur(self, strict_runtime, rng):
        data = rng.rand(129).astype(np.float32)

        def run(skel):
            out = skel(Vector(data=data)).to_numpy()
            return out, skel

        self._parity(
            lambda: run(MapOverlap(blur, 1, BoundaryMode.NEUTRAL, 0.0)),
            lambda: run(MapOverlap(BLUR_TWIN, 1, BoundaryMode.NEUTRAL, 0.0)),
            strict_runtime)
