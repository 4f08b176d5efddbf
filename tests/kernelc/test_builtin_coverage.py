"""Systematic builtin-function coverage: every supported math/common/
integer builtin executed on the per-item oracle, the interpreter and the
lockstep engine against a Python oracle."""

import math

import numpy as np
import pytest

from .helpers import run_kernel

BACKENDS = ["compiler", "interp", "vector"]


@pytest.fixture(params=BACKENDS)
def backend(request):
    return request.param


def eval_float(expr: str, backend: str, x: float = 0.0, y: float = 0.0) -> float:
    src = f"""__kernel void k(__global float* o, float x, float y) {{
        o[0] = {expr};
    }}"""
    out, _ = run_kernel(src, "k", {"o": np.zeros(1, np.float32)}, ["o", x, y], 1,
                        backend=backend)
    return float(out["o"][0])


def eval_int(expr: str, backend: str, x: int = 0, y: int = 0) -> int:
    src = f"""__kernel void k(__global long* o, int x, int y) {{
        o[0] = (long)({expr});
    }}"""
    out, _ = run_kernel(src, "k", {"o": np.zeros(1, np.int64)}, ["o", x, y], 1,
                        backend=backend)
    return int(out["o"][0])


FLOAT_UNARY_CASES = [
    ("sqrt(x)", 6.25, math.sqrt(6.25)),
    ("rsqrt(x)", 4.0, 0.5),
    ("cbrt(x)", 27.0, 3.0),
    ("sin(x)", 0.5, math.sin(0.5)),
    ("cos(x)", 0.5, math.cos(0.5)),
    ("tan(x)", 0.4, math.tan(0.4)),
    ("asin(x)", 0.3, math.asin(0.3)),
    ("acos(x)", 0.3, math.acos(0.3)),
    ("atan(x)", 1.5, math.atan(1.5)),
    ("sinh(x)", 0.7, math.sinh(0.7)),
    ("cosh(x)", 0.7, math.cosh(0.7)),
    ("tanh(x)", 0.7, math.tanh(0.7)),
    ("exp(x)", 1.2, math.exp(1.2)),
    ("exp2(x)", 3.0, 8.0),
    ("exp10(x)", 2.0, 100.0),
    ("log(x)", 5.0, math.log(5.0)),
    ("log2(x)", 8.0, 3.0),
    ("log10(x)", 1000.0, 3.0),
    ("fabs(x)", -2.5, 2.5),
    ("floor(x)", 2.7, 2.0),
    ("floor(x)", -2.7, -3.0),
    ("ceil(x)", 2.2, 3.0),
    ("trunc(x)", -2.7, -2.0),
    ("round(x)", 2.5, 3.0),
    ("round(x)", -2.5, -3.0),
    ("rint(x)", 2.5, 2.0),  # round half to even
    ("rint(x)", 3.5, 4.0),
    ("degrees(x)", math.pi, 180.0),
    ("radians(x)", 180.0, math.pi),
    ("erf(x)", 0.5, math.erf(0.5)),
    ("tgamma(x)", 5.0, 24.0),
    ("fract(x)", 2.25, 0.25),
    ("sign(x)", -3.0, -1.0),
    ("sign(x)", 0.0, 0.0),
]


class TestFloatUnary:
    @pytest.mark.parametrize("expr,x,expected", FLOAT_UNARY_CASES)
    def test_builtin(self, backend, expr, x, expected):
        assert eval_float(expr, backend, x=x) == pytest.approx(expected, rel=1e-5, abs=1e-6)

    def test_native_and_half_prefixes(self, backend):
        for prefix in ("native_", "half_"):
            assert eval_float(f"{prefix}sqrt(x)", backend, x=9.0) == pytest.approx(3.0)


FLOAT_BINARY_CASES = [
    ("pow(x, y)", 2.0, 10.0, 1024.0),
    ("fmod(x, y)", 7.5, 2.0, 1.5),
    ("fmod(x, y)", -7.5, 2.0, -1.5),
    ("fmin(x, y)", 3.0, -1.0, -1.0),
    ("fmax(x, y)", 3.0, -1.0, 3.0),
    ("atan2(x, y)", 1.0, 1.0, math.pi / 4),
    ("hypot(x, y)", 3.0, 4.0, 5.0),
    ("copysign(x, y)", 3.0, -0.5, -3.0),
    ("fdim(x, y)", 5.0, 3.0, 2.0),
    ("fdim(x, y)", 3.0, 5.0, 0.0),
    ("step(x, y)", 2.0, 1.0, 0.0),
    ("step(x, y)", 2.0, 3.0, 1.0),
    ("ldexp(x, (int)y)", 1.5, 3.0, 12.0),
    ("pown(x, (int)y)", 2.0, 5.0, 32.0),
    ("maxmag(x, y)", -5.0, 3.0, -5.0),
    ("minmag(x, y)", -5.0, 3.0, 3.0),
]


class TestFloatBinary:
    @pytest.mark.parametrize("expr,x,y,expected", FLOAT_BINARY_CASES)
    def test_builtin(self, backend, expr, x, y, expected):
        assert eval_float(expr, backend, x=x, y=y) == pytest.approx(expected, rel=1e-5, abs=1e-6)

    def test_fmin_fmax_nan_handling(self, backend):
        # fmin/fmax return the non-NaN operand.
        assert eval_float("fmin(x / y, 2.0f)", backend, x=0.0, y=0.0) == 2.0
        assert eval_float("fmax(x / y, 2.0f)", backend, x=0.0, y=0.0) == 2.0


class TestFloatTernary:
    def test_fma_and_mad(self, backend):
        assert eval_float("fma(x, y, 1.0f)", backend, x=3.0, y=4.0) == 13.0
        assert eval_float("mad(x, y, 1.0f)", backend, x=3.0, y=4.0) == 13.0

    def test_mix(self, backend):
        assert eval_float("mix(x, y, 0.25f)", backend, x=0.0, y=8.0) == 2.0

    def test_smoothstep(self, backend):
        assert eval_float("smoothstep(x, y, 0.5f)", backend, x=0.0, y=1.0) == 0.5
        assert eval_float("smoothstep(x, y, -1.0f)", backend, x=0.0, y=1.0) == 0.0
        assert eval_float("smoothstep(x, y, 2.0f)", backend, x=0.0, y=1.0) == 1.0

    def test_clamp_float(self, backend):
        assert eval_float("clamp(x, 0.0f, 1.0f)", backend, x=1.7) == 1.0
        assert eval_float("clamp(x, 0.0f, 1.0f)", backend, x=-0.5) == 0.0


INT_CASES = [
    ("abs(x)", -7, 0, 7),
    ("abs_diff(x, y)", 3, 10, 7),
    ("min(x, y)", 3, -4, -4),
    ("max(x, y)", 3, -4, 3),
    ("clamp(x, 0, 10)", 42, 0, 10),
    ("mul24(x, y)", 1000, 1000, 1000000),
    ("mad24(x, y, 7)", 10, 10, 107),
    ("hadd(x, y)", 7, 4, 5),
    ("rhadd(x, y)", 7, 4, 6),
    ("popcount(x)", 0b1011011, 0, 5),
    ("clz(x)", 1, 0, 31),
    ("clz(x)", 0x40000000, 0, 1),
    ("rotate(x, y)", 1, 1, 2),
    ("rotate(x, y)", 0x80000000 - 0x100000000, 1, 1),  # high bit rotates around
    ("add_sat(x, y)", 2147483647, 10, 2147483647),
    ("sub_sat(x, y)", -2147483648, 10, -2147483648),
    ("mul_hi(x, y)", 1 << 16, 1 << 16, 1),
]


class TestIntegerBuiltins:
    @pytest.mark.parametrize("expr,x,y,expected", INT_CASES)
    def test_builtin(self, backend, expr, x, y, expected):
        assert eval_int(expr, backend, x=x, y=y) == expected


class TestClassification:
    def test_isnan_isinf_isfinite(self, backend):
        assert eval_int("isnan(0.0f / y)", backend, y=0) == 1
        assert eval_int("isinf(1.0f / y)", backend, y=0) == 1
        assert eval_int("isfinite(3.0f)", backend) == 1
        assert eval_int("isfinite(1.0f / y)", backend, y=0) == 0
