"""Vector types on the lockstep engine.

``floatN`` and the other OpenCL vector types run on lanes: a uniform
vector is a ``VecValue``, lanes of one a ``(width, lanes)`` array.  Every
test holds the lockstep engine against the per-item one: bit-exact
buffers, equal ``ExecutionCounters`` on every field, and on a fault the
same exception type and message (the first faulting lane's).

Hypothesis draws the element type (int, uint, uchar, float, double), the
width (2, 3, 4, 8, 16) and a kernel body from the menus below:
arithmetic, comparison and unary operators, vector with scalar and vector
with vector; swizzle reads and writes (``.xy``, ``.lo``/``.hi``,
``.sN``); literals splicing vector parts; conversions and casts;
``dot``/``length``; ``vload``/``vstore``; a helper taking and returning
a vector and a vector ``__constant``; gathers and scatters through a
vector pointer; and vector assignments under a lane-varying ``if`` and
in a loop body.  The data sets how many lanes take those: a sparse draw
runs them compacted (the lane floor lowered to 0), a dense one full.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.kernelc import vectorize

from tests.kernelc.test_vectorize_compaction import (_kernel, _launch, _no_floor,
                                                     assert_engines_agree)

_TYPES = {"int": np.int32, "uint": np.uint32, "uchar": np.uint8,
          "float": np.float32, "double": np.float64}
_WIDTHS = (2, 3, 4, 8, 16)
_N = 64
_WG = 16


def _is_float(t):
    return t in ("float", "double")


def _vector_exprs(t, w):
    """Expressions of type ``V`` over ``a``, ``b`` (vectors), ``x``
    (a lane scalar) and ``u`` (a uniform scalar)."""
    exprs = ["a + b", "a - b * x", "x * a", "-a", "+b", "(V)x - a", "a * u",
             "a * (V)(b.s1)", "convert_V(a < b)", "convert_V(a != b) + a",
             "select(a, b, a > b)", f"convert_V(convert_float{w}(a) * 0.5f)", "twice(a) - cv",
             "convert_V(a * b < r)", "(a * b - r) * x"]
    if _is_float(t):
        exprs += ["a / (b * b + (V)1)", "fmax(a, b)", "sqrt(fabs(a))", "mix(a, b, (V)0.25)",
                  f"convert_V(convert_int{w}(a))", "r * (V)(dot(a, b))"]
    else:
        exprs += ["a & b", "a | (V)x", "a ^ b", "~a", "a << (V)3", "b >> (V)1",
                  "a / ((b & (V)3) + (V)1)", "a % ((b & (V)7) + (V)1)", "min(a, b)",
                  "max(a, (V)x)", "(a * b) >> (V)5", "(a * b) / (V)7"]
    if w % 2 == 0:
        exprs += ["(V)(a.hi, b.lo)", "(V)(a.even, b.odd)"]
    if w == 3:
        exprs += ["(V)(a.zy, b.x)", "b.zxy"]
    if w == 4:
        exprs += ["a.wzyx", "(V)(a.xy, b.zw)"]
    if w >= 8:
        exprs += ["(V)(a.lo.lo, b.lo.hi, a.hi)"]
    return exprs


def _statements(t, w):
    """Statements over ``r`` with ``{e}`` an expression of type ``V``."""
    stmts = ["r = {e};", "r += {e};", "r.s1 = x;", "r.s0 += r.s1;", "vout[gid] = {e};",
             "vout[gid].s1 = r.s0;", "r = vin[(gid * 5 + 1) % n] + {e};",
             "if (s0) {{ r = {e} + vin[(gid + 1) % n]; }}",
             "if (s0) {{ r.s0 = r.s1 + x; vout[gid] = r; }} else {{ r = r - vin[(gid * 3) % n]; }}",
             "for (int i = 0; i < cnt; ++i) {{ r = r + vin[(gid + i) % n]; }}",
             "for (int i = 0; i < cnt; ++i) {{ r.s1 = r.s0 - ({e}).s1; vout[gid] = r; }}",
             f"{{{{ {t}4 q = vload4(gid + 1, in); r.s0 = q.x + q.w; }}}}",
             f"vstore2(({t}2)(r.s0, r.s1), gid, pairs);"]
    if _is_float(t):
        stmts += ["r.s0 = length(a);"]
    if w % 2 == 0:
        stmts += ["r.lo = b.hi;", "r.hi = r.lo;"]
    if w == 3:
        stmts += ["r.xz = b.zx;"]
    if w <= 4:
        stmts += ["r.xy = r.yx;"]
    else:
        stmts += ["r.s7 = a.s0 * x;"]
    return stmts


_SOURCE = """
#define V {t}{w}
#define T {t}
__constant V cv = (V)(3);
V twice(V v) {{ return v + v; }}
__kernel void k(__global T* out, __global const T* in, __global const T* xs,
                __global const V* vin, __global V* vout, __global T* pairs,
                __global const int* sel, T u, int n) {{
    int gid = get_global_id(0);
    int s0 = sel[gid] & 1;
    int cnt = (sel[gid] >> 1) & 3;
    T x = xs[gid];
    V a = vload{w}(gid, in);
    V b = vin[(gid + 7) % n];
    V r = a;
    {body}
    vstore{w}(r, gid, out);
}}
"""


def _values(t, size, rng):
    if _is_float(t):  # not dyadic: float arithmetic rounds
        return (rng.randint(-1000, 1000, size) / 7).astype(_TYPES[t])
    info = np.iinfo(_TYPES[t])
    return rng.randint(max(info.min, -(1 << 20)), min(info.max, 1 << 20) + 1,
                       size, dtype=np.int64).astype(_TYPES[t])


def _arrays(t, w, sparse, seed):
    rng = np.random.RandomState(seed)
    active = rng.rand(_N) < (0.125 if sparse else 0.875)
    sel = (rng.randint(0, 4, _N) << 1 | active).astype(np.int32)
    return {"out": np.zeros(_N * w, _TYPES[t]), "in": _values(t, _N * 16 + 64, rng),
            "xs": _values(t, _N, rng), "vin": _values(t, _N * w, rng),
            "vout": np.zeros(_N * w, _TYPES[t]), "pairs": np.zeros(2 * _N, _TYPES[t]),
            "sel": sel}


_ARGS = ["out", "in", "xs", "vin", "vout", "pairs", "sel"]


@st.composite
def _programs(draw):
    t = draw(st.sampled_from(sorted(_TYPES)))
    w = draw(st.sampled_from(_WIDTHS))
    exprs, stmts = _vector_exprs(t, w), _statements(t, w)
    body = [draw(st.sampled_from(stmts)).format(e=draw(st.sampled_from(exprs)))
            for _ in range(draw(st.integers(1, 4)))]
    return t, w, "\n    ".join(body).replace("convert_V", f"convert_{t}{w}")


@settings(deadline=None)  # example budget: the hypothesis profile
@given(program=_programs(), sparse=st.booleans(), seed=st.integers(0, 2**16))
def test_vector_kernels_agree(program, sparse, seed):
    t, w, body = program
    kernel = _kernel(_SOURCE.format(t=t, w=w, body=body))
    arrays = _arrays(t, w, sparse, seed)
    scalars = _ARGS + [_TYPES[t](5), _N]
    assert_engines_agree(kernel, arrays, scalars, (_N,), (_WG,))
    with _no_floor():
        assert_engines_agree(kernel, arrays, scalars, (_N,), (_WG,))


@pytest.mark.parametrize("t", sorted(_TYPES))
@pytest.mark.parametrize("w", _WIDTHS)
def test_every_statement_and_expression_agrees(t, w):
    """Each menu entry at least once per type and width, sparse."""
    exprs, stmts = _vector_exprs(t, w), _statements(t, w)
    body = [stmt.format(e=exprs[i % len(exprs)]) for i, stmt in enumerate(stmts)]
    body += [f"r = r - ({expr});" for expr in exprs]
    kernel = _kernel(_SOURCE.format(t=t, w=w, body="\n    ".join(body).replace(
        "convert_V", f"convert_{t}{w}")))
    with _no_floor():
        regions = assert_engines_agree(kernel, _arrays(t, w, True, w), _ARGS + [_TYPES[t](3), _N],
                                       (_N,), (_WG,))
    assert regions["compacted"] > 0


@pytest.mark.parametrize("sparse, path", [(True, "compacted"), (False, "full")])
def test_vector_assignment_in_regions(sparse, path):
    """A vector assigned under a lane-varying ``if`` and in a loop body
    compacts when sparse and runs full when dense (the loop's last
    iterations may still compact); both agree."""
    body = ("if (s0) { r = r * x + vin[(gid + 3) % n]; r.s1 = b.s0; }\n"
            "for (int i = 0; i < cnt * s0; ++i) { r.lo = r.hi + vin[(gid + i) % n].lo; }")
    kernel = _kernel(_SOURCE.format(t="float", w=4, body=body))
    assert "_region(" in vectorize.plan_for(kernel).source
    with _no_floor():
        regions = assert_engines_agree(kernel, _arrays("float", 4, sparse, 1),
                                       _ARGS + [np.float32(2), _N], (_N,), (_WG,))
    assert regions[path] > 0


class TestFaultParity:
    """Out-of-bounds vector accesses fault as on the per-item engine: at
    the first faulting lane, and in it at the first faulting component."""

    def _assert_fault(self, source, arrays, scalars, message):
        kernel = _kernel(source)
        with _no_floor():
            per_item = _launch(kernel, arrays, scalars, (_N,), (_WG,), "peritem")
            lockstep = _launch(kernel, arrays, scalars, (_N,), (_WG,), "lockstep")
        assert (type(lockstep), str(lockstep)) == (type(per_item), message)

    def test_out_of_bounds_vload4(self):
        source = """__kernel void k(__global float* out, __global const float* in,
                                    __global const int* idx) {
            int gid = get_global_id(0);
            float4 q = vload4(idx[gid], in);
            vstore4(q, gid, out);
        }"""
        length = 4 * _N - 2
        idx = np.arange(_N, dtype=np.int32) % (_N - 1)
        idx[5] = _N - 1        # the first faulting lane: in bounds up to component 1
        idx[9] = 1000          # a later lane, out of bounds from component 0
        arrays = {"out": np.zeros(4 * _N, np.float32),
                  "in": np.arange(length, dtype=np.float32), "idx": idx}
        self._assert_fault(source, arrays, ["out", "in", "idx"],
                           f"out-of-bounds global access: element {length} of {length}")

    def test_out_of_bounds_float4_store(self):
        source = """__kernel void k(__global float4* out, __global const int* idx) {
            int gid = get_global_id(0);
            if (gid % 4 == 1) { out[idx[gid]] = (float4)(gid, 1.0f, 2.0f, 3.0f); }
        }"""
        idx = np.arange(_N, dtype=np.int32)
        idx[2] = 700           # an inactive lane, which must not fault
        idx[13], idx[37] = 500, 900
        arrays = {"out": np.zeros(4 * _N, np.float32), "idx": idx}
        self._assert_fault(source, arrays, ["out", "idx"],
                           f"out-of-bounds global access: element 500 of {_N}")
