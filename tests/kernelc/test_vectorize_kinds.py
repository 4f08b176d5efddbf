"""Operand kinds of the lockstep generator, held against the per-item oracle.

The generator spells an operation in NumPy or Python directly where it
knows the kind of every operand — a uniform Python scalar or lanes, and
the dtype — and calls a helper only where a launch decides.  This family
draws kernels whose expressions mix uniform operands (scalar parameters,
literals, a uniform loop counter, a function called only with them) with
lane operands (work-item ids, loads, a value merged under a branch), over
every scalar type, with operand values at the edges: 64-bit unsigned
patterns at and above 2**63, negative signed values, values that wrap at
8, 16 and 32 bits, NaN, -0.0 and the infinities.  Every expression is
evaluated on the full chain, on a narrowed one (after some lanes
returned), inside a branch that runs compacted or on every lane (the lane
floor lowered to zero, the density set by the data), in a uniform loop,
and as arguments of user functions called with both kinds.  Each launch
must agree with the oracle bit for bit, on every counter, and on the
exception type and message when it faults.

The generator stays inside defined behaviour, as the other families do:
a result of a signed 64-bit ``+``, ``-``, ``*``, ``/``, ``<<`` or ``-x``
is only converted to an integer type (where a wrapped and an exact
overflow agree), and a float is converted to an integer only through
``fin``, which makes it finite.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.kernelc import vectorize

from tests.kernelc.test_vectorize_compaction import _kernel, _no_floor, assert_engines_agree

#: The per-item oracle rounds a double beyond float's range to float at a
#: store, as C does (to infinity), and NumPy warns.
pytestmark = pytest.mark.filterwarnings("ignore:overflow encountered in cast:RuntimeWarning")

_N, _WG = 32, 8
_TYPES = {
    "char": (np.int8, [-128, 127, -1, 0, 1, 100]),
    "uchar": (np.uint8, [0, 1, 128, 200, 255]),
    "short": (np.int16, [-32768, 32767, -1, 0, 300]),
    "ushort": (np.uint16, [0, 1, 32768, 65535]),
    "int": (np.int32, [-2**31, 2**31 - 1, -1, 0, 1, 65536]),
    "uint": (np.uint32, [0, 1, 7, 2**31, 2**32 - 1]),
    "long": (np.int64, [-2**63, 2**63 - 1, -1, 0, 1, 2**40]),
    "ulong": (np.uint64, [0, 1, 2**63, 2**63 + 5, 2**64 - 1]),
    "size_t": (np.uint64, [0, 1, 31, 2**63, 2**64 - 1]),
    "float": (np.float32, [math.nan, -0.0, math.inf, -math.inf, 1.5, -2.25, 3e38, 1e-40]),
    "double": (np.float64, [math.nan, -0.0, math.inf, -math.inf, 1.5, -2.25, 1e300, 5e-324]),
}
_FLOATS = ("float", "double")
_RANK = {"char": 32, "uchar": 32, "short": 32, "ushort": 32, "int": 32, "uint": 32,
         "long": 64, "ulong": 64, "size_t": 64}
_UNSIGNED = ("uint", "ulong", "size_t")
_INT_OPS = ["+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>",
            "<", ">", "<=", ">=", "==", "!=", "&&", "||"]
_FLOAT_OPS = ["+", "-", "*", "/", "<", ">", "<=", ">=", "==", "!=", "&&", "||"]
_OVERFLOWING = ("+", "-", "*", "/", "<<")
_TRUTH = ("<", ">", "<=", ">=", "==", "!=", "&&", "||")  # their result is an int


def _common(a: str, b: str) -> str:
    """C's usual arithmetic conversions (what the operation computes in)."""
    if "double" in (a, b) or "float" in (a, b):
        return "double" if "double" in (a, b) else "float"
    a, b = (t if t in _UNSIGNED or _RANK[t] == 64 else "int" for t in (a, b))
    if _RANK[a] != _RANK[b]:
        return a if _RANK[a] > _RANK[b] else b
    return a if a in _UNSIGNED else b


def _literal(value, ctype: str) -> str:
    if ctype in _FLOATS:
        return repr(float(value)) + ("f" if ctype == "float" else "")
    suffix = "UL" if value >= 2**63 else "L" if abs(value) >= 2**31 else ""
    return f"(({ctype}){value}{suffix})"


def _convert(code: str, source: str, target: str) -> str:
    """``code`` (of type ``source``) cast to ``target``: a float made
    finite first when the target is an integer type."""
    if source in _FLOATS and target not in _FLOATS:
        return f"(({target})fin({code}))"
    return f"(({target})({code}))"


@st.composite
def _expr(draw, leaves, depth, t0):
    """``(code, type)``: a C expression over ``leaves`` (``{code: type}``);
    ``h`` takes and returns ``t0``."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        return draw(st.sampled_from(sorted(leaves.items())))
    left, ltype = draw(_expr(leaves, depth - 1, t0))
    right, rtype = draw(_expr(leaves, depth - 1, t0))
    shape = draw(st.sampled_from(["binary", "binary", "unary", "select", "call"]))
    risky = False
    if shape == "unary":
        op = draw(st.sampled_from(["-", "!"] if ltype in _FLOATS else ["-", "~", "!"]))
        code, ctype = f"({op}({left}))", "int" if op == "!" else _common(ltype, ltype)
        risky = op == "-" and ctype == "long"
    elif shape == "select":
        code, ctype = f"(({left}) ? ({right}) : ({ltype})({left}))", _common(rtype, ltype)
    elif shape == "call":
        code = f"h({_convert(left, ltype, t0)}, {_convert(right, rtype, t0)})"
        ctype = t0
    else:
        ctype = _common(ltype, rtype)
        op = draw(st.sampled_from(_FLOAT_OPS if ctype in _FLOATS else _INT_OPS))
        if op == "%":
            right = f"({right} | 1)"  # a remainder never faults: only "/" does
        code, risky = f"({left} {op} {right})", ctype == "long" and op in _OVERFLOWING
        ctype = "int" if op in _TRUTH else ctype
    target = draw(st.sampled_from(sorted(_TYPES)))
    if risky and target in _FLOATS:
        target = "long"
    return _convert(code, ctype, target), target


@st.composite
def _kernels(draw):
    t0, t1, out = (draw(st.sampled_from(sorted(_TYPES))) for _ in range(3))
    literal = draw(st.sampled_from([v for v in _TYPES[t0][1]
                                    if t0 not in _FLOATS or math.isfinite(v)]))
    uniform = {"p": t0, "q": t1, _literal(literal, t0): t0, "u(p)": t0}
    lanes = {"x": t0, "y": t1, "acc": t0, "gid": "size_t", "g(x)": t0}
    leaves = {**uniform, **lanes}
    exprs = [draw(_expr({**leaves, "r": "int"} if slot == 1 else leaves, 3, t0))
             for slot in range(5)]
    stores = [f"out[gid * 6 + {slot}] = {_convert(code, ctype, out)};"
              for slot, (code, ctype) in enumerate(exprs)]
    buffer = {"size_t": "ulong"}
    source = f"""
    double fin(double v) {{ return v - v == 0.0 ? v : 0.0; }}
    {t0} h({t0} a, {t0} b) {{ return a == b ? a : b; }}
    {t0} g({t0} a) {{ return ({t0})(a + a); }}
    {t0} u({t0} a) {{ return a; }}
    __kernel void k(__global const {buffer.get(t0, t0)}* in0,
                    __global const {buffer.get(t1, t1)}* in1,
                    __global {buffer.get(out, out)}* out, __global const int* sel,
                    {t0} p, {t1} q) {{
        size_t gid = get_global_id(0);
        int s = sel[gid];
        {t0} x = in0[gid];
        {t1} y = in1[gid];
        {t0} acc = p;
        if (s & 1) acc = x;
        {stores[0]}
        for (int r = 0; r < 2; ++r) {{
            if (r == 1) {{ {stores[1]} }}
        }}
        if (s & 2) {{
            {stores[2]}
            out[gid * 6 + 5] = {_convert(f"h(x, {_convert('q', t1, t0)})", t0, out)};
        }}
        if (s & 4) return;
        {stores[3]}
        if (s & 8) {{ {stores[4]} }}
    }}"""
    arrays = {name: np.array(draw(st.lists(st.sampled_from(_TYPES[t][1]), min_size=_N,
                                           max_size=_N)), dtype=_TYPES[t][0])
              for name, t in (("in0", t0), ("in1", t1))}
    arrays["out"] = np.zeros(_N * 6, _TYPES[out][0])
    sel = np.array(draw(st.lists(st.integers(0, 15), min_size=_N, max_size=_N)), np.int32)
    if draw(st.booleans()):  # a quarter of the lanes at most takes "s & 2": it runs compacted
        sel[np.arange(_N) % 4 != 0] &= ~2
    arrays["sel"] = sel
    scalars = [draw(st.sampled_from(_TYPES[t][1])) for t in (t0, t1)]
    return source, arrays, ["in0", "in1", "out", "sel", *scalars]


class TestKinds:
    @settings(deadline=None)  # example budget: the hypothesis profile
    @given(case=_kernels())
    def test_lockstep_agrees_with_the_per_item_oracle(self, case):
        source, arrays, args = case
        kernel = _kernel(source)
        with _no_floor():
            assert_engines_agree(kernel, arrays, args, (_N,), (_WG,))

    def test_a_kernel_of_known_kinds_calls_no_operator_helper(self):
        source = """
        float f(float a, float b) { return a * b + 1.0f; }
        __kernel void k(__global const float* in, __global float* out, ulong n, float s) {
            size_t gid = get_global_id(0);
            float acc = 0.0f;
            if (gid < n) acc = f(in[gid], s);
            out[gid] = acc > s ? acc : -acc;
        }"""
        plan = vectorize.plan_for(_kernel(source)).source
        for helper in ("_f_", "_u_", "_i_", "_um64(", "_truthy(", "_merge(", "_b2i("):
            assert helper not in plan, (helper, plan)
        arrays = {"in": np.array([1.5, -0.0, math.nan, math.inf] * 8, np.float32),
                  "out": np.zeros(32, np.float32)}
        for n in (0, 7, 2**63, 2**64 - 1):
            assert_engines_agree(_kernel(source), arrays, ["in", "out", n, 2.0], (32,), (8,))

    def test_a_u64_lane_operand_of_a_float_operation_is_taken_at_its_value(self):
        source = """
        __kernel void k(__global const ulong* a, __global float* out, float f) {
            size_t gid = get_global_id(0);
            out[gid] = a[gid] + f;
            if (a[gid] < f) out[gid] = -1.0f;
        }"""
        arrays = {"a": np.array([2**63 + 5, 3, 2**64 - 1, 7] * 2, np.uint64),
                  "out": np.zeros(8, np.float32)}
        assert_engines_agree(_kernel(source), arrays, ["a", "out", 0.5], (8,), (4,))

    def test_a_long_dividend_of_minus_2_to_the_63_divides_at_its_magnitude(self):
        source = """
        __kernel void k(__global const long* a, __global long* out) {
            size_t gid = get_global_id(0);
            out[gid] = a[gid] % (a[gid] | 1);
            out[gid + 4] = a[gid] / 3;
        }"""
        arrays = {"a": np.array([-2**63, -7, 2**63 - 1, 5], np.int64),
                  "out": np.zeros(8, np.int64)}
        assert_engines_agree(_kernel(source), arrays, ["a", "out"], (4,), (4,))

    @pytest.mark.parametrize("store", ["o[i] = 1; return; o[i] = f(i);",  # after a return
                                       "o[i] = sizeof(f(i));"])  # never evaluated
    def test_a_function_only_unrun_code_calls_is_not_generated(self, store):
        source = f"""
        int f(int x) {{ return x + 1; }}
        __kernel void k(__global int* o) {{ int i = get_global_id(0); {store} }}"""
        kernel = _kernel(source)
        assert "def _fn_f(" not in vectorize.plan_for(kernel).source
        assert_engines_agree(kernel, {"o": np.zeros(8, np.int32)}, ["o"], (8,), (4,))

    def test_a_64_bit_integer_is_compared_with_a_float_as_a_double(self):
        # 2**64 - 1 is no double: C compares the double it rounds to, 2**64
        source = """
        __kernel void k(__global const double* a, __global char* out, ulong s, long t) {
            size_t gid = get_global_id(0);
            out[gid] = (s < a[gid]) + 2 * (s < 18446744073709551616.0)
                       + 4 * (t >= (double)(s + gid * 0)) + 8 * (t == 9223372036854775808.0);
        }"""
        arrays = {"a": np.array([2.0**64, 1.0, math.inf, -0.0], np.float64),
                  "out": np.zeros(4, np.int8)}
        for s, t in ((2**64 - 1, 2**63 - 1), (3, -2**63), (2**63 + 1, 2**53 + 1)):
            assert_engines_agree(_kernel(source), arrays, ["a", "out", s, t], (4,), (4,))
