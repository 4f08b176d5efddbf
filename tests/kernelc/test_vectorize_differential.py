"""Differential proof obligation for the lockstep engine.

Every test here runs the same compiled kernel twice — on the per-item
oracle (:mod:`.peritem`) and through ``ocl.executor.execute_ndrange`` on
the lockstep engine — and asserts **bit-exact** output buffers plus
**equal** ``ExecutionCounters`` on every field (ops, warp_ops, barriers,
and all memory-traffic counters).  Hypothesis generates kernels over
multiple dtypes, control flow shapes, local memory and barrier phasing;
a fixed seed corpus replays every kernel string shipped in
``examples/`` and ``src/repro/baselines/``.

The generators deliberately stay inside defined behaviour (no signed
overflow feeding magnitude-sensitive ops, no data races, no barriers
under lane-divergent control flow): outside it, C imposes no agreement
obligation and the engines intentionally document their divergences
(see ``docs/kernelc.md``).  Faults are part of the contract too: when
one engine raises, the other must raise as well.
"""

import glob
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.kernelc import ExecutionCounters, compile_source
from repro.kernelc.__main__ import _extract_kernel_strings
from repro.kernelc.compiler import compile_program
from repro.kernelc.ctypes_ import ctype_from_numpy
from repro.kernelc.diagnostics import CompileError
from repro.kernelc.execmodel import convert_value
from repro.kernelc.memory import KernelFault, Pointer
from repro.ocl.executor import execute_ndrange
from repro.ocl.ndrange import NDRange

from . import peritem

_REPO_ROOT = os.path.join(os.path.dirname(__file__), "..", "..")

# Exceptions that count as a kernel fault for agreement purposes: the
# two engines may detect a multi-fault run at different lanes, so only
# the *fact* of faulting must agree, not the message.
_FAULTS = (KernelFault, ValueError, OverflowError)

_ENGINES = {"peritem": peritem.execute_ndrange, "lockstep": execute_ndrange}


def _run_one(compiled, arrays, scalars, global_size, local_size, engine):
    counters = ExecutionCounters()
    pointers = {}
    for name, array in arrays.items():
        flat = np.ascontiguousarray(array).reshape(-1).copy()
        pointers[name] = Pointer(flat, ctype_from_numpy(flat.dtype), "global", 0,
                                 counters.memory)
    args = [pointers[a] if isinstance(a, str) else a for a in scalars]
    args = [
        convert_value(value, param.declared_type)
        for value, param in zip(args, compiled.definition.params)
    ]
    ndrange = NDRange.create(global_size, local_size)
    try:
        _ENGINES[engine](compiled, ndrange, args, counters=counters)
    except _FAULTS as exc:
        return ("fault", type(exc).__name__), None, None
    buffers = {name: pointer.array for name, pointer in pointers.items()}
    return "ok", buffers, counters


def assert_backends_agree(source, kernel_name, arrays, scalars, global_size,
                          local_size=None):
    """The core oracle: run both engines, demand bit-exact agreement."""
    program = compile_source(source)
    compiled = compile_program(program).kernel(kernel_name)
    i_status, i_bufs, i_cnt = _run_one(compiled, arrays, scalars, global_size,
                                       local_size, "peritem")
    v_status, v_bufs, v_cnt = _run_one(compiled, arrays, scalars, global_size,
                                       local_size, "lockstep")
    if i_status != "ok" or v_status != "ok":
        assert i_status != "ok" and v_status != "ok", (
            f"fault disagreement: peritem={i_status} lockstep={v_status}"
        )
        return None
    for name in arrays:
        assert i_bufs[name].tobytes() == v_bufs[name].tobytes(), (
            f"buffer {name!r} differs:\nperitem: {i_bufs[name]!r}\n"
            f"lockstep: {v_bufs[name]!r}"
        )
    assert i_cnt.ops == v_cnt.ops, f"ops: peritem={i_cnt.ops} lockstep={v_cnt.ops}"
    assert i_cnt.warp_ops == v_cnt.warp_ops, (
        f"warp_ops: peritem={i_cnt.warp_ops} lockstep={v_cnt.warp_ops}"
    )
    assert i_cnt.barriers == v_cnt.barriers
    assert i_cnt.memory == v_cnt.memory, (
        f"memory: peritem={i_cnt.memory} lockstep={v_cnt.memory}"
    )
    return i_bufs


# ---------------------------------------------------------------------------
# Generated kernels: integer dtypes and control flow.
# ---------------------------------------------------------------------------

_INT_TYPES = [
    ("char", np.int8), ("uchar", np.uint8), ("short", np.int16),
    ("ushort", np.uint16), ("int", np.int32), ("uint", np.uint32),
    ("long", np.int64), ("ulong", np.uint64),
]
_FLOAT_TYPES = [("float", np.float32), ("double", np.float64)]

_LAUNCHES = [((32,), (8,)), ((32,), (32,)), ((64,), (16,)),
             ((48,), (4,)), ((16, 4), (4, 2)), ((8, 8), (8, 4))]


def _int_exprs(depth):
    leaves = st.sampled_from(["x", "y", "s1", "(gid % 13)", "3", "7", "(-2)", "1", "0"])
    if depth == 0:
        return leaves
    sub = _int_exprs(depth - 1)
    return st.one_of(
        leaves,
        st.tuples(st.sampled_from(["+", "-", "*", "&", "|", "^"]), sub, sub).map(
            lambda t: f"({t[1]} {t[0]} {t[2]})"
        ),
        sub.map(lambda e: f"(~{e})"),
        sub.map(lambda e: f"(-{e})"),
        # Division/remainder with nonzero literal divisors only.
        st.tuples(sub, st.sampled_from(["3", "7", "5"])).map(
            lambda t: f"({t[0]} / {t[1]})"
        ),
        st.tuples(sub, st.sampled_from(["3", "9"])).map(lambda t: f"({t[0]} % {t[1]})"),
        # Shifts bounded so signed intermediates never exceed 64 bits.
        st.tuples(sub, st.integers(0, 3)).map(lambda t: f"(({t[0]} & 15) << {t[1]})"),
        st.tuples(sub, st.integers(0, 5)).map(lambda t: f"({t[0]} >> {t[1]})"),
        st.tuples(sub, sub).map(lambda t: f"(min({t[0]}, {t[1]}))"),
        st.tuples(sub, sub).map(lambda t: f"(max({t[0]}, {t[1]}))"),
    )


_CONDS = st.sampled_from([
    "x > y", "x < 3", "gid % 2 == 0", "x == y", "y != 0", "x >= s1",
    "(x & 1) == (y & 1)", "gid < 7", "x * y < 10",
])


@st.composite
def _int_kernels(draw):
    cname, dtype = draw(st.sampled_from(_INT_TYPES))
    (global_size, local_size) = draw(st.sampled_from(_LAUNCHES))
    n = int(np.prod(global_size))
    stmts = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["assign", "if", "for", "while", "ternary",
                                     "private", "do"]))
        if kind == "assign":
            stmts.append(f"acc = acc + ({draw(_int_exprs(2))});")
        elif kind == "if":
            cond = draw(_CONDS)
            then = draw(_int_exprs(2))
            if draw(st.booleans()):
                stmts.append(f"if ({cond}) {{ acc = acc ^ ({then}); }} "
                             f"else {{ acc = acc - ({draw(_int_exprs(1))}); }}")
            else:
                stmts.append(f"if ({cond}) {{ acc = acc + ({then}); }}")
        elif kind == "for":
            bound = draw(st.integers(1, 6))
            body = draw(_int_exprs(1))
            extra = draw(st.sampled_from([
                "", "if (i == 2) continue; ", "if (acc > 90) break; ",
            ]))
            stmts.append(f"for (int i = 0; i < {bound}; ++i) {{ {extra}"
                         f"acc = acc + ({body}) + i; }}")
        elif kind == "while":
            bound = draw(st.integers(1, 5))
            stmts.append(f"{{ int w = 0; while (w < {bound}) {{ "
                         f"acc = acc ^ (w + ({draw(_int_exprs(1))})); ++w; }} }}")
        elif kind == "do":
            bound = draw(st.integers(1, 4))
            stmts.append(f"{{ int w = 0; do {{ acc = acc + w; ++w; }} "
                         f"while (w < {bound}); }}")
        elif kind == "ternary":
            stmts.append(f"acc = ({draw(_CONDS)}) ? ({draw(_int_exprs(1))}) "
                         f": (acc + 1);")
        else:  # private array
            stmts.append(
                "{ int tmp[4]; tmp[gid % 4] = (int)x; "
                "acc = acc + tmp[(gid + 1) % 4] + tmp[gid % 4]; }"
            )
    body = "\n    ".join(stmts)
    source = f"""
    __kernel void k(__global {cname}* out, __global const {cname}* in,
                    {cname} s1, int n) {{
        int gid = get_global_id(0) + get_global_id(1) * get_global_size(0);
        {cname} x = in[gid];
        {cname} y = in[(gid * 7 + 3) % n];
        {cname} acc = x;
        {body}
        out[gid] = acc;
    }}
    """
    rng = np.random.RandomState(draw(st.integers(0, 2**31 - 1)))
    arrays = {
        "out": np.zeros(n, dtype),
        "in": rng.randint(-9, 10, size=n).astype(dtype),
    }
    s1 = int(rng.randint(-5, 6))
    return source, arrays, ["out", "in", s1, n], global_size, local_size


class TestGeneratedIntKernels:
    @given(case=_int_kernels())
    @settings(max_examples=150, deadline=None)
    def test_bitexact_with_equal_counters(self, case):
        source, arrays, scalars, global_size, local_size = case
        assert_backends_agree(source, "k", arrays, scalars, global_size, local_size)


# ---------------------------------------------------------------------------
# Generated kernels: float dtypes and builtins.
# ---------------------------------------------------------------------------


def _float_exprs(depth):
    leaves = st.sampled_from(["x", "y", "s1", "0.5f", "2.0f", "(-1.25f)",
                              "(float)gid", "0.0f"])
    if depth == 0:
        return leaves
    sub = _float_exprs(depth - 1)
    return st.one_of(
        leaves,
        st.tuples(st.sampled_from(["+", "-", "*", "/"]), sub, sub).map(
            lambda t: f"({t[1]} {t[0]} {t[2]})"
        ),
        sub.map(lambda e: f"sqrt(fabs({e}))"),
        sub.map(lambda e: f"(-{e})"),
        st.tuples(sub, sub).map(lambda t: f"fmin({t[0]}, {t[1]})"),
        st.tuples(sub, sub).map(lambda t: f"fmax({t[0]}, {t[1]})"),
        st.tuples(sub, sub, sub).map(lambda t: f"fma({t[0]}, {t[1]}, {t[2]})"),
        st.tuples(sub, sub).map(lambda t: f"copysign({t[0]}, {t[1]})"),
        sub.map(lambda e: f"floor({e})"),
        sub.map(lambda e: f"exp({e} * 0.125f)"),
        sub.map(lambda e: f"clamp({e}, -8.0f, 8.0f)"),
        st.tuples(sub, sub).map(lambda t: f"step({t[0]}, {t[1]})"),
    )


_FCONDS = st.sampled_from([
    "x > y", "x < 0.5f", "gid % 3 == 1", "fabs(x) > fabs(y)", "isnan(x / y)",
    "x * y >= 0.0f",
])


@st.composite
def _float_kernels(draw):
    cname, dtype = draw(st.sampled_from(_FLOAT_TYPES))
    (global_size, local_size) = draw(st.sampled_from(_LAUNCHES))
    n = int(np.prod(global_size))
    stmts = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["assign", "if", "for", "cast", "ternary"]))
        if kind == "assign":
            stmts.append(f"acc = acc + ({draw(_float_exprs(2))});")
        elif kind == "if":
            stmts.append(f"if ({draw(_FCONDS)}) {{ acc = acc * 0.5f + "
                         f"({draw(_float_exprs(1))}); }} else {{ acc = -acc; }}")
        elif kind == "for":
            bound = draw(st.integers(1, 5))
            stmts.append(f"for (int i = 0; i < {bound}; ++i) "
                         f"{{ acc = acc * 0.75f + ({draw(_float_exprs(1))}); }}")
        elif kind == "cast":
            # NaN/inf-free by construction: the clamp bounds the value.
            stmts.append(f"{{ int c = (int)clamp({draw(_float_exprs(1))}, "
                         f"-100.0f, 100.0f); acc = acc + (float)c; }}")
        else:
            stmts.append(f"acc = ({draw(_FCONDS)}) ? ({draw(_float_exprs(1))}) "
                         f": (acc - 1.0f);")
    body = "\n    ".join(stmts)
    source = f"""
    __kernel void k(__global {cname}* out, __global const {cname}* in,
                    {cname} s1, int n) {{
        int gid = get_global_id(0) + get_global_id(1) * get_global_size(0);
        {cname} x = in[gid];
        {cname} y = in[(gid * 5 + 1) % n];
        {cname} acc = x;
        {body}
        out[gid] = acc;
    }}
    """
    rng = np.random.RandomState(draw(st.integers(0, 2**31 - 1)))
    arrays = {
        "out": np.zeros(n, dtype),
        "in": (rng.uniform(-4, 4, size=n)).astype(dtype),
    }
    s1 = float(np.float32(rng.uniform(-2, 2)))
    return source, arrays, ["out", "in", s1, n], global_size, local_size


class TestGeneratedFloatKernels:
    @given(case=_float_kernels())
    @settings(max_examples=150, deadline=None)
    def test_bitexact_with_equal_counters(self, case):
        source, arrays, scalars, global_size, local_size = case
        assert_backends_agree(source, "k", arrays, scalars, global_size, local_size)


# ---------------------------------------------------------------------------
# Generated kernels: local memory and barrier phases.
# ---------------------------------------------------------------------------


@st.composite
def _barrier_kernels(draw):
    wg = draw(st.sampled_from([4, 8, 16, 32]))
    groups = draw(st.integers(1, 3))
    phases = draw(st.integers(1, 4))
    stride = draw(st.integers(1, 3))
    op = draw(st.sampled_from(["+", "^", "-"]))
    writers = draw(st.sampled_from(["lid % 2 == 0", "lid < {half}", "1"]))
    writers = writers.format(half=wg // 2)
    n = wg * groups
    # Race-free by construction: every phase reads any slot, then a
    # barrier, then each lane writes at most its own slot, then another
    # barrier — so no two lanes ever write one slot, and every
    # read/write pair is barrier-ordered.
    source = f"""
    __kernel void k(__global const int* in, __global int* out) {{
        __local int buf[{wg}];
        int lid = get_local_id(0);
        int gid = get_global_id(0);
        buf[lid] = in[gid];
        barrier(CLK_LOCAL_MEM_FENCE);
        int acc = 0;
        for (int p = 0; p < {phases}; ++p) {{
            int t = buf[(lid + p * {stride}) % {wg}];
            acc = acc {op} (t + p);
            barrier(CLK_LOCAL_MEM_FENCE);
            if ({writers}) {{ buf[lid] = acc; }}
            barrier(CLK_LOCAL_MEM_FENCE);
        }}
        out[gid] = acc + buf[({wg} - 1) - lid];
    }}
    """
    rng = np.random.RandomState(draw(st.integers(0, 2**31 - 1)))
    arrays = {
        "in": rng.randint(-50, 50, size=n).astype(np.int32),
        "out": np.zeros(n, np.int32),
    }
    return source, arrays, ["in", "out"], (n,), (wg,)


class TestGeneratedBarrierKernels:
    @given(case=_barrier_kernels())
    @settings(max_examples=80, deadline=None)
    def test_bitexact_with_equal_counters(self, case):
        source, arrays, scalars, global_size, local_size = case
        assert_backends_agree(source, "k", arrays, scalars, global_size, local_size)


# ---------------------------------------------------------------------------
# Generated kernels: gather patterns, mixed dtypes, helper functions.
# ---------------------------------------------------------------------------


@st.composite
def _gather_kernels(draw):
    src_t, src_dtype = draw(st.sampled_from(_INT_TYPES[2:] + _FLOAT_TYPES))
    dst_t, dst_dtype = draw(st.sampled_from(_INT_TYPES[2:] + _FLOAT_TYPES))
    (global_size, local_size) = draw(st.sampled_from(_LAUNCHES[:4]))
    n = int(np.prod(global_size))
    a, b = draw(st.integers(1, 9)), draw(st.integers(0, 9))
    use_helper = draw(st.booleans())
    helper = f"""
    {dst_t} combine({src_t} u, {src_t} v) {{
        if (u > v) {{ return ({dst_t})(u); }}
        return ({dst_t})(v) + ({dst_t})1;
    }}
    """ if use_helper else ""
    combine = ("combine(x, y)" if use_helper
               else f"({dst_t})(x) + ({dst_t})(y)")
    source = f"""
    {helper}
    __kernel void k(__global {dst_t}* out, __global const {src_t}* in, int n) {{
        int gid = get_global_id(0);
        {src_t} x = in[(gid * {a} + {b}) % n];
        {src_t} y = in[(n - 1) - gid];
        out[gid] = {combine};
    }}
    """
    rng = np.random.RandomState(draw(st.integers(0, 2**31 - 1)))
    if np.issubdtype(src_dtype, np.floating):
        data = rng.uniform(-9, 9, size=n).astype(src_dtype)
    else:
        data = rng.randint(0, 50, size=n).astype(src_dtype)
    arrays = {"out": np.zeros(n, dst_dtype), "in": data}
    return source, arrays, ["out", "in", n], global_size, local_size


class TestGeneratedGatherKernels:
    @given(case=_gather_kernels())
    @settings(max_examples=120, deadline=None)
    def test_bitexact_with_equal_counters(self, case):
        source, arrays, scalars, global_size, local_size = case
        assert_backends_agree(source, "k", arrays, scalars, global_size, local_size)


# ---------------------------------------------------------------------------
# Seed corpus: every kernel string shipped in examples/ and baselines/.
# ---------------------------------------------------------------------------


def _corpus_cases():
    cases = []
    for pattern in ("examples/*.py", "src/repro/baselines/*.py"):
        for path in sorted(glob.glob(os.path.join(_REPO_ROOT, pattern))):
            for lineno, source in _extract_kernel_strings(path):
                label = f"{os.path.basename(path)}:{lineno}"
                cases.append(pytest.param(source, id=label))
    assert cases, "seed corpus is empty — extraction broke"
    return cases


# Launch configurations for the shipped kernels, keyed by kernel name.
# Unknown (future) kernels get the generic fallback configuration; a
# fault under it still exercises fault agreement.
_CORPUS_CONFIGS = {
    "dot_product": dict(global_size=(512,), local_size=(256,),
                        buffers={"a": 512, "b": 512, "partial": 2}, scalar_int=512),
    "sobel_kernel": dict(global_size=(32, 32), local_size=(16, 16),
                         buffers={"input_image": 1024, "output_image": 1024,
                                  "img": 1024, "out_img": 1024},
                         scalar_int=32),
    "sobel_tiled": dict(global_size=(32, 32), local_size=(16, 16),
                        buffers={"img": 1024, "out_img": 1024}, scalar_int=32),
    "mandelbrot": dict(global_size=(16, 16), local_size=(8, 8),
                       buffers={"out": 256}, scalar_int=16, scalar_float=0.125),
}
_GENERIC_CONFIG = dict(global_size=(8, 8), local_size=(4, 4), buffers={},
                       scalar_int=8, scalar_float=0.25)


def _synthesize_args(definition, config):
    """Deterministic buffers/scalars matching the kernel's parameters."""
    from repro.kernelc.ctypes_ import PointerType, numpy_dtype

    rng = np.random.RandomState(1234)
    arrays = {}
    scalars = []
    default_len = 4 * int(np.prod(config["global_size"]))
    for param in definition.params:
        ctype = param.declared_type
        if isinstance(ctype, PointerType):
            length = config["buffers"].get(param.name, default_len)
            dtype = numpy_dtype(ctype.pointee)
            if np.issubdtype(dtype, np.floating):
                data = rng.uniform(-2, 2, size=length).astype(dtype)
            else:
                data = rng.randint(0, 100, size=length).astype(dtype)
            arrays[param.name] = data
            scalars.append(param.name)
        elif ctype.is_float():
            scalars.append(config.get("scalar_float", 0.25))
        else:
            scalars.append(config.get("scalar_int", 8))
    return arrays, scalars


class TestSeedCorpus:
    @pytest.mark.parametrize("source", _corpus_cases())
    def test_shipped_kernels_bitexact(self, source):
        program = compile_source(source)
        for definition in program.kernels():
            config = _CORPUS_CONFIGS.get(definition.name, _GENERIC_CONFIG)
            arrays, scalars = _synthesize_args(definition, config)
            assert_backends_agree(
                source, definition.name, arrays, scalars,
                config["global_size"], config["local_size"],
            )


# ---------------------------------------------------------------------------
# Fault agreement and constructs that once had no lockstep lowering.
# ---------------------------------------------------------------------------


class TestFaultAgreement:
    def test_out_of_bounds_faults_on_both(self):
        source = """__kernel void k(__global int* out, int n) {
            out[get_global_id(0) + n] = 1;
        }"""
        arrays = {"out": np.zeros(8, np.int32)}
        result = assert_backends_agree(source, "k", arrays, ["out", 1000], (8,), (8,))
        assert result is None  # both legs faulted

    def test_division_by_zero_faults_on_both(self):
        source = """__kernel void k(__global int* out, __global const int* in) {
            int gid = get_global_id(0);
            out[gid] = 100 / in[gid];
        }"""
        arrays = {"out": np.zeros(4, np.int32),
                  "in": np.array([1, 2, 0, 4], np.int32)}
        result = assert_backends_agree(source, "k", arrays, ["out", "in"], (4,), (4,))
        assert result is None

    def test_barrier_divergence_faults_on_both(self):
        source = """__kernel void k(__global int* out) {
            int lid = get_local_id(0);
            if (lid < 2) { barrier(CLK_LOCAL_MEM_FENCE); }
            out[get_global_id(0)] = lid;
        }"""
        arrays = {"out": np.zeros(8, np.int32)}
        result = assert_backends_agree(source, "k", arrays, ["out"], (8,), (4,))
        assert result is None


class TestLoweredConstructs:
    def test_switch_kernel_agrees(self):
        # switch is lowered to masked case dispatch (see
        # tests/kernelc/test_vectorize_switch.py for the full
        # differential coverage).
        source = """__kernel void k(__global int* out, __global const int* in) {
            int gid = get_global_id(0);
            int r;
            switch (in[gid] % 3) {
                case 0: r = 10; break;
                case 1: r = 20; break;
                default: r = 30; break;
            }
            out[gid] = r;
        }"""
        arrays = {"out": np.zeros(16, np.int32),
                  "in": np.arange(16, dtype=np.int32)}
        bufs = assert_backends_agree(source, "k", arrays, ["out", "in"], (16,), (8,))
        expected = np.array([10, 20, 30] * 6, np.int32)[:16]
        np.testing.assert_array_equal(bufs["out"], expected)

    def test_vector_type_kernel_agrees(self):
        # tests/kernelc/test_vectorize_vectors.py covers vector types in full.
        source = """__kernel void k(__global float4* out) {
            out[get_global_id(0)] = (float4)(1.0f, 2.0f, 3.0f, 4.0f) * (float)get_global_id(0);
        }"""
        bufs = assert_backends_agree(source, "k", {"out": np.zeros(64, np.float32)}, ["out"],
                                     (16,), (8,))
        np.testing.assert_array_equal(bufs["out"][4:8], [1.0, 2.0, 3.0, 4.0])

    def test_string_literal_fails_to_build(self):
        with pytest.raises(CompileError, match="string literals are not supported"):
            compile_source("""__kernel void k(__global char* out) {
                out[get_global_id(0)] = "abc"[1];
            }""")


class TestRegressions:
    def test_store_whose_index_shares_a_load_with_the_value(self):
        # The compiled backend CSEs the two b[0] loads; the shared temp
        # must be defined by the *first* executing side (the lvalue).
        source = """__kernel void k(__global int* a, __global const int* b) {
            a[b[0]] = b[0] + 1;
        }"""
        arrays = {"a": np.zeros(8, np.int32), "b": np.array([3], np.int32)}
        bufs = assert_backends_agree(source, "k", arrays, ["a", "b"], (1,), (1,))
        assert bufs["a"][3] == 4

    def test_compound_assignment_through_gather(self):
        source = """__kernel void k(__global int* out, __global const int* idx) {
            int gid = get_global_id(0);
            out[idx[gid]] += gid * 10;
            out[idx[gid]] <<= 1;
        }"""
        # idx is a permutation: no two lanes write one slot.
        arrays = {"out": np.arange(8, dtype=np.int32),
                  "idx": np.array([3, 1, 7, 0, 6, 2, 5, 4], np.int32)}
        assert_backends_agree(source, "k", arrays, ["out", "idx"], (8,), (4,))

    def test_constant_global_array(self):
        source = """
        __constant int weights[4] = {1, -2, 3, -4};
        __kernel void k(__global int* out, __global const int* in) {
            int gid = get_global_id(0);
            int acc = 0;
            for (int i = 0; i < 4; ++i) { acc += in[(gid + i) % 8] * weights[i]; }
            out[gid] = acc;
        }"""
        arrays = {"out": np.zeros(8, np.int32),
                  "in": np.arange(8, dtype=np.int32)}
        assert_backends_agree(source, "k", arrays, ["out", "in"], (8,), (8,))

    def test_multidimensional_private_and_local_arrays(self):
        source = """__kernel void k(__global const int* in, __global int* out) {
            __local int tile[4][4];
            int lid = get_local_id(0);
            int gid = get_global_id(0);
            int priv[2][2];
            priv[lid % 2][(lid + 1) % 2] = in[gid];
            tile[lid / 4][lid % 4] = in[gid] * 2;
            barrier(CLK_LOCAL_MEM_FENCE);
            out[gid] = tile[(lid + 5) / 4 % 4][(lid + 5) % 4]
                     + priv[lid % 2][(lid + 1) % 2] + priv[0][0];
        }"""
        arrays = {"in": np.arange(16, dtype=np.int32), "out": np.zeros(16, np.int32)}
        assert_backends_agree(source, "k", arrays, ["in", "out"], (16,), (16,))

    def test_pointer_arithmetic_and_comparison(self):
        source = """__kernel void k(__global int* out, __global int* in) {
            int gid = get_global_id(0);
            __global int* p = in + gid;
            __global int* q = in + 4;
            int same = (p == q) ? 100 : 1;
            out[gid] = *p + same + (int)(p - in);
        }"""
        arrays = {"out": np.zeros(8, np.int32),
                  "in": np.arange(8, dtype=np.int32) * 3}
        assert_backends_agree(source, "k", arrays, ["out", "in"], (8,), (4,))

    def test_unsigned_long_wraparound_and_division(self):
        source = """__kernel void k(__global ulong* out, __global const ulong* in) {
            int gid = get_global_id(0);
            ulong x = in[gid];
            ulong big = x * 0x123456789UL + 0xFFFFFFFFFFFFFFF0UL;
            out[gid] = big / 7 + (big % 13) + (big >> 3) + (ulong)(big > x);
        }"""
        arrays = {"out": np.zeros(8, np.uint64),
                  "in": (np.arange(8, dtype=np.uint64) * 0x1000000007)}
        assert_backends_agree(source, "k", arrays, ["out", "in"], (8,), (8,))
