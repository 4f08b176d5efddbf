"""The lockstep engine is compiled once per kernel.

``vectorize.plan_for`` generates one Python function per kernel the
first time it is launched; every later launch — any NDRange shape, any
scalar arguments, sampled or not — only calls it.  These tests pin that
(the generator runs once), that each such launch still equals the
per-item oracle bit for bit and counter for counter, that faults raised
inside the generated function keep their type and message, and that the
static facts the generator reads (the ``switch`` charge, the load-CSE
decisions) are recorded on the AST by ``compile_program`` itself.
"""

import numpy as np
import pytest

from repro.kernelc import ExecutionCounters, ast, compile_source, vectorize
from repro.kernelc.compiler import compile_program
from repro.kernelc.ctypes_ import ctype_from_numpy
from repro.kernelc.execmodel import convert_value
from repro.kernelc.memory import KernelFault, Pointer
from repro.ocl.ndrange import NDRange

from .test_vectorize_differential import _ENGINES


def compiled_kernel(source, name="k"):
    return compile_program(compile_source(source)).kernel(name)


def launch(compiled, arrays, args, global_size, local_size, engine, sample=None):
    """One launch on fresh copies of ``arrays``; returns the final arrays
    and the (scaled, if sampled) counters."""
    counters = ExecutionCounters()
    pointers = {
        name: Pointer(array.copy(), ctype_from_numpy(array.dtype), "global", 0, counters.memory)
        for name, array in arrays.items()}
    values = [pointers[a] if isinstance(a, str) else a for a in args]
    values = [convert_value(value, param.declared_type)
              for value, param in zip(values, compiled.definition.params)]
    result = _ENGINES[engine](compiled, NDRange.create(global_size, local_size), values,
                              sample, counters)
    return {name: pointer.array for name, pointer in pointers.items()}, result


def assert_engines_agree(compiled, arrays, args, global_size, local_size, sample=None):
    per_item, expected = launch(compiled, arrays, args, global_size, local_size, "peritem", sample)
    lockstep, result = launch(compiled, arrays, args, global_size, local_size, "lockstep", sample)
    for name in arrays:
        np.testing.assert_array_equal(
            lockstep[name].view(np.uint8), per_item[name].view(np.uint8), err_msg=name)
    # Dataclass equality covers ops, warp_ops, barriers and every
    # memory-traffic field.
    assert result.counters == expected.counters
    assert (result.groups_total, result.groups_executed) == \
        (expected.groups_total, expected.groups_executed)
    return lockstep


POLY = """
float poly(float x, float s) { return x * s + 0.5f; }

__kernel void k(__global const float* in, __global float* out,
                const unsigned int n, const float s, const int reps) {
    size_t gid = get_global_id(1) * get_global_size(0) + get_global_id(0);
    if (gid < n) {
        float acc = in[gid];
        for (int r = 0; r < reps; ++r) {
            acc = poly(acc, s);
        }
        out[gid] = acc + in[gid];
    }
}
"""

# 256 -> 16 384 -> 512 lanes, 1-D and 2-D.
SHAPES = [((256,), (64,)), ((16384,), (256,)), ((512,), (128,)),
          ((16, 16), (8, 8)), ((128, 128), (16, 16)), ((32, 16), (8, 4))]


class TestCompiledOnce:
    def test_fifty_launches_one_generation(self, monkeypatch):
        generated = []
        generate = vectorize._generate
        monkeypatch.setattr(vectorize, "_generate",
                            lambda kernel, functions: generated.append(kernel.name)
                            or generate(kernel, functions))
        compiled = compiled_kernel(POLY)
        rng = np.random.RandomState(0)
        for launch_index in range(50):
            global_size, local_size = SHAPES[launch_index % len(SHAPES)]
            lanes = int(np.prod(global_size))
            arrays = {"in": rng.randint(-64, 64, lanes).astype(np.float32) / 8,
                      "out": np.zeros(lanes, np.float32)}
            n = lanes - (launch_index % 5) * 3  # ragged tail: some lanes idle
            args = ["in", "out", n, 0.25 * (launch_index % 7), launch_index % 4]
            sample = 0.25 if launch_index % 9 == 8 else None
            assert_engines_agree(compiled, arrays, args, global_size, local_size, sample)
        assert generated == ["k"]
        assert vectorize.plan_for(compiled).source.count("def ") == 2  # k and poly

    def test_plan_is_per_kernel_not_global(self):
        first, second = compiled_kernel(POLY), compiled_kernel(POLY)
        assert vectorize.plan_for(first) is vectorize.plan_for(first)
        assert vectorize.plan_for(first) is not vectorize.plan_for(second)

    def test_sampled_launch_runs_the_selected_groups_only(self):
        compiled = compiled_kernel(POLY)
        arrays = {"in": np.ones(512, np.float32), "out": np.zeros(512, np.float32)}
        args = ["in", "out", 512, 1.0, 0]
        out = assert_engines_agree(compiled, arrays, args, (512,), (64,), sample=0.25)["out"]
        assert np.count_nonzero(out) == 2 * 64

    def test_uniform_code_is_scalar_code(self):
        # Unwritten scalar arguments, size queries and the for counter
        # are emitted by the per-item scalar generator: no lane helper
        # touches them, and the uniform loop is a plain Python loop.
        source = vectorize.plan_for(compiled_kernel(POLY)).source
        assert "((v_r) < (v_reps))" in source
        assert "v_r = v_r + (1)" in source
        assert "_merge(v_r" not in source and "_merge(v_acc" not in source


class TestLaunchGeometry:
    def test_layout_matches_the_per_item_enumeration(self):
        for global_size, local_size in SHAPES + [((8, 4, 2), (2, 2, 1))]:
            ndrange = NDRange.create(global_size, local_size)
            layout = vectorize._layout(ndrange.global_size, ndrange.local_size, None)
            expected = [tuple(g * l + i for g, l, i in zip(group, ndrange.local_size, local))
                        for group in ndrange.group_ids() for local in ndrange.local_ids()]
            dims = len(global_size)
            got = list(zip(*[np.broadcast_to(layout.global_id[d], layout.n) for d in range(dims)]))
            assert got == expected

    def test_selected_groups_and_memo(self):
        ndrange = NDRange.create((64, 8), (8, 4))
        selected = list(ndrange.group_ids())[3::5]
        layout = vectorize._layout(ndrange.global_size, ndrange.local_size, selected)
        assert layout is vectorize._layout(ndrange.global_size, ndrange.local_size, selected)
        assert layout.num_groups == len(selected)
        first_of_group = slice(0, None, layout.group_size)
        groups = list(zip(layout.group_id[0][first_of_group], layout.group_id[1][first_of_group]))
        assert groups == selected

    def test_memo_is_bounded(self):
        for size in range(1, 40):
            vectorize._layout((size * 16384,), (256,), None)
        held = sum(layout.n for layout in vectorize._layouts.values())
        assert held <= vectorize._LAYOUT_LANES or len(vectorize._layouts) == 1


FAULTS = {
    "out_of_bounds": (
        """__kernel void k(__global int* a, int n) {
            int gid = get_global_id(0);
            if (gid % 2 == 1) a[gid + n] = gid;
        }""",
        {"a": np.zeros(16, np.int32)}, ["a", 13], KernelFault,
        "out-of-bounds global access: element 16 of 16"),
    "negative_index": (
        """__kernel void k(__global int* a, int n) {
            int gid = get_global_id(0);
            a[gid - n] = 1;
        }""",
        {"a": np.zeros(16, np.int32)}, ["a", 3], KernelFault,
        "out-of-bounds global access: element -3 of 16"),
    "division_by_zero": (
        """__kernel void k(__global int* a, int n) {
            int gid = get_global_id(0);
            a[gid] = n / (gid - 5);
        }""",
        {"a": np.zeros(16, np.int32)}, ["a", 7], KernelFault, "integer division by zero"),
    "remainder_by_zero": (
        """__kernel void k(__global int* a, int n) {
            int gid = get_global_id(0);
            a[gid] = n % (gid - 5);
        }""",
        {"a": np.zeros(16, np.int32)}, ["a", 7], KernelFault, "integer remainder by zero"),
    "barrier_divergence": (
        """__kernel void k(__global int* a, int n) {
            if (get_local_id(0) < n) { barrier(CLK_LOCAL_MEM_FENCE); }
            a[get_global_id(0)] = 1;
        }""",
        {"a": np.zeros(16, np.int32)}, ["a", 3], KernelFault,
        "barrier divergence: some work-items of a group reached a barrier other items skipped"),
    "null_pointer": (
        """__kernel void k(__global int* a, int n) {
            __global int* p;
            if (n > 100) { p = a; }
            a[get_global_id(0)] = p[0];
        }""",
        {"a": np.zeros(16, np.int32)}, ["a", 3], KernelFault,
        "use of an uninitialized (null) pointer"),
    "nan_to_int": (
        """__kernel void k(__global int* a, float x) {
            a[get_global_id(0)] = (int)(x / (float)get_global_id(0));
        }""",
        {"a": np.zeros(16, np.int32)}, ["a", 0.0], ValueError,
        "cannot convert float NaN to integer"),
}


class TestFaultsInsideTheClosure:
    @pytest.mark.parametrize("case", sorted(FAULTS))
    @pytest.mark.parametrize("engine", ["lockstep", "peritem"])
    def test_type_and_message(self, case, engine):
        source, arrays, args, error, message = FAULTS[case]
        compiled = compiled_kernel(source)
        with pytest.raises(error) as raised:
            launch(compiled, arrays, args, (16,), (8,), engine)
        assert str(raised.value) == message


SWITCH_AND_CSE = """
__kernel void k(__global const int* in, __global int* out, const int bias) {
    int gid = get_global_id(0);
    int r = in[gid] * in[gid] + bias;
    switch (in[gid] & 3) {
        case 0: r += 10; break;
        case 1: r -= in[gid];
        case 2: r *= 2; break;
        default: r = -r;
    }
    out[gid] = r + in[gid];
}
"""


class TestStaticTables:
    def test_switch_charge_and_cse_are_recorded_on_the_nodes(self):
        compiled = compiled_kernel(SWITCH_AND_CSE)
        nodes = list(ast.walk(compiled.definition))
        (switch,) = [node for node in nodes if isinstance(node, ast.SwitchStmt)]
        assert switch.charge > 4
        # in[gid] * in[gid]: the second load is elided, the first held.
        elided = [node for node in nodes
                  if isinstance(node, ast.Expr) and node.cse_source is not None]
        assert elided and all(node.cse_source.cse_origin for node in elided)
        source = vectorize.plan_for(compiled).source
        # The elided load reuses the first load's local instead of gathering.
        assert source.count("_ld") >= 3 and "_switch_start(" in source
        arrays = {"in": np.arange(-32, 32, dtype=np.int32), "out": np.zeros(64, np.int32)}
        out = assert_engines_agree(compiled, arrays, ["in", "out", 5], (64,), (16,))["out"]
        values = arrays["in"].astype(np.int64)
        r = values * values + 5
        low = values & 3
        expected = np.select([low == 0, low == 1, low == 2],
                             [r + 10, (r - values) * 2, r * 2], -r) + values
        np.testing.assert_array_equal(out, expected.astype(np.int32))

    def test_charges_are_block_constants(self):
        # Three straight-line statements on one mask: one charge line.
        compiled = compiled_kernel("""__kernel void k(__global float* a, const float s) {
            int gid = get_global_id(0);
            float x = a[gid] * s;
            float y = x + s;
            a[gid] = y * x;
        }""")
        source = vectorize.plan_for(compiled).source
        assert source.count("R.base +=") == 1 and "ops +=" not in source
        arrays = {"a": np.linspace(-2, 2, 64).astype(np.float32)}
        assert_engines_agree(compiled, arrays, ["a", 1.5], (64,), (32,))

    def test_a_pointer_cast_is_a_view_on_lanes(self):
        compiled = compiled_kernel("""__kernel void k(__global float* a) {
            __global int* bits = (__global int*)a;
            bits[get_global_id(0)] = 0x3f800000;
        }""")
        assert ".retyped(_K[" in vectorize.plan_for(compiled).source
        out = assert_engines_agree(compiled, {"a": np.zeros(8, np.float32)}, ["a"], (8,), (8,))
        assert out["a"].tolist() == [1.0] * 8


# One kernel per branch of the statement generator that no skeleton
# kernel takes; ``n`` sweeps each across its uniform conditions.
SHAPES_OF_CONTROL_FLOW = {
    "do_while_with_continue_and_break": """__kernel void k(__global int* a, int n) {
        int gid = get_global_id(0); int i = 0; int acc = 0;
        do { i++; if ((i + gid) % 3 == 0) continue; acc += i; if (acc > 40) break; }
        while (i < n + gid % 4);
        a[gid] = acc; }""",
    "helper_with_several_returns": """
        int f(int x, int n) {
            if (x < 0) return -x;
            for (int i = 0; i < n; ++i) { if (x == i) return 100 + i; x -= 1; }
            if (x > 3) { return 7; }
            return x; }
        __kernel void k(__global int* a, int n) {
            int gid = get_global_id(0); a[gid] = f(gid - 3, n) + f(a[gid], 2); }""",
    "switch_in_a_loop_with_continue": """__kernel void k(__global int* a, int n) {
        int gid = get_global_id(0); int acc = 0;
        for (int i = 0; i < n; ++i) {
            switch ((gid + i) & 3) {
                case 0: continue;
                case 1: acc += 1;
                case 2: acc += 2; break;
                default: if (acc > 5) break; acc += 10; }
            acc += 100; }
        a[gid] = acc; }""",
    "uniform_if_whose_branch_returns": """__kernel void k(__global int* a, int n) {
        int gid = get_global_id(0);
        if (n > 5) { a[gid] = 1; if (n > 6) return; a[gid] = 3; } else { a[gid] = 2; }
        a[gid] += 10; }""",
    "return_inside_nested_loops": """__kernel void k(__global int* a, int n) {
        int gid = get_global_id(0); int acc = 0;
        for (int i = 0; i < n; ++i) {
            for (int j = 0; j < n; ++j) {
                if (j > gid % 3) break; acc += j; if (acc > 30) return; }
            if (i > gid % 5) break; }
        a[gid] = acc; }""",
    "counter_also_written_in_the_body": """__kernel void k(__global int* a, int n) {
        int gid = get_global_id(0); int acc = 0;
        for (int i = 0; i < n; ++i) { if (gid & 1) i += 1; acc += i; }
        a[gid] = acc; }""",
    "counter_stepped_by_a_lane_value": """__kernel void k(__global int* a, int n) {
        int gid = get_global_id(0); int acc = 0;
        for (int i = 0; i < n; i += 1 + (gid & 1)) { acc += i; }
        a[gid] = acc; }""",
    "counters_stepped_under_a_lane_condition": """__kernel void k(__global int* a, int n) {
        int gid = get_global_id(0); int acc = 0;
        for (int i = 0, j = 0; i < n; (gid & 1) ? i++ : (i += 2), (gid & 2) && j++) {
            acc += i + j; }
        for (int u = 0; u < n; (n & 1) ? u++ : (u += 2)) { acc += u; }
        a[gid] = acc; }""",
    "work_item_query_with_a_lane_dimension": """__kernel void k(__global int* a, int n) {
        int gid = get_global_id(0);
        a[gid] = get_global_id(n) + get_local_size(gid % 4) * 10 + get_num_groups(0)
            + get_work_dim() + get_global_id(gid % 3); }""",
    "many_early_returns_in_one_block": "__kernel void k(__global int* a, int n) {"
        " int gid = get_global_id(0);"
        + "".join(f" if (gid == {k}) return; a[gid] += n + {k};" for k in range(120)) + " }",
}


class TestControlFlowShapes:
    @pytest.mark.parametrize("shape", sorted(SHAPES_OF_CONTROL_FLOW))
    def test_engines_agree(self, shape):
        compiled = compiled_kernel(SHAPES_OF_CONTROL_FLOW[shape])
        rng = np.random.RandomState(3)
        for n in (0, 2, 6, 7, 9):
            arrays = {"a": rng.randint(-5, 9, 32).astype(np.int32)}
            assert_engines_agree(compiled, arrays, ["a", n], (32,), (8,))


def test_rounding_builtins_keep_the_sign_of_zero_on_both_engines():
    # floor/ceil/trunc/round return floats: -floor(0.8f) is -0.0f on the
    # per-item engine too (an int 0 negated to 0 there, found by the
    # differential fuzzer).
    compiled = compiled_kernel("""__kernel void k(__global float* a, __global const float* x) {
        int gid = get_global_id(0);
        a[gid] = -floor(x[gid]);
        a[gid + 8] = -trunc(x[gid]);
        a[gid + 16] = -round(x[gid] * 0.5f);
        a[gid + 24] = -(ceil(x[gid]) - 1.0f);
    }""")
    arrays = {"a": np.ones(32, np.float32),
              "x": np.array([0.8, 0.2, -0.3, 1.5, 0.0, 0.99, -2.5, 3.0], np.float32)}
    out = assert_engines_agree(compiled, arrays, ["a", "x"], (8,), (8,))["a"]
    assert np.signbit(out[0]) and out[0] == 0.0
